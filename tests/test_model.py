"""Model parsing, serialization, validation, and goal reduction."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import random_pomdp
from sensynth.bench import (GridSpec, gen_det_hallway, gen_escape, gen_fig1, gen_hallway,
                            gen_rocksample)
from sensynth.model import (_HEADER_RE, _HEADERS, BOT, ModelSemanticError, ModelSyntaxError,
                            PartialObsFn, Pomdp, parse_pomdp, print_pomdp,
                            read_row, reduce_targets, sections, validate)

CHAIN = """
states: s0 s1 g
actions: step
observations: z0
initial: s0
goal: g
delta s0 step -> s1 1
delta s1 step -> g 1
delta g step -> g 1
obs s0 -> z0 1/2, bot 1/2
"""


class TestParse:
    def test_chain(self):
        p = parse_pomdp(CHAIN)
        assert p.states == ("s0", "s1", "g")
        assert p.actions == ("step",)
        assert p.initial == 0 and p.goal == 2
        assert p.delta[0][0] == ((1, Fraction(1)),)
        assert p.obs.rows[0] == ((0, Fraction(1, 2)), (BOT, Fraction(1, 2)))
        # omitted obs lines default to fully undefined
        assert p.obs.rows[1] == ((BOT, Fraction(1)),)

    def test_comments_and_blanks(self):
        p = parse_pomdp("# hello\n\n" + CHAIN + "\n# bye\n")
        assert p.n_states == 3

    def test_weights_accept_fractions_and_decimals(self):
        p = parse_pomdp(CHAIN.replace("z0 1/2, bot 1/2", "z0 0.25, bot 0.75"))
        assert p.obs.rows[0][0] == (0, Fraction(1, 4))

    def test_targets_section_reduces(self):
        text = CHAIN.replace("goal: g", "targets: s1 g")
        p = parse_pomdp(text)
        # fresh absorbing goal appended, both targets redirected to it
        assert p.states[-1] == "G" and p.goal == 3
        assert p.succ(1, 0) == (3,) and p.succ(2, 0) == (3,)

    def test_non_absorbing_goal_reduces(self):
        text = CHAIN.replace("delta g step -> g 1", "delta g step -> s0 1")
        p = parse_pomdp(text)
        assert p.states[-1] == "G" and p.absorbing(p.goal)

    @pytest.mark.parametrize("mangle, err", [
        (lambda t: t.replace("initial: s0\n", ""), ModelSemanticError),
        (lambda t: t.replace("goal: g", "goal: g\ntargets: g"), ModelSemanticError),
        (lambda t: t.replace("delta s1 step -> g 1\n", ""), ModelSemanticError),
        (lambda t: t.replace("s1 1", "s1 1/2"), ModelSemanticError),
        (lambda t: t.replace("s1 1", "nope 1"), ModelSemanticError),
        (lambda t: t.replace("obs s0", "obs s9"), ModelSemanticError),
        (lambda t: t.replace("states: s0", "states: bad$name"), ModelSyntaxError),
        (lambda t: t + "junk line\n", ModelSyntaxError),
        (lambda t: t + "delta s0 step -> s1 1\n", ModelSemanticError),
        (lambda t: t.replace("observations: z0", "observations: bot"), ModelSemanticError),
    ])
    def test_rejects(self, mangle, err):
        with pytest.raises(err):
            parse_pomdp(mangle(CHAIN))

    @pytest.mark.parametrize("tok, message", [
        ("abc", "line 9, col 1: bad weight 'abc'"),
        ("1/0", "line 9, col 1: bad weight '1/0'"),
        ("-1", "line 9, col 1: weight must be positive, got -1"),
    ])
    def test_weight_errors_name_their_line(self, tok, message):
        # weights are parsed through a cache: a token seen before, valid or
        # not, still reports its own line
        bad = CHAIN.replace("delta g step -> g 1", f"delta g step -> g {tok}")
        for _ in range(2):
            with pytest.raises(ModelSyntaxError) as exc:
                parse_pomdp(bad)
            assert str(exc.value) == message


NAMES = {"a": 0, "b": 1, "c": 2}


class TestReadRowCache:
    """read_row checks each tuple of weight tokens once; a row whose tokens
    were accepted before must still be rejected for its own defects, with
    the message the uncached loop gives."""

    @pytest.mark.parametrize("bad, err, message", [
        ("a 1/2, x 1/2", ModelSemanticError, "x: unknown state (line 7)"),
        ("a 1/2, a 1/2", ModelSemanticError, "s/a: duplicate state a (line 7)"),
        ("a 1/2, b", ModelSyntaxError, "line 7, col 1: expected 'name weight', got 'b'"),
        ("a 1/2, b 1/2 c", ModelSyntaxError,
         "line 7, col 1: expected 'name weight', got 'b 1/2 c'"),
        ("a 1/2, b half", ModelSyntaxError, "line 7, col 1: bad weight 'half'"),
        ("a 1/2, b 1/2, c 0", ModelSyntaxError,
         "line 7, col 1: weight must be positive, got 0"),
        ("a 3/2, b -1/2", ModelSyntaxError,
         "line 7, col 1: weight must be positive, got -1/2"),
        ("a 1/2, b 1/2, c 1/2", ModelSemanticError,
         "s/a: distribution does not sum to 1 (line 7)"),
        ("x 1/2, a 0", ModelSemanticError, "x: unknown state (line 7)"),
    ])
    def test_warm_cache_keeps_errors(self, bad, err, message):
        for _ in range(2):  # the second pass reads bad with its own tokens cached too
            assert read_row("a 1/2, b 1/2", NAMES, "state", "s/a", 3) == (
                (0, Fraction(1, 2)), (1, Fraction(1, 2)))
            with pytest.raises(err) as exc:
                read_row(bad, NAMES, "state", "s/a", 7)
            assert type(exc.value) is err and str(exc.value) == message

    def test_tokens_cached_across_name_tables(self):
        row = "a 1/4, b 3/4"
        assert read_row(row, NAMES, "state", "r", 1) == ((0, Fraction(1, 4)), (1, Fraction(3, 4)))
        assert read_row(row, {"a": 5, "b": 3}, "state", "r", 1) == (
            (5, Fraction(1, 4)), (3, Fraction(3, 4)))


def reference_sections(text, headers, arities):
    """sections as it was before keyword lines were tried first: every line
    goes through the header pattern, then the keyword form."""
    heads, lines = {}, {kw: [] for kw in arities}
    for ln, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        m = _HEADER_RE.match(stmt)
        if m:
            key = m.group(1)
            if key not in headers:
                raise ModelSyntaxError(ln, 1, f"unknown section {key!r}")
            if key in heads:
                raise ModelSyntaxError(ln, 1, f"duplicate section {key!r}")
            heads[key] = (ln, m.group(2))
            continue
        head, arrow, rest = stmt.partition("->")
        fields = head.split()
        if not (arrow and fields and arities.get(fields[0]) == len(fields) - 1):
            raise ModelSyntaxError(ln, 1, f"unrecognized line {stmt!r}")
        lines[fields[0]].append((ln, fields[1:], rest.strip()))
    return heads, lines


def reference_parse(text):
    """A valid model text read with read_row on every delta and obs line, one
    tuple per line, as the parser did before its row memo."""
    heads, lines = reference_sections(text, _HEADERS, {"delta": 2, "obs": 1})
    names = {key: value.split() for key, (_, value) in heads.items()}
    states, actions = names["states"], names["actions"]
    sidx = {n: i for i, n in enumerate(states)}
    aidx = {n: i for i, n in enumerate(actions)}
    zidx = {n: i for i, n in enumerate(names["observations"])}
    zidx["bot"] = BOT
    delta = [[None] * len(actions) for _ in states]
    for ln, (sname, aname), rest in lines["delta"]:
        delta[sidx[sname]][aidx[aname]] = read_row(rest, sidx, "state", f"{sname}/{aname}", ln)
    obs = [((BOT, Fraction(1)),) for _ in states]
    for ln, (sname,), rest in lines["obs"]:
        obs[sidx[sname]] = read_row(rest, zidx, "observation", sname, ln)
    targets = [sidx[t] for t in names.get("goal", names.get("targets"))]
    p = Pomdp(tuple(states), tuple(actions), tuple(names["observations"]),
              sidx[names["initial"][0]], targets[0], tuple(map(tuple, delta)),
              PartialObsFn(tuple(obs)))
    return reduce_targets(p, targets)


def tables(p):
    """succ, support and fully_defined of every state, worked out from the
    rows directly."""
    return ([[tuple(t for t, w in row if w > 0) for row in rows] for rows in p.delta],
            [tuple(z for z, w in row if z != BOT and w > 0) for row in p.obs.rows],
            [not any(z == BOT and w > 0 for z, w in row) for row in p.obs.rows])


def grid(art, p_fail="0"):
    return gen_hallway(GridSpec.from_ascii(art.replace("/", "\n"), p_fail=Fraction(p_fail)))


BENCH_MODELS = {
    "fig1": gen_fig1, "det-hallway": gen_det_hallway, "escape3": lambda: gen_escape(3),
    "escape8": lambda: gen_escape(8), "rock1": lambda: gen_rocksample(1),
    "maze": lambda: grid("+.#g/..#./#.../...."), "trap": lambda: grid("+..x/.#../...g", "1/3"),
    "open3": lambda: grid("+../.../..g", "1/2"),
}


class TestRowMemo:
    """parse_pomdp reads each distinct row text once per table and shares
    the tuple; it must build the model the line-by-line reader builds."""

    def assert_same_model(self, text):
        p, ref = parse_pomdp(text), reference_parse(text)
        assert p == ref and hash(p) == hash(ref)
        assert ([[p.succ(s, a) for a in range(p.n_actions)] for s in range(p.n_states)],
                [p.obs.support(s) for s in range(p.n_states)],
                [p.obs.fully_defined(s) for s in range(p.n_states)]) == tables(ref)
        return p

    def test_random_models_match_the_reference(self):
        rng = random.Random(22)
        for _ in range(200):
            self.assert_same_model(print_pomdp(random_pomdp(rng, 6, 3, 3)))

    @pytest.mark.parametrize("name", BENCH_MODELS)
    def test_bench_models_match_the_reference(self, name):
        p = self.assert_same_model(print_pomdp(BENCH_MODELS[name]()))
        rows = [row for rows in p.delta for row in rows]
        assert len({id(row) for row in rows}) == len(set(rows))  # one object per distinct row

    def test_equal_texts_share_one_tuple(self):
        p = parse_pomdp(CHAIN)  # delta s1 and delta g both read "g 1"
        assert p.delta[1][0] is p.delta[2][0]
        q = parse_pomdp(CHAIN.replace("obs s0 -> z0 1/2, bot 1/2",
                                      "obs s0 -> z0 1\nobs s1 -> z0 1"))
        assert q.obs.rows[0] is q.obs.rows[1]

    @pytest.mark.parametrize("row, message", [
        ("g 1/2", "s1/step: distribution does not sum to 1 (line 8)"),
        ("nope 1", "nope: unknown state (line 8)"),
        ("g 1, g 1", "s1/step: duplicate state g (line 8)"),
        ("g one", "line 8, col 1: bad weight 'one'"),
    ])
    def test_repeated_defect_raises_at_its_first_line(self, row, message):
        text = CHAIN.replace("delta s1 step -> g 1", f"delta s1 step -> {row}")
        text = text.replace("delta g step -> g 1", f"delta g step -> {row}")
        for read in parse_pomdp, reference_parse:
            with pytest.raises((ModelSemanticError, ModelSyntaxError)) as exc:
                read(text)
            assert str(exc.value) == message

    @pytest.mark.parametrize("line", [
        "delta: x", "obs: y", "states: a -> b", "update m0 z:c a -> m1", "delta s0 -> s1 1",
        "obs s0 s1 -> z0 1", "update m0 z a -> m1", "action m0 ->", "delta s0 step->s1 1",
    ])
    @pytest.mark.parametrize("headers, arities", [
        (_HEADERS, {"delta": 2, "obs": 1}),
        (("observations", "new"), {"action": 1, "update": 3, "obs": 1}),
    ], ids=["model", "result"])
    def test_crafted_lines_read_as_before(self, line, headers, arities):
        text = f"# crafted\n{line}\n"

        def outcome(read):
            try:
                return read(text, headers, arities)
            except ModelSyntaxError as e:
                return str(e)
        assert outcome(sections) == outcome(reference_sections)


class TestRoundTrip:
    def test_chain_fixpoint(self):
        p = parse_pomdp(CHAIN)
        text = print_pomdp(p)
        assert print_pomdp(parse_pomdp(text)) == text

    def test_random_models(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_pomdp(rng)
            q = parse_pomdp(print_pomdp(p))
            assert q == p

    def test_successor_table_is_not_a_field(self):
        p = parse_pomdp(CHAIN)  # the parser's absorbing check builds p's table
        q = replace(p)  # the same fields, no table yet
        assert "_succ" in vars(p) and "_succ" not in vars(q)
        assert q == p and hash(q) == hash(p)
        assert [q.succ(s, 0) for s in range(3)] == [p.succ(s, 0) for s in range(3)]

    def test_exact_weights_survive(self):
        p = parse_pomdp(CHAIN.replace("1/2", "1/3").replace("bot 1/3", "bot 2/3"))
        assert "z0 1/3, bot 2/3" in print_pomdp(p)


def _delta_row(row):
    """CHAIN with delta(s0, step) replaced by row."""
    return lambda p: replace(p, delta=((row,),) + p.delta[1:])


def _obs_row(row):
    """CHAIN with obs(s0) replaced by row."""
    return lambda p: replace(p, obs=PartialObsFn((row,) + p.obs.rows[1:]))


class TestValidate:
    def test_clean(self):
        assert validate(parse_pomdp(CHAIN)) == []

    def test_bad_distribution_flagged(self):
        p = parse_pomdp(CHAIN)
        rows = list(p.delta)
        rows[0] = (((1, Fraction(1, 2)),),)
        bad = Pomdp(states=p.states, actions=p.actions, observations=p.observations,
                    initial=p.initial, goal=p.goal, delta=tuple(rows), obs=p.obs)
        assert any("sum" in v for v in validate(bad))

    def test_bad_obs_row_flagged(self):
        p = parse_pomdp(CHAIN)
        rows = list(p.obs.rows)
        rows[0] = ((0, Fraction(1, 3)),)
        bad = Pomdp(states=p.states, actions=p.actions, observations=p.observations,
                    initial=p.initial, goal=p.goal, delta=p.delta,
                    obs=PartialObsFn(tuple(rows)))
        assert any("obs" in v and "sum" in v for v in validate(bad))

    @pytest.mark.parametrize("breaks, message", [
        pytest.param(lambda p: replace(p, initial=3), "initial state index 3 out of range",
                     id="initial"),
        pytest.param(lambda p: replace(p, goal=-1), "goal state index -1 out of range", id="goal"),
        pytest.param(lambda p: replace(p, delta=p.delta[:2]),
                     "delta not total: wrong number of state rows", id="delta-states"),
        pytest.param(lambda p: replace(p, delta=((),) + p.delta[1:]),
                     "delta not total: state s0 missing action rows", id="delta-actions"),
        pytest.param(_delta_row(()), "delta(s0,step): empty support", id="delta-empty"),
        pytest.param(_delta_row(((1, Fraction(-1, 2)), (2, Fraction(3, 2)))),
                     "delta(s0,step): negative weight", id="delta-negative"),
        pytest.param(_delta_row(((3, Fraction(1)),)), "delta(s0,step): successor out of range",
                     id="delta-successor"),
        pytest.param(_delta_row(((1, Fraction(1, 2)),)), "delta(s0,step): weights do not sum to 1",
                     id="delta-sum"),
        pytest.param(lambda p: replace(p, obs=PartialObsFn(p.obs.rows[:2])),
                     "obs not total over states", id="obs-states"),
        pytest.param(_obs_row(()), "obs(s0): empty support", id="obs-empty"),
        pytest.param(_obs_row(((0, Fraction(-1, 2)), (BOT, Fraction(3, 2)))),
                     "obs(s0): negative weight", id="obs-negative"),
        pytest.param(_obs_row(((1, Fraction(1)),)), "obs(s0): observation index out of range",
                     id="obs-index"),
        pytest.param(_obs_row(((0, Fraction(1, 3)),)), "obs(s0): weights do not sum to 1",
                     id="obs-sum"),
    ])
    def test_each_violation_named(self, breaks, message):
        assert validate(breaks(parse_pomdp(CHAIN))) == [message]


class TestReduceTargets:
    def test_identity_when_single_absorbing(self):
        p = parse_pomdp(CHAIN)
        assert reduce_targets(p, [p.goal]) == p

    def test_empty_targets_rejected(self):
        p = parse_pomdp(CHAIN)
        with pytest.raises(ModelSemanticError):
            reduce_targets(p, [])

    def test_fresh_name_avoids_clash(self):
        text = """
states: G g
actions: step
observations:
initial: G
targets: G g
delta G step -> g 1
delta g step -> g 1
"""
        p = parse_pomdp(text)
        assert p.n_states == 3
        assert p.states[p.goal] not in ("G", "g")

    def test_reachability_preserved(self):
        # goal-set reachability in the original == goal reachability reduced
        rng = random.Random(21)
        for _ in range(40):
            p = random_pomdp(rng)
            targets = sorted(rng.sample(range(p.n_states), rng.randint(1, 2)))
            q = reduce_targets(p, targets)

            def reach(model, tset):
                seen, todo = {model.initial}, [model.initial]
                while todo:
                    s = todo.pop()
                    if s in tset:
                        return True
                    for a in range(model.n_actions):
                        for t in model.succ(s, a):
                            if t not in seen:
                                seen.add(t)
                                todo.append(t)
                return False

            assert reach(p, set(targets)) == reach(q, {q.goal})
