"""Model parsing, serialization, validation, and goal reduction."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import random_pomdp
from sensynth.model import (BOT, ModelSemanticError, ModelSyntaxError,
                            PartialObsFn, Pomdp, parse_pomdp, print_pomdp,
                            read_row, reduce_targets, validate)

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
