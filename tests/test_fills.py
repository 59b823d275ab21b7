"""Rows outside the observed set L: the formula over L against the full-row
formula and the brute-force oracle, the rows L keeps, and the fills."""

import random
from fractions import Fraction

import pytest

from conftest import random_pomdp
from sensynth import sat
from sensynth.bench import gen_escape, gen_fig1
from sensynth.encode import (Cnf, SideConstraints, VarMap, encode, encode_action_selection,
                             encode_memory_update, encode_observation_fn,
                             encode_path_predicate, encode_reach_closure,
                             encode_side_constraints, encode_symmetry, mdp_prepass,
                             row_fills, row_rule, sensor_model)
from sensynth.model import parse_pomdp
from sensynth.synth import format_result, parse_result, prepare, synthesize
from sensynth.verify import (BruteForceGuardError, brute_force_decide, build_product,
                             check_almost_sure, contract_breaches)
from test_acceptance import SPLIT


def full_row_formula(p, mu, nu, k, sc):
    """encode()'s formula with O rows, at-most-one and value precedence over
    every state: the families over a VarMap without fills."""
    vm = VarMap(p, mu, nu, k, mdp_prepass(p))
    out = Cnf()
    encode_action_selection(vm, out)
    encode_memory_update(vm, out)
    encode_observation_fn(p, vm, sc, out)
    encode_reach_closure(p, vm, out)
    encode_path_predicate(p, vm, out)
    encode_side_constraints(sc, vm, out)
    encode_symmetry(p, vm, out)
    return out.finalize(vm.nvars)


def random_links(rng, p, region):
    """One to three same / diff / implies lines, each naming a state of V and
    one outside it where the model has both."""
    inside = sorted(region) or list(range(p.n_states))
    outside = [s for s in range(p.n_states) if s not in region] or inside
    same, diff, implies = [], [], []
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(inside), rng.choice(outside)
        kind = rng.choice(("same", "diff", "implies") if p.n_obs >= 2 else ("same", "diff"))
        if kind == "implies":
            implies.append((rng.choice((a, b)), *rng.sample(range(p.n_obs), 2)))
        elif a != b:
            (same if kind == "same" else diff).append((a, b))
    return dict(same=tuple(same), diff=tuple(diff), implies=tuple(implies))


def modes(rng, p):
    """(constraints, nus) pairs: the four flag combinations, random links
    under random flags, and sensor mode (nu = 0) when every state but the
    goal gives a base symbol."""
    flags = [dict(), dict(deterministic=True), dict(strict=True),
             dict(deterministic=True, strict=True)]
    out = [(SideConstraints(**f), (0, 1, 2)) for f in flags]
    out.append((SideConstraints(**random_links(rng, p, mdp_prepass(p)), **rng.choice(flags)),
                (0, 1, 2)))
    if all(p.obs.support(s) for s in range(p.n_states) if s != p.goal):
        links = random_links(rng, p, mdp_prepass(p))
        out.append((SideConstraints(sensor_name="C", sensor_values=("lo", "hi"),
                                    deterministic=rng.random() < 0.5,
                                    same=links["same"], diff=links["diff"]), (0,)))
    return out


class TestAgainstFullRows:
    def test_random_models_every_mode(self):
        # every cell's formula over L is satisfiable iff the full-row formula
        # is (k at the completeness bound, so SAT is Realizable), synthesize
        # answers the same, and each witness document keeps its contract
        rng = random.Random(23)
        cells = filled = linked = sensor = realizable = 0
        for _ in range(45):
            p = random_pomdp(rng, max_states=6, max_actions=2, max_obs=2)
            for sc, nus in modes(rng, p):
                prep = prepare(p, 1, nus[-1], constraints=sc)
                p_enc, sc_enc = prep.model, prep.constraints
                region = prep.region
                for mu in (1, 2):
                    for nu in nus:
                        if not prep.needs_formula(nu):
                            continue
                        k = p_enc.n_states * mu
                        cnf, vm = encode(p_enc, mu, nu, k, sc_enc)
                        got = sat.solve(cnf).status
                        want = sat.solve(full_row_formula(p_enc, mu, nu, k, sc_enc)).status
                        assert got == want, (p, sc, mu, nu)
                        out = synthesize(p, mu, nu, constraints=sc)
                        assert out.verdict == ("Realizable" if want == sat.SAT
                                               else "Unrealizable"), (p, sc, mu, nu)
                        if out.verdict == "Realizable":
                            doc = parse_result(format_result(out), p)
                            assert contract_breaches(p_enc, doc.completion, doc.policy, mu,
                                                     nu, sc_enc) == []
                            realizable += 1
                        cells += 1
                        filled += bool(vm.fills)
                        named = {s for pair in sc.same + sc.diff for s in pair}
                        linked += bool(named - region)
                        sensor += sc.sensor_values is not None
        assert cells >= 900 and filled >= 150 and linked >= 50 and sensor >= 15
        assert realizable >= 500

    @pytest.mark.parametrize("deterministic", [False, True], ids=["default", "deterministic"])
    def test_brute_force_oracle(self, deterministic):
        rng = random.Random(31 + deterministic)
        decided = filled = 0
        for _ in range(60):
            p = random_pomdp(rng, max_states=5)
            for mu, nu in ((1, 0), (1, 1), (2, 0), (2, 1)):
                try:
                    want = brute_force_decide(p, mu, nu, deterministic=deterministic,
                                              guard=1 << 12)
                except BruteForceGuardError:
                    continue
                out = synthesize(p, mu, nu, deterministic=deterministic)
                assert out.verdict == ("Realizable" if want else "Unrealizable"), (p, mu, nu)
                decided += 1
                if p.initial in mdp_prepass(p) and p.n_obs + nu:
                    filled += bool(prepare(p, mu, nu).encode(mu, nu)[1].fills)
        assert decided >= 150 and filled >= 20


# s0 reaches the goal, or falls into a sink that is outside V
SINK = """
states: s0 sink g
actions: go fall
observations: z0 z1
initial: s0
goal: g
delta s0 go -> g 1
delta s0 fall -> sink 1
delta sink go -> sink 1
delta sink fall -> sink 1
delta g go -> g 1
delta g fall -> g 1
obs s0 -> z0 1
obs g -> z0 1
"""


class TestKeptRows:
    def test_strict_blank_row_outside_v(self):
        # the sink's blank row allows only fresh symbols in strict mode, so
        # at nu = 0 no completion exists: the row keeps its clauses
        p = parse_pomdp(SINK)
        sink = p.states.index("sink")
        assert sink not in mdp_prepass(p)
        assert synthesize(p, 1, 0).verdict == "Realizable"
        assert synthesize(p, 1, 0, strict=True).verdict == "Unrealizable"
        out = synthesize(p, 1, 1, strict=True)
        assert out.verdict == "Realizable" and out.completion.support(sink) == (2,)
        assert sink in prepare(p, 1, 0, strict=True).encode(1, 0)[1].observed
        assert sink not in prepare(p, 1, 0).encode(1, 0)[1].observed

    def test_deterministic_row_with_two_given_symbols(self):
        p = parse_pomdp(SINK + "obs sink -> z0 1/2, z1 1/2\n")
        sink = p.states.index("sink")
        assert synthesize(p, 1, 0).verdict == "Realizable"
        assert synthesize(p, 1, 1, deterministic=True).verdict == "Unrealizable"
        assert sink in prepare(p, 1, 1, deterministic=True).encode(1, 1)[1].observed
        assert sink not in prepare(p, 1, 1).encode(1, 1)[1].observed


class TestFills:
    def test_escape8_observes_only_v(self):
        p = gen_escape(8)
        cnf, vm = prepare(p, 2, 2).encode(2, 2)
        names = [vm.var_name(v) for v in range(1, vm.n_semantic + 1)]
        assert len(mdp_prepass(p)) == 31 and vm.nzp == 2
        assert sum(n.startswith("O(") for n in names) == 31 * vm.nzp

    def test_blank_row_takes_symbol_0(self):
        # fig1 declares no observation, so symbol 0 is @0, which every cell
        # with a formula switches on; SINK's blank sink takes z0 even where
        # the observed rows use only z1
        p = gen_fig1()
        lose = p.states.index("lose")
        for mu, nu, deterministic in ((2, 2, False), (3, 1, False), (3, 1, True)):
            out = synthesize(p, mu, nu, deterministic=deterministic)
            assert out.completion.rows[lose] == ((0, Fraction(1)),)
        p = parse_pomdp(SINK.replace("-> z0 1", "-> z1 1"))
        for deterministic in (False, True):
            out = synthesize(p, 1, 1, deterministic=deterministic)
            assert {out.completion.support(s) for s in mdp_prepass(p)} == {(1,)}
            assert out.completion.rows[p.states.index("sink")] == ((0, Fraction(1)),)

    def test_strict_blank_row_without_declared_symbols(self):
        # fig1's strict blank rows allow only fresh symbols, and @0 is on at
        # every cell with a formula: lose leaves L and takes @0
        p = gen_fig1()
        lose = p.states.index("lose")
        vm = prepare(p, 3, 1, strict=True).encode(3, 1)[1]
        assert p.n_obs == 0 and vm.fills == {lose: (0,)} and lose not in vm.observed
        assert synthesize(p, 2, 1, strict=True).verdict == "Unrealizable"
        out = synthesize(p, 3, 1, strict=True)
        assert out.verdict == "Realizable" and out.completion.rows[lose] == ((0, Fraction(1)),)

    def test_given_row_keeps_its_support(self):
        # outside V the sink keeps z1 and, in every mode, spreads its bot
        # mass over it
        p = parse_pomdp(SINK + "obs sink -> z1 1/3, bot 2/3\n")
        sink = p.states.index("sink")
        for strict in (False, True):
            out = synthesize(p, 1, 1, strict=strict)
            assert out.completion.rows[sink] == ((1, Fraction(1)),)

    def test_sensor_fill_pairs_the_first_value(self):
        p = parse_pomdp(SINK + "obs sink -> z0 1/2, z1 1/2\n")
        sc = SideConstraints(sensor_name="C", sensor_values=("lo", "hi"))
        out = synthesize(p, 1, 0, constraints=sc)
        sink = p.states.index("sink")
        assert out.model.observations == ("z0:lo", "z0:hi", "z1:lo", "z1:hi")
        assert out.completion.support(sink) == (0, 2)
        p2, sc2 = sensor_model(p, sc)
        assert contract_breaches(p2, out.completion, out.policy, 1, 0, sc2) == []


class TestRowRule:
    def test_random_fills_follow_the_rule(self):
        # every fill holds its given symbols, lies inside allowed and meets
        # every group of its row's rule at each cell with a formula, has one
        # symbol in deterministic mode, and uses only declared symbols, or
        # @0 when the model declares none
        rng = random.Random(24)
        filled = blank = undeclared = 0
        for _ in range(60):
            p = random_pomdp(rng, max_states=6, max_actions=2, max_obs=2)
            for sc, nus in modes(rng, p):
                prep = prepare(p, 1, nus[-1], constraints=sc)
                p_enc, sc_enc = prep.model, prep.constraints
                fills = row_fills(p_enc, sc_enc, prep.region)
                for s, fill in fills.items():
                    assert fill == tuple(sorted(set(fill))) and fill, (p, sc, s)
                    if sc_enc.deterministic:
                        assert len(fill) == 1, (p, sc, s)
                    if p_enc.n_obs:
                        assert max(fill) < p_enc.n_obs, (p, sc, s)
                    else:
                        assert fill == (0,), (p, sc, s)
                        undeclared += 1
                    for nu in nus:
                        if not prep.needs_formula(nu):
                            continue
                        given, allowed, groups = row_rule(p_enc, sc_enc, s, p_enc.n_obs, nu)
                        assert set(given) <= set(fill) <= set(allowed), (p, sc, s, nu)
                        assert all(set(grp) & set(fill) for grp in groups), (p, sc, s, nu)
                    filled += 1
                    blank += not p_enc.obs.support(s)
        assert filled >= 300 and blank >= 100 and undeclared >= 20

    def test_fully_defined_row_keeps_its_weights(self):
        # dead lies outside V; its document row is the model's, in every mode
        p = parse_pomdp(SPLIT.replace("obs dead -> z0 1", "obs dead -> z0 1/4, z1 3/4"))
        for strict in (False, True):
            out = synthesize(p, 3, 1, strict=strict)
            text = format_result(out)
            assert "\nobs dead -> z0 1/4, z1 3/4\n" in text
            doc = parse_result(text, p)
            assert check_almost_sure(build_product(p, doc.completion, doc.policy)).ok
            assert contract_breaches(p, doc.completion, doc.policy, 3, 1,
                                     SideConstraints(strict=strict)) == []

    def test_strict_row_that_adds_nothing(self):
        # s1 gives z1 1/2 and bot 1/2; with no fresh symbol it adds none and
        # spreads its undefined mass over z1
        p = parse_pomdp(SPLIT + "obs s2 -> z0 1\n")
        out = synthesize(p, 3, 0, strict=True)
        assert out.verdict == "Realizable"
        assert "\nobs s1 -> z1 1\n" in format_result(out)
