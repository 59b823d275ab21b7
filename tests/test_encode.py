"""Encoding: variable allocation, clause families, Tseitin faithfulness."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import random_pomdp
from sensynth import sat
from sensynth.bench import gen_escape, gen_rocksample
from sensynth.encode import (Cnf, SideConstraints, VarMap, at_most_one, encode,
                             encode_action_selection, encode_memory_update,
                             encode_observation_fn, encode_path_predicate,
                             encode_reach_closure, encode_side_constraints, encode_symmetry,
                             mdp_prepass, parse_constraints, sensor_model)
from sensynth.model import BOT, ModelSemanticError, PartialObsFn, Pomdp, parse_pomdp
from test_acceptance import SPLIT

FIG1_VARIANT = """
states: cell0 cell1 cell2 win lose
actions: move-left move-right grab-treasure
observations: z0
initial: cell0
goal: win
delta cell0 move-left -> lose 1
delta cell0 move-right -> cell1 1
delta cell0 grab-treasure -> lose 1
delta cell1 move-left -> cell0 1
delta cell1 move-right -> cell2 1
delta cell1 grab-treasure -> lose 1
delta cell2 move-left -> cell1 1
delta cell2 move-right -> lose 1
delta cell2 grab-treasure -> win 1
delta win move-left -> win 1
delta win move-right -> win 1
delta win grab-treasure -> win 1
delta lose move-left -> lose 1
delta lose move-right -> lose 1
delta lose grab-treasure -> lose 1
"""

CHAIN = """
states: s0 g
actions: step
observations: z0
initial: s0
goal: g
delta s0 step -> g 1
delta g step -> g 1
obs s0 -> z0 1
"""


def chain_model():
    return parse_pomdp(CHAIN)


class TestAllocVars:
    def test_fig1_variant_count(self):
        # 2*3 + 4*2*3 + 5*2 + 5*2 + 5*2*11 = 160
        vm = VarMap(parse_pomdp(FIG1_VARIANT), 2, 1, 10)
        assert vm.n_semantic == 160

    def test_minimal_count(self):
        # 1 + 1 + 1 + 1 + 2 = 6
        one = parse_pomdp("states: g\nactions: a\nobservations: z\n"
                          "initial: g\ngoal: g\ndelta g a -> g 1\nobs g -> z 1")
        vm = VarMap(one, 1, 0, 1)
        assert vm.n_semantic == 6

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            VarMap(chain_model(), 1, 0, 0)

    def test_block_order(self):
        # A block, then M, O, C, P
        vm = VarMap(chain_model(), 2, 1, 3)
        assert vm.var_a(0, 0) == 1
        assert vm.var_m(0, 0, 0, 0) == vm.var_a(vm.mu - 1, vm.na - 1) + 1
        assert vm.var_o(0, 0) > vm.var_m(vm.mu - 1, vm.nzp - 1, vm.na - 1, vm.mu - 1)
        assert vm.var_c(0, 0) > vm.var_o(vm.ns - 1, vm.nzp - 1)
        assert vm.var_p(0, 0, 0) > vm.var_c(vm.ns - 1, vm.mu - 1)
        assert vm.var_p(vm.ns - 1, vm.mu - 1, vm.k) == vm.n_semantic

    def test_numbering_stable(self, tmp_path):
        p = chain_model()
        a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
        sat.write_dimacs(encode(p, 2, 1, 3)[0], a)
        sat.write_dimacs(encode(p, 2, 1, 3)[0], b)
        assert a.read_text() == b.read_text()


class TestActionAndMemoryFamilies:
    def test_action_selection_counts(self):
        vm = VarMap(parse_pomdp(FIG1_VARIANT), 2, 1, 2)
        out = encode_action_selection(vm)
        assert len(out) == 2
        assert all(len(c) == 3 for c in out)

    def test_action_selection_single(self):
        vm = VarMap(chain_model(), 1, 0, 1)
        out = encode_action_selection(vm)
        assert list(out) == [[vm.var_a(0, 0)]]

    def test_memory_update_counts(self):
        # mu * |Z'| * |A| = 2*2*3 = 12 clauses of width mu = 2
        vm = VarMap(parse_pomdp(FIG1_VARIANT), 2, 1, 2)
        out = encode_memory_update(vm)
        assert len(out) == 12
        assert all(len(c) == 2 for c in out)

    def test_memory_update_units_at_mu_one(self):
        vm = VarMap(chain_model(), 1, 0, 1)
        out = encode_memory_update(vm)
        assert list(out) == [[vm.var_m(0, 0, 0, 0)]]


def pinned(cnf, units):
    """A copy of cnf with a unit clause for each literal of units."""
    out = Cnf()
    for c in itertools.chain(cnf, ([l] for l in units)):
        out.add(c)
    return out.finalize(cnf.nvars)


def projections(cnf, lits):
    """Every valuation of lits, each with whether it extends to a model of cnf."""
    for bits in itertools.product((False, True), repeat=len(lits)):
        units = [l if b else -l for l, b in zip(lits, bits)]
        yield bits, sat.solve(pinned(cnf, units)).status == sat.SAT


class TestAtMostOne:
    def test_single_literal(self):
        assert len(at_most_one([5], Cnf())) == 0

    def test_three_literals_pairwise(self):
        out = at_most_one([3, 5, 7], Cnf())
        assert sorted(out) == [[-5, -7], [-3, -7], [-3, -5]]

    @pytest.mark.parametrize("n", [2, 4, 8, 10])
    def test_model_count_by_enumeration(self, n):
        lits = list(range(1, n + 1))
        assert sum(got for _, got in projections(at_most_one(lits, Cnf()).finalize(n), lits)) == n + 1


def semantic_ok(p, vm, sc, choice):
    """Reference decision: do these A/M/O choices admit an almost-sure
    bounded-path witness?  Mirrors the clause-family definitions directly."""
    A = {(m, a): choice[vm.var_a(m, a)] for m in range(vm.mu) for a in range(vm.na)}
    M = {(m, z, a, m2): choice[vm.var_m(m, z, a, m2)]
         for m in range(vm.mu) for z in range(vm.nzp)
         for a in range(vm.na) for m2 in range(vm.mu)}
    O = {(i, z): choice[vm.var_o(i, z)] for i in range(vm.ns) for z in range(vm.nzp)}

    if any(not any(A[m, a] for a in range(vm.na)) for m in range(vm.mu)):
        return False
    for m in range(vm.mu):
        for z in range(vm.nzp):
            for a in range(vm.na):
                if not any(M[m, z, a, m2] for m2 in range(vm.mu)):
                    return False
    n_obs = vm.nzp - vm.nu
    for i in range(vm.ns):
        given = set(p.obs.support(i))
        chosen = {z for z in range(vm.nzp) if O[i, z]}
        if not chosen or not given <= chosen:
            return False
        if p.obs.fully_defined(i) and chosen != given:
            return False
        if sc.strict and not p.obs.fully_defined(i):
            if any(z < n_obs and z not in given for z in chosen):
                return False
        if sc.deterministic and len(chosen) != 1:
            return False
    for j, j2 in sc.same:
        if any(O[j, z] != O[j2, z] for z in range(vm.nzp)):
            return False
    for j, j2 in sc.diff:
        if any(O[j, z] and O[j2, z] for z in range(vm.nzp)):
            return False
    for i, z, z2 in sc.implies:
        if O[i, z] and not O[i, z2]:
            return False

    succ = [[p.succ(i, a) for a in range(vm.na)] for i in range(vm.ns)]
    closure = {(p.initial, 0)}
    todo = [(p.initial, 0)]
    while todo:
        i, m = todo.pop()
        for a in range(vm.na):
            if not A[m, a]:
                continue
            for j in succ[i][a]:
                for z in range(vm.nzp):
                    if not O[j, z]:
                        continue
                    for m2 in range(vm.mu):
                        if M[m, z, a, m2] and (j, m2) not in closure:
                            closure.add((j, m2))
                            todo.append((j, m2))
    g = p.goal
    win = {(g, m) for m in range(vm.mu)}
    for _ in range(vm.k):
        step = set(win)
        for i in range(vm.ns):
            if i == g:
                continue
            for m in range(vm.mu):
                hit = any(
                    A[m, a] and any(
                        O[i2, z] and M[m, z, a, m2] and (i2, m2) in win
                        for i2 in succ[i][a] for z in range(vm.nzp)
                        for m2 in range(vm.mu))
                    for a in range(vm.na))
                if hit:
                    step.add((i, m))
        win = step
    return closure <= win


def symmetry_free(p, vm, sc=SideConstraints()):
    """encode()'s families except symmetry breaking, which prunes models by
    design, over vm's region."""
    out = Cnf()
    encode_action_selection(vm, out)
    encode_memory_update(vm, out)
    encode_observation_fn(p, vm, sc, out)
    encode_reach_closure(p, vm, out)
    encode_path_predicate(p, vm, out)
    encode_side_constraints(sc, vm, out)
    return out.finalize(vm.nvars)


def choices_match_formula(p, mu, nu, k, sc):
    """Enumerate all A/M/O assignments; the pinned formula must be satisfiable
    exactly when the reference decision accepts."""
    vm = VarMap(p, mu, nu, k, mdp_prepass(p))
    cnf = symmetry_free(p, vm, sc)
    vars_ = ([vm.var_a(m, a) for m in range(mu) for a in range(vm.na)]
             + [vm.var_m(m, z, a, m2) for m in range(mu) for z in range(vm.nzp)
                for a in range(vm.na) for m2 in range(mu)]
             + [vm.var_o(i, z) for i in range(vm.ns) for z in range(vm.nzp)])
    for bits in itertools.product((False, True), repeat=len(vars_)):
        choice = dict(zip(vars_, bits))
        got = sat.solve(pinned(cnf, [v if b else -v for v, b in choice.items()])).status == sat.SAT
        assert got == semantic_ok(p, vm, sc, choice), (choice, got)


PARTIAL = """
states: s0 s1 g
actions: step
observations: z0
initial: s0
goal: g
delta s0 step -> s1 1
delta s1 step -> g 1
delta g step -> g 1
obs s0 -> z0 1
obs s1 -> z0 1/2, bot 1/2
"""


# s0 can step to the goal or into an absorbing sink the MDP cannot leave
SINK = """
states: s0 sink g
actions: go fall
observations: z0
initial: s0
goal: g
delta s0 go -> g 1
delta s0 fall -> sink 1
delta sink go -> sink 1
delta sink fall -> sink 1
delta g go -> g 1
delta g fall -> g 1
"""


# s0 reaches the goal in one risky step or two safe ones; risky may fall
# into the sink, so P unrolls only the safe actions
RISKY = """
states: s0 s1 sink g
actions: risky safe
observations: z0
initial: s0
goal: g
delta s0 risky -> g 1/2, sink 1/2
delta s0 safe -> s1 1
delta s1 risky -> sink 1
delta s1 safe -> g 1
delta sink risky -> sink 1
delta sink safe -> sink 1
delta g risky -> g 1
delta g safe -> g 1
"""


class TestTseitinProjection:
    def test_state_outside_winning_region(self):
        # sink lies outside the region: it has no C or P variable
        choices_match_formula(parse_pomdp(SINK), 1, 0, 2, SideConstraints())

    def test_risky_action_not_unrolled(self):
        choices_match_formula(parse_pomdp(RISKY), 1, 0, 2, SideConstraints())

    def test_risky_action_forbidden_by_closure(self):
        # risky may fall into the sink: the closure forbids it at every
        # reached pair of s0 and never names the sink
        p = parse_pomdp(RISKY)
        s0, sink, risky = p.states.index("s0"), p.states.index("sink"), p.actions.index("risky")
        vm = VarMap(p, 2, 1, 4, mdp_prepass(p))
        closure = list(encode_reach_closure(p, vm))
        for m in range(2):
            assert [-vm.var_c(s0, m), -vm.var_a(m, risky)] in closure
        sink_o = {vm.var_o(sink, z) for z in range(vm.nzp)}
        assert not any(sink_o & set(map(abs, c)) for c in closure)

    def test_chain_permissive(self):
        choices_match_formula(chain_model(), 1, 0, 2, SideConstraints())

    def test_partial_strict_with_fresh(self):
        p = parse_pomdp(PARTIAL)
        choices_match_formula(p, 1, 1, 3, SideConstraints(strict=True))

    def test_partial_deterministic(self):
        p = parse_pomdp(PARTIAL)
        choices_match_formula(p, 1, 1, 3, SideConstraints(deterministic=True))

    def test_side_constraints(self):
        text = PARTIAL.replace("observations: z0", "observations: z0 z1")
        p = parse_pomdp(text)
        sc = SideConstraints(same=((0, 1),), implies=((1, 1, 0),))
        choices_match_formula(p, 1, 0, 2, sc)

    def test_diff_leaves_symbols_unused(self):
        # three symbols for two states: some symbol is at neither, which diff allows
        p = parse_pomdp("states: s0 g\nactions: a\nobservations: z0\ninitial: s0\n"
                        "goal: g\ndelta s0 a -> g 1\ndelta g a -> g 1\n")
        choices_match_formula(p, 1, 2, 2, SideConstraints(diff=((0, 1),)))

    def test_two_memory(self):
        choices_match_formula(chain_model(), 2, 0, 2, SideConstraints())


class TestObservationFamily:
    def test_all_bot_state_with_fresh(self):
        # coverage clause of width nu only, no units
        p = parse_pomdp(CHAIN.replace("obs s0 -> z0 1\n", "")
                        .replace("observations: z0", "observations:"))
        vm = VarMap(p, 1, 2, 1)
        out = encode_observation_fn(p, vm, SideConstraints())
        assert sorted(len(c) for c in out) == [2, 2]

    def test_fully_defined_pins_support(self):
        # s0 sees exactly z0: unit O(s0,z0) plus negatives on z1 and the fresh
        text = CHAIN.replace("observations: z0", "observations: z0 z1")
        p = parse_pomdp(text)
        vm = VarMap(p, 1, 1, 1)
        out = encode_observation_fn(p, vm, SideConstraints())
        s0 = [c for c in out if len(c) == 1 and abs(c[0]) in
              {vm.var_o(0, z) for z in range(3)}]
        assert sorted(s0) == sorted([[vm.var_o(0, 0)], [-vm.var_o(0, 1)],
                                     [-vm.var_o(0, 2)]])

    def test_strict_restricts_coverage(self):
        p = parse_pomdp(PARTIAL)
        vm = VarMap(p, 1, 1, 1)
        out = encode_observation_fn(p, vm, SideConstraints(strict=True))
        s1 = {vm.var_o(1, 0), vm.var_o(1, 1)}
        # s1 gives z0: no coverage clause, and the fresh symbol stays free
        assert [c for c in out if s1 & set(map(abs, c))] == [[vm.var_o(1, 0)]]
        # an all-bot row is covered by the fresh symbol alone
        p = parse_pomdp(PARTIAL.replace("obs s1 -> z0 1/2, bot 1/2\n", ""))
        out = encode_observation_fn(p, vm, SideConstraints(strict=True))
        assert [c for c in out if s1 & set(map(abs, c))] == [[vm.var_o(1, 1)], [-vm.var_o(1, 0)]]

    def test_deterministic_adds_at_most_one(self):
        p = parse_pomdp(PARTIAL)
        vm = VarMap(p, 1, 1, 1)
        base = len(encode_observation_fn(p, vm, SideConstraints()))
        det = len(encode_observation_fn(p, VarMap(p, 1, 1, 1),
                                        SideConstraints(deterministic=True)))
        # pairwise over the allowed symbols at |Z'| = 2: one clause for each
        # of s1 and g; s0 has no bot mass and allows z0 alone
        assert det == base + 2

    def test_deterministic_sensor_pairs_base_symbols_only(self):
        # s0 sees z0 only: its 3 pairs; the goal has no base symbol and
        # allows all 6 pairs in one group
        p = parse_pomdp(PARTIAL.replace("observations: z0", "observations: z0 z1"))
        p2, sc2 = sensor_model(p, parse_constraints("sensor C v0 v1 v2", p))
        vm = VarMap(p2, 1, 0, 1)
        out = encode_observation_fn(p2, vm, replace(sc2, deterministic=True))

        def pairs(s):
            return {frozenset(c) for c in out if len(c) == 2 and all(
                l < 0 and -l in {vm.var_o(s, z) for z in range(6)} for l in c)}

        assert pairs(0) == {frozenset((-vm.var_o(0, z), -vm.var_o(0, y)))
                            for z in range(3) for y in range(z)}
        assert len(pairs(p.goal)) == 15
        assert [vm.var_o(p.goal, z) for z in range(6)] in list(out)

    def test_empty_alphabet_contradiction(self):
        p = parse_pomdp(CHAIN.replace("obs s0 -> z0 1\n", "")
                        .replace("observations: z0", "observations:"))
        cnf, vm = encode(p, 1, 0, 1)
        assert sat.solve(cnf).status == sat.UNSAT


class TestSymmetryFamily:
    """encode_symmetry alone, projected on the literals it orders: exactly
    the canonical assignments extend to a model."""

    @pytest.mark.parametrize("na", [2, 3])
    def test_rows_lexicographically_nonincreasing(self, na):
        acts = " ".join(f"a{i}" for i in range(na))
        p = parse_pomdp(f"states: g\nactions: {acts}\nobservations: z\ninitial: g\ngoal: g\n"
                        + "".join(f"delta g a{i} -> g 1\n" for i in range(na)))
        vm = VarMap(p, 4, 0, 1)
        cnf = encode_symmetry(p, vm).finalize(vm.nvars)
        lits = [vm.var_a(m, a) for m in range(4) for a in range(na)]
        for bits, got in projections(cnf, lits):
            rows = [bits[m * na:(m + 1) * na] for m in range(4)]
            assert got == (rows[1] >= rows[2] >= rows[3]), rows  # m0 is not ordered

    def test_fresh_first_uses_strictly_ordered(self):
        p = parse_pomdp("states: s0 s1 g\nactions: a\nobservations: z\ninitial: s0\ngoal: g\n"
                        "delta s0 a -> s1 1\ndelta s1 a -> g 1\ndelta g a -> g 1\n")
        vm = VarMap(p, 1, 3, 1)
        cnf = encode_symmetry(p, vm).finalize(vm.nvars)
        lits = [vm.var_o(s, 1 + t) for s in range(3) for t in range(3)]
        for bits, got in projections(cnf, lits):
            first = [min((s for s in range(3) if bits[s * 3 + t]), default=None) for t in range(3)]
            want = all(first[t] is None or (first[t - 1] is not None and first[t - 1] < first[t])
                       for t in (1, 2))
            assert got == want, first

    def test_one_auxiliary_per_link(self, fig1):
        # nu - 1 precedence chains of |S| - 1 literals, and |A| - 1 prefix
        # literals per pair of rows m1..
        vm = VarMap(fig1, 4, 3, 1)
        encode_symmetry(fig1, vm)
        assert vm.n_aux == 2 * (fig1.n_states - 1) + 2 * (fig1.n_actions - 1)


class TestReachClosure:
    def test_unit_anchor(self):
        p = chain_model()
        vm = VarMap(p, 1, 0, 1)
        out = encode_reach_closure(p, vm)
        assert [vm.var_c(p.initial, 0)] in list(out)

    def test_count_with_self_loop_skip(self):
        # fig1 variant, mu=2 nu=1: 15 transitions, 6 of them self-loops.
        # full count 15*2*4 = 120 minus 6*2*2 tautologies = 96, plus the anchor
        p = parse_pomdp(FIG1_VARIANT)
        vm = VarMap(p, 2, 1, 2)
        out = encode_reach_closure(p, vm)
        assert len(out) == 97

    def test_propagation_width(self):
        p = chain_model()
        vm = VarMap(p, 2, 0, 2)
        out = encode_reach_closure(p, vm)
        widths = sorted(len(c) for c in out)
        assert widths[0] == 1 and set(widths[1:]) == {5}


class TestPathPredicate:
    def test_goal_only_units(self):
        one = parse_pomdp("states: g\nactions: a\nobservations: z\n"
                          "initial: g\ngoal: g\ndelta g a -> g 1\nobs g -> z 1")
        vm = VarMap(one, 1, 0, 1)
        out = encode_path_predicate(one, vm)
        # P(g,m0,0), P(g,m0,1), and the C linkage; nothing else
        assert sorted(list(out)) == sorted(
            [[vm.var_p(0, 0, 0)], [vm.var_p(0, 0, 1)],
             [-vm.var_c(0, 0), vm.var_p(0, 0, 1)]])

    def test_chain_forced_by_propagation(self):
        p = chain_model()
        cnf, vm = encode(p, 1, 0, 1)
        res = sat.solve(cnf)
        assert res.status == sat.SAT
        assert res.assignment[vm.var_p(0, 0, 1)] is True

    def test_forced_false_without_alphabet(self):
        p = parse_pomdp(CHAIN.replace("obs s0 -> z0 1\n", "")
                        .replace("observations: z0", "observations:"))
        vm = VarMap(p, 1, 0, 2)
        out = encode_path_predicate(p, vm)
        assert [-vm.var_p(0, 0, 1)] in list(out)
        assert [-vm.var_p(0, 0, 2)] in list(out)

    @pytest.mark.parametrize("name", ["fig1", "det_hallway"])
    def test_edge_choice_shared_across_layers(self, name, request):
        # the observation and memory-update choice of a product edge is
        # encoded once, not once per layer: the P clauses over O and M do not
        # grow with k
        p = request.getfixturevalue(name)
        mu, nu = 2, 1

        def choice_clauses(k):
            vm = VarMap(p, mu, nu, k)
            lo, hi = vm.var_m(0, 0, 0, 0), vm.var_o(vm.ns - 1, vm.nzp - 1)  # the M and O blocks
            return sum(any(lo <= abs(l) <= hi for l in c) for c in encode_path_predicate(p, vm))

        assert choice_clauses(2) == choice_clauses(p.n_states * mu) > 0

    @staticmethod
    def product_steps(p, vm, val):
        """Length of a shortest product path to the goal from each pair under
        the assignment's own A/O/M choices, through safe actions (successors
        all in vm.region) only; unreachable pairs are absent."""
        pred = {(s, m): [] for s in range(vm.ns) for m in range(vm.mu)}
        for s, m in pred:
            for a in range(vm.na):
                if not val[vm.var_a(m, a)] or not vm.region.issuperset(p.succ(s, a)):
                    continue
                for s2 in p.succ(s, a):
                    for z in range(vm.nzp):
                        for m2 in range(vm.mu):
                            if val[vm.var_o(s2, z)] and val[vm.var_m(m, z, a, m2)]:
                                pred[s2, m2].append((s, m))
        steps = {(p.goal, m): 0 for m in range(vm.mu)}
        todo = list(steps)
        for x in todo:  # breadth-first from the goal along reversed edges
            for n in pred[x]:
                if n not in steps:
                    steps[n] = steps[x] + 1
                    todo.append(n)
        return steps

    def test_true_p_has_short_path(self):
        # P is defined in one direction only, and that direction must hold in
        # every model the solver returns: a true P(s,m,j) has a product path
        # of at most j steps to the goal under the model's own A/O/M choices
        rng = random.Random(8)
        checked = 0
        for _ in range(40):
            p = random_pomdp(rng)
            mu, nu = rng.randint(1, 2), rng.randint(0, 1)
            for k in sorted({1, 2, p.n_states * mu}):
                cnf, vm = encode(p, mu, nu, k)  # P over the region
                res = sat.solve(cnf)
                if res.status != sat.SAT:
                    continue
                val = res.assignment
                steps = self.product_steps(p, vm, val)
                for s, m, j in itertools.product(sorted(vm.region), range(mu), range(k + 1)):
                    if val[vm.var_p(s, m, j)]:
                        assert steps.get((s, m), k + 1) <= j, (p, mu, nu, k, s, m, j)
                        checked += 1
        assert checked

    def test_forced_p_iff_short_path(self):
        # under arbitrary fixed A/O/M values, P(s,m,j) can be made true exactly
        # when those values give a product path of at most j steps through
        # safe actions: the solver may not justify it by a free edge
        # auxiliary
        rng = random.Random(8)
        checked = 0
        for _ in range(20):
            p = random_pomdp(rng)
            mu, nu = rng.randint(1, 3), rng.randint(0, 2)
            k = p.n_states * mu
            region = mdp_prepass(p)
            vm = VarMap(p, mu, nu, k, region)
            cnf = encode_path_predicate(p, vm).finalize(vm.nvars)
            for _ in range(4):
                val = [False] + [rng.random() < 0.5 for _ in range(vm.nvars)]
                steps = self.product_steps(p, vm, val)
                n_amo = vm.var_o(0, 0) + vm.ns * vm.nzp  # the A, M, O blocks
                fixed = [v if val[v] else -v for v in range(1, n_amo)]
                for s, m, j in itertools.product(sorted(region), range(mu), range(k + 1)):
                    res = sat.solve(pinned(cnf, fixed + [vm.var_p(s, m, j)]))
                    assert (res.status == sat.SAT) == (steps.get((s, m), k + 1) <= j), (p, mu, nu, s, m, j)
                    checked += 1
        assert checked


def reference_prepass(p):
    """The region by the textbook fixpoint: recompute the actions safe for
    the current set, keep the states with a goal path through them, repeat;
    then close the initial state under the safe actions."""
    na = p.n_actions
    win = set(range(p.n_states))
    while True:
        safe = {(s, a) for s in win for a in range(na) if set(p.succ(s, a)) <= win}
        reach = {p.goal}
        while True:
            more = {s for s, a in safe if reach & set(p.succ(s, a))} - reach
            if not more:
                break
            reach |= more
        if reach == win:
            break
        win = reach
    region = {p.initial} & win
    while True:
        more = {t for s, a in safe if s in region for t in p.succ(s, a)} - region
        if not more:
            return frozenset(region)
        region |= more


class TestMdpPrepass:
    def test_split(self):
        p = parse_pomdp(SPLIT)
        region = mdp_prepass(p)
        idx = p.states.index
        assert region == {idx("i"), idx("s1"), idx("s2"), idx("g")}

    def test_fig1(self, fig1):
        region = mdp_prepass(fig1)
        assert {fig1.states[s] for s in region} == {"cell0", "cell1", "cell2", "win"}

    def test_one_risky_action_is_enough_to_lose(self):
        # s0 reaches the goal only through a coin flip into the sink
        p = parse_pomdp(SINK.replace("delta s0 go -> g 1", "delta s0 go -> g 1/2, sink 1/2")
                        .replace("delta s0 fall -> sink 1", "delta s0 fall -> s0 1"))
        region = mdp_prepass(p)
        assert p.initial not in region and region == frozenset()
        assert list(encode_reach_closure(p, VarMap(p, 1, 0, 1, region))) == [[]]

    def test_bench_models_match_the_reference_fixpoint(self, fig1, det_hallway):
        for p in fig1, det_hallway, gen_escape(3), gen_escape(8), gen_rocksample(1):
            assert mdp_prepass(p) == reference_prepass(p)

    @pytest.mark.parametrize("max_states, max_actions", [(3, 1), (4, 2), (6, 3), (9, 4)])
    def test_random_models_match_the_reference_fixpoint(self, max_states, max_actions):
        rng = random.Random(21 + max_states)
        kinds = set()
        for _ in range(200):
            p = random_pomdp(rng, max_states, max_actions)
            region = mdp_prepass(p)
            assert type(region) is frozenset and region == reference_prepass(p), p
            kinds.add("empty" if not region else "all" if len(region) == p.n_states else "some")
        assert kinds == {"empty", "some", "all"}

    def test_encode_fixes_closure_outside_win(self, fig1):
        # 'lose' is outside the region: it has no C, P or O variable (its
        # row is a fill), no closure clause names its row, and each action
        # that may enter it is forbidden at every reached pair by one clause
        # -C | -A per memory element
        mu = 2
        _, vm = encode(fig1, mu, 1, 6)
        lose = fig1.states.index("lose")
        assert lose not in vm.region and vm.region == mdp_prepass(fig1)
        assert vm.observed == tuple(sorted(vm.region)) and vm.fills == {lose: (0,)}
        names = [vm.var_name(v) for v in range(1, vm.n_semantic + 1)]
        assert not any("lose" in n for n in names)
        assert len([n for n in names if n[0] == "C"]) == mu * len(vm.region)
        with pytest.raises(TypeError):
            vm.var_o(lose, 0)
        full = VarMap(fig1, mu, 1, 6, vm.region)  # O over every state
        closure = list(encode_reach_closure(fig1, full))
        lose_o = {full.var_o(lose, z) for z in range(full.nzp)}
        assert not any(lose_o & set(map(abs, c)) for c in closure)
        unsafe = [(i, a) for i in sorted(vm.region) for a in range(vm.na)
                  if not vm.region.issuperset(fig1.succ(i, a))]
        assert unsafe
        for i, a in unsafe:
            for m in range(mu):
                forbid = [-full.var_c(i, m), -full.var_a(m, a)]
                assert closure.count(forbid) == 1
                assert not any(len(c) > 2 and set(forbid) <= set(c) for c in closure)

    def test_pruned_path_family_is_smaller(self, fig1):
        # P over the region names no state outside it and unrolls no action
        # that may leave it
        full = encode_path_predicate(fig1, VarMap(fig1, 2, 1, 6))
        vm = VarMap(fig1, 2, 1, 6, mdp_prepass(fig1))
        pruned = encode_path_predicate(fig1, vm)
        assert len(pruned) < len(full)
        lose = {vm.var_o(fig1.states.index("lose"), z) for z in range(vm.nzp)}
        assert any(lose & set(map(abs, c)) for c in full)
        assert not any(lose & set(map(abs, c)) for c in pruned)

    def test_same_verdicts_as_unpruned(self):
        rng = random.Random(14)
        for _ in range(30):
            p = random_pomdp(rng)
            mu, nu = rng.randint(1, 2), rng.randint(0, 1)
            k = p.n_states * mu
            plain = symmetry_free(p, VarMap(p, mu, nu, k))
            pruned = symmetry_free(p, VarMap(p, mu, nu, k, mdp_prepass(p)))
            assert sat.solve(plain).status == sat.solve(pruned).status, (p, mu, nu)


class TestSideConstraintFamily:
    def test_same_pair_counts(self):
        # one pair, |Z'|=2: O(j,z) <-> O(j',z) is 2 clauses per z
        p = parse_pomdp(PARTIAL)
        vm = VarMap(p, 1, 1, 1)
        out = encode_side_constraints(SideConstraints(same=((0, 1),)), vm)
        assert len(out) == 4

    def test_diff_pair_counts(self):
        p = parse_pomdp(PARTIAL)
        vm = VarMap(p, 1, 1, 1)
        out = encode_side_constraints(SideConstraints(diff=((0, 1),)), vm)
        assert len(out) == 2  # -O(j,z) | -O(j',z) per z

    def test_implies_single_clause(self):
        p = parse_pomdp(PARTIAL)
        vm = VarMap(p, 1, 1, 1)
        out = encode_side_constraints(SideConstraints(implies=((1, 0, 1),)), vm)
        assert list(out) == [[-vm.var_o(1, 0), vm.var_o(1, 1)]]

    def test_parse_constraints(self):
        text = PARTIAL.replace("observations: z0", "observations: z0 z1")
        p = parse_pomdp(text)
        sc = parse_constraints("# comment\nsame s0 s1\ndiff s0 g\nimplies s1 z0 z1\n", p)
        assert sc.same == ((0, 1),) and sc.diff == ((0, 2),)
        assert sc.implies == ((1, 0, 1),)
        with pytest.raises(Exception):
            parse_constraints("same s0 nope", p)
        with pytest.raises(Exception):
            parse_constraints("implies s1 z0 z0", p)

    @pytest.mark.parametrize("text, message", [
        ("same s0 s0", "s0: same pair needs two distinct states (line 1)"),
        ("diff g g", "g: diff pair needs two distinct states (line 1)"),
        ("sensor C on off\nsensor D a b", "D: second sensor line (line 2)"),
        ("sensor C on off on", "C: duplicate sensor value (line 1)"),
        ("unknown s0 s1", "constraints: unrecognized line 1: 'unknown s0 s1'"),
    ], ids=["same-one-state", "diff-one-state", "second-sensor", "repeated-value",
            "unrecognized"])
    def test_parse_constraints_rejects(self, text, message):
        p = parse_pomdp(PARTIAL.replace("observations: z0", "observations: z0 z1"))
        with pytest.raises(ModelSemanticError) as exc:
            parse_constraints(text, p)
        assert str(exc.value) == message

    def test_sensor_names_follow_the_name_rule(self):
        # the pairs z:c become observation names of the result document, so
        # the sensor and its values must be names of the model format
        p = parse_pomdp(PARTIAL)
        for line in ("sensor C a,b c", "sensor C= on off", "sensor C on o:ff"):
            with pytest.raises(ModelSemanticError, match=r"bad sensor name or value \(line 2\)$"):
                parse_constraints("# a sensor\n" + line + "\n", p)
        sc = parse_constraints("sensor C.1 on-1 off_2+", p)
        assert (sc.sensor_name, sc.sensor_values) == ("C.1", ("on-1", "off_2+"))

    def test_sensor_mode_counts(self):
        # |Z|=2 base, 2 sensor values, state with base support {z0}:
        # one width-2 coverage clause + 2 negative units
        text = PARTIAL.replace("observations: z0", "observations: z0 z1")
        text += "obs g -> z1 1\n"  # sensor mode needs a symbol in every state
        p = parse_pomdp(text)
        sc = parse_constraints("sensor C on off", p)
        p2, sc2 = sensor_model(p, sc)
        assert p2.observations == ("z0:on", "z0:off", "z1:on", "z1:off")
        vm = VarMap(p2, 1, 0, 1)
        out = encode_observation_fn(p2, vm, sc2)
        s0 = [c for c in out if {abs(l) for l in c} <=
              {vm.var_o(0, z) for z in range(4)}]
        assert sorted(len(c) for c in s0) == [1, 1, 2]


class TestEncodeWhole:
    def test_fig1_verdicts(self, fig1):
        bound = fig1.n_states * 2
        assert sat.solve(encode(fig1, 2, 1, bound)[0]).status == sat.UNSAT
        assert sat.solve(encode(fig1, 3, 1, fig1.n_states * 3)[0]).status == sat.SAT

    def test_initial_is_goal_trivial(self):
        one = parse_pomdp("states: g s\nactions: a\nobservations: z\n"
                          "initial: g\ngoal: g\ndelta g a -> g 1\n"
                          "delta s a -> g 1\nobs g -> z 1\nobs s -> bot 1")
        assert sat.solve(encode(one, 1, 0, 1)[0]).status == sat.SAT

    def test_every_semantic_var_constrained(self):
        rng = random.Random(3)
        cases = [(chain_model(), 1, 0, 1, SideConstraints()),
                 (parse_pomdp(PARTIAL), 2, 1, 3, SideConstraints(strict=True)),
                 (parse_pomdp(FIG1_VARIANT), 2, 2, 4, SideConstraints(deterministic=True))]
        for _ in range(5):
            cases.append((random_pomdp(rng), rng.randint(1, 2),
                          rng.randint(0, 2), rng.randint(1, 4), SideConstraints()))
        for p, mu, nu, k, sc in cases:
            cnf, vm = encode(p, mu, nu, k, sc=sc)
            seen = set()
            for c in cnf:
                for l in c:
                    seen.add(abs(l))
            assert set(range(1, vm.n_semantic + 1)) <= seen
            assert max(seen) <= vm.nvars

    def test_monotone_in_k(self):
        rng = random.Random(11)
        for _ in range(30):
            p = random_pomdp(rng)
            mu, nu = rng.randint(1, 2), rng.randint(0, 1)
            prev = False
            for k in range(1, p.n_states * mu + 1):
                now = sat.solve(encode(p, mu, nu, k)[0]).status == sat.SAT
                assert not (prev and not now), (p, mu, nu, k)
                prev = now

    def test_monotone_in_mu_nu(self):
        rng = random.Random(12)
        for _ in range(20):
            p = random_pomdp(rng)
            sats = {}
            for mu in (1, 2):
                for nu in (0, 1):
                    k = p.n_states * mu
                    sats[mu, nu] = sat.solve(encode(p, mu, nu, k)[0]).status == sat.SAT
            assert sats[1, 0] <= sats[2, 0] <= sats[2, 1]
            assert sats[1, 0] <= sats[1, 1] <= sats[2, 1]

    def test_symmetry_breaking_preserves_verdict(self):
        rng = random.Random(13)
        for _ in range(25):
            p = random_pomdp(rng)
            mu, nu = rng.randint(1, 3), rng.randint(0, 2)
            k = rng.randint(1, p.n_states * mu)
            a = sat.solve(encode(p, mu, nu, k)[0]).status
            b = sat.solve(symmetry_free(p, VarMap(p, mu, nu, k, mdp_prepass(p)))).status
            assert a == b
