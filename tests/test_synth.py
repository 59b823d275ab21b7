"""Synthesis pipeline: decode, verdict logic, documents, sweeps."""

import os
import random
import re
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import external_solver, random_pomdp
from sensynth import sat, synth
from sensynth.bench import GridSpec, gen_escape, gen_hallway, gen_rocksample
from sensynth.encode import SideConstraints, VarMap, encode, mdp_prepass, parse_constraints
from sensynth.model import ModelSemanticError, parse_pomdp, print_pomdp
from sensynth.sat import Budget, ExternalSolverError
from sensynth.synth import (EncoderFault, ResultParseError, decode_completion,
                            decode_policy, format_frontier_csv, format_result,
                            parse_result, prepare, sweep, synthesize)
from sensynth.verify import brute_force_decide, build_product, check_almost_sure

SPLIT = """
states: i s1 s2 g dead
actions: l r
observations: z0 z1
initial: i
goal: g
delta i l -> s1 1/2, s2 1/2
delta i r -> s1 1/2, s2 1/2
delta s1 l -> g 1
delta s1 r -> dead 1
delta s2 l -> dead 1
delta s2 r -> g 1
delta g l -> g 1
delta g r -> g 1
delta dead l -> dead 1
delta dead r -> dead 1
obs i -> z0 1
obs s1 -> z1 1/2, bot 1/2
obs g -> z0 1
obs dead -> z0 1
"""


class TestSynthesizeFig1:
    def test_verdicts(self, fig1):
        assert synthesize(fig1, 3, 1).verdict == "Realizable"
        assert synthesize(fig1, 2, 2).verdict == "Realizable"
        out = synthesize(fig1, 2, 1)
        assert out.verdict == "Unrealizable"
        assert out.k is None  # an outcome carries no path bound

    def test_realizable_payload(self, fig1):
        out = synthesize(fig1, 3, 1)
        assert out.completion.n_new <= 1
        assert out.certificate.ok
        assert out.stats.vars > 0 and out.stats.clauses > 0
        assert check_almost_sure(build_product(out.model, out.completion,
                                               out.policy)).ok

    def test_blind_policy_counts_steps(self, fig1):
        # one shared fresh symbol carries no information, so the policy
        # must track position in memory and all three states get used
        out = synthesize(fig1, 3, 1)
        assert out.completion.n_new == 1
        assert {out.completion.support(s) for s in range(fig1.n_states)} == {(0,)}
        prod = build_product(fig1, out.completion, out.policy)
        cert = check_almost_sure(prod)
        assert cert.ok
        lose = fig1.states.index("lose")
        assert all(prod.pair(v)[0] != lose for v in cert.reachable)
        assert {prod.pair(v)[1] for v in cert.reachable} == {0, 1, 2}

    def test_unsat_is_unrealizable_at_every_k(self, fig1):
        # the rounds are complete, so a k passed to synthesize is ignored
        for k in (1, 2, 6, 99):
            out = synthesize(fig1, 2, 1, k=k)
            assert (out.verdict, out.k) == ("Unrealizable", None), k

    def test_sweep_takes_no_k(self, fig1):
        with pytest.raises(TypeError):
            sweep(fig1, [2], [1], k=6)
        # the fourth positional slot is the deterministic flag
        assert [r.verdict for r in sweep(fig1, [2, 3], [1], True)] == \
            [r.verdict for r in sweep(fig1, [2, 3], [1], deterministic=True)]

    def test_budget_unknown(self, det_hallway):
        out = synthesize(det_hallway, 3, 2, budget=Budget(max_conflicts=2))
        assert out.verdict == "Unknown"
        assert "budget" in out.reason

    def test_zero_conflict_budget(self, fig1):
        # no cell counts more conflicts than its budget
        zero = Budget(max_conflicts=0)
        out = synthesize(fig1, 3, 1, budget=zero)
        assert (out.verdict, out.stats.conflicts) == ("Unknown", 0)
        assert synthesize(fig1, 2, 2, budget=zero).verdict == "Realizable"  # no conflict
        rows = sweep(fig1, range(1, 4), range(0, 3), budget=zero)
        assert {r.stats.conflicts for r in rows} == {None, 0}


class TestPrepass:
    def test_refuted_without_formula(self):
        out = synthesize(gen_rocksample(1), 1, 1)
        assert out.verdict == "Unrealizable"
        assert out.stats.vars == 0 and out.stats.clauses == 0

    def test_oracle_agreement_at_new_bound(self):
        rng = random.Random(31)
        outside = 0
        for _ in range(100):
            p = random_pomdp(rng)
            outside += p.initial not in mdp_prepass(p)
            for mu in (1, 2):
                for nu in (0, 1):
                    out = synthesize(p, mu, nu, deterministic=True)
                    want = brute_force_decide(p, mu, nu, deterministic=True)
                    assert out.verdict == ("Realizable" if want else "Unrealizable"), \
                        (p, mu, nu)
        assert outside >= 10  # the refutation path is exercised too

    def test_escape_region_is_the_corners(self):
        # the robot slides to the walls, so only corner cells are visited
        p = gen_escape(3)
        region = mdp_prepass(p)
        corners = {f"r{x}_{y}" for x in (0, 2) for y in (0, 2)}
        assert {p.states[s].rsplit("_", 1)[0] for s in region - {p.goal}} <= corners
        assert len(region) < p.n_states // 2
        assert synthesize(p, 1, 2).verdict == "Unrealizable"

    def test_oracle_agreement_where_region_is_smaller(self):
        # models with winning states that no safe path from the initial state
        # visits: the verdict matches the oracle
        rng = random.Random(33)
        models, seen = 0, set()
        while models < 40:
            p = random_pomdp(rng)
            region = mdp_prepass(p)
            win = {s for s in range(p.n_states)
                   if s in mdp_prepass(replace(p, initial=s))}
            if not region or region == win:
                continue
            assert region < win
            models += 1
            mu, nu = rng.randint(1, 2), rng.randint(0, 1)
            want = brute_force_decide(p, mu, nu, deterministic=True)
            got = synthesize(p, mu, nu, deterministic=True).verdict
            assert got == ("Realizable" if want else "Unrealizable"), (p, mu, nu)
            seen.add(got)
        assert seen == {"Realizable", "Unrealizable"}

    def test_random_models_are_decided(self):
        # no budget, so the complete rounds never answer Unknown
        rng = random.Random(32)
        for _ in range(25):
            p = random_pomdp(rng)
            mu, nu = rng.randint(1, 2), rng.randint(0, 1)
            assert synthesize(p, mu, nu).verdict != "Unknown", (p, mu, nu)


class TestDecode:
    def _vm(self):
        p = parse_pomdp("""
states: s0 s1 g
actions: a
observations: z0
initial: s0
goal: g
delta s0 a -> s1 1
delta s1 a -> g 1
delta g a -> g 1
obs s1 -> z0 1/3, bot 2/3
""")
        return p, VarMap(p, 1, 2, 1)

    def _blank(self, vm):
        return [False] * (vm.nvars + 1)

    def test_permissive_uniform_weights(self):
        # a blank row spreads its mass evenly over the symbols it takes
        p, vm = self._vm()
        a = self._blank(vm)
        for s in range(3):
            a[vm.var_o(s, 0)] = True
        a[vm.var_o(0, 1)] = True  # s0 additionally takes the first fresh symbol
        comp = decode_completion(a, vm, p)
        assert comp.rows[0] == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
        assert comp.rows[2] == ((0, Fraction(1)),)
        assert comp.n_new == 1

    def test_strict_weights_preserved(self):
        p, vm = self._vm()
        a = self._blank(vm)
        for s in range(3):
            a[vm.var_o(s, 0)] = True
        a[vm.var_o(1, 1)] = True
        comp = decode_completion(a, vm, p)
        # in every mode the given z0 mass 1/3 stays, and the 2/3 undefined
        # mass moves to the added symbol
        assert comp.rows[1] == ((0, Fraction(1, 3)), (1, Fraction(2, 3)))

    def test_strict_no_fresh_spreads_over_support(self):
        p, vm = self._vm()
        a = self._blank(vm)
        for s in range(3):
            a[vm.var_o(s, 0)] = True
        comp = decode_completion(a, vm, p)  # a row that adds nothing, in every mode
        assert comp.rows[1] == ((0, Fraction(1)),)

    def test_fresh_out_of_first_use_order_faults(self):
        # value precedence numbers the fresh symbols by first use, so an
        # assignment that breaks it is a fault, not something to renumber
        p, vm = self._vm()
        a = self._blank(vm)
        a[vm.var_a(0, 0)] = True
        for z in range(3):
            a[vm.var_m(0, z, 0, 0)] = True
        a[vm.var_o(0, 2)] = True   # s0 uses the *second* fresh slot
        a[vm.var_o(1, 0)] = True   # s1 keeps its given z0
        a[vm.var_o(1, 1)] = True   # and uses the first
        a[vm.var_o(2, 1)] = True
        for decode in (lambda: decode_completion(a, vm, p), lambda: decode_policy(a, vm)):
            with pytest.raises(EncoderFault, match="first uses fresh symbols"):
                decode()
        a[vm.var_o(0, 1)] = True  # s0 first uses @0 and @1 together
        with pytest.raises(EncoderFault, match="first uses fresh symbols"):
            decode_completion(a, vm, p)
        a[vm.var_o(0, 2)] = False  # s0 now uses @0 only: in order
        assert decode_completion(a, vm, p).n_new == 1
        assert len(decode_policy(a, vm).update[0]) == 2

    def test_empty_support_faults(self):
        p, vm = self._vm()
        with pytest.raises(EncoderFault):
            decode_completion(self._blank(vm), vm, p)

    def test_policy_decode_and_column_drop(self):
        p, vm = self._vm()
        a = self._blank(vm)
        a[vm.var_a(0, 0)] = True
        for z in range(3):
            a[vm.var_m(0, z, 0, 0)] = True
        for s in range(3):
            a[vm.var_o(s, 0)] = True  # no fresh used anywhere
        pol = decode_policy(a, vm)
        assert pol.act == ((0,),)
        assert len(pol.update[0]) == 1  # unused fresh columns dropped

    def test_policy_empty_action_row_faults(self):
        p, vm = self._vm()
        with pytest.raises(EncoderFault):
            decode_policy(self._blank(vm), vm)

    @pytest.mark.parametrize("filled", [False, True])
    def test_equal_supports_share_one_row(self, filled):
        # s0 and g have the same support and the same (undefined) given row,
        # whether g's row is decoded or its fill (symbol 0)
        p, _ = self._vm()
        vm = VarMap(p, 1, 2, 1, fills={2: (0,)} if filled else None)
        a = self._blank(vm)
        for s in vm.observed:
            a[vm.var_o(s, 0)] = True
        comp = decode_completion(a, vm, p)
        assert comp.rows[0] is comp.rows[2] and comp.rows[0] == ((0, Fraction(1)),)

    def test_one_symbol_rows_share_across_given_rows(self):
        # distinct given rows (two partial, one blank) that complete to the
        # same one symbol all weigh it 1, so they share one row
        p = parse_pomdp("""
states: s0 s1 s2 g
actions: a
observations: z0 z1
initial: s0
goal: g
delta s0 a -> s1 1
delta s1 a -> s2 1
delta s2 a -> g 1
delta g a -> g 1
obs s0 -> z1 1
obs s1 -> z0 1/3, bot 2/3
obs s2 -> z0 1/2, bot 1/2
""")
        vm = VarMap(p, 1, 0, 1)
        a = [False] * (vm.nvars + 1)
        for s, z in enumerate((1, 0, 0, 0)):
            a[vm.var_o(s, z)] = True
        comp = decode_completion(a, vm, p)
        assert comp.rows[1] is comp.rows[2] is comp.rows[3]
        assert comp.rows == (((1, Fraction(1)),),) + (((0, Fraction(1)),),) * 3

    def test_weight_fault_names_the_first_state_of_its_row(self):
        # s1 and s2 share one given row; a fresh-only support drops its z0
        # mass, so the row sums to 2/3, checked once for both states
        p = parse_pomdp("""
states: s0 s1 s2 g
actions: a
observations: z0
initial: s0
goal: g
delta s0 a -> s1 1
delta s1 a -> s2 1
delta s2 a -> g 1
delta g a -> g 1
obs s1 -> z0 1/3, bot 2/3
obs s2 -> z0 1/3, bot 2/3
""")
        vm = VarMap(p, 1, 1, 1)
        a = [False] * (vm.nvars + 1)
        for s, z in enumerate((0, 1, 1, 0)):
            a[vm.var_o(s, z)] = True
        with pytest.raises(EncoderFault, match=r"^decoded weights at state s1 do not sum to 1$"):
            decode_completion(a, vm, p)


    def test_contract_breach_is_a_fault(self, monkeypatch):
        # a decoded row that drops its given symbol never reaches the product
        # check: the search's contract check faults first
        p = parse_pomdp(SPLIT)
        dead = p.states.index("dead")
        decode = synth.decode_completion

        def drop_given(assignment, vm, p):
            comp = decode(assignment, vm, p)
            rows = list(comp.rows)
            rows[dead] = ((1, Fraction(1)),)
            return replace(comp, rows=tuple(rows))

        monkeypatch.setattr(synth, "decode_completion", drop_given)
        with pytest.raises(EncoderFault, match="^decoded pair breaks its contract: "
                                               "state dead: completed row drops given symbols"):
            synthesize(p, 3, 1)


class TestStrictMode:
    def test_permissive_realizable_strict_not(self):
        p = parse_pomdp(SPLIT)
        assert synthesize(p, 3, 0).verdict == "Realizable"
        assert synthesize(p, 3, 0, strict=True).verdict == "Unrealizable"

    def test_strict_with_fresh_recovers(self):
        p = parse_pomdp(SPLIT)
        out = synthesize(p, 3, 1, strict=True)
        assert out.verdict == "Realizable"
        s2 = p.states.index("s2")
        assert out.completion.support(s2) == (2,)  # the fresh symbol
        # s1 keeps its given z1 support under strict decoding
        s1 = p.states.index("s1")
        assert 1 in out.completion.support(s1)


class TestResultDocuments:
    def test_round_trip_product_identical(self, fig1):
        out = synthesize(fig1, 3, 1, deterministic=True)
        doc = parse_result(format_result(out), fig1)
        assert doc.verdict == "Realizable" and (doc.mu, doc.nu) == (3, 1)
        assert doc.completion.rows == out.completion.rows
        g1 = build_product(fig1, out.completion, out.policy)
        g2 = build_product(fig1, doc.completion, doc.policy)
        assert g1.adj == g2.adj
        assert check_almost_sure(g2).ok

    def test_round_trip_with_given_observations(self):
        p = parse_pomdp(SPLIT)
        out = synthesize(p, 3, 1, strict=True)
        doc = parse_result(format_result(out), p)
        assert doc.completion.rows == out.completion.rows
        assert check_almost_sure(build_product(p, doc.completion, doc.policy)).ok

    def test_unrealizable_document(self, fig1):
        out = synthesize(fig1, 2, 1)
        text = format_result(out)
        doc = parse_result(text, fig1)
        assert doc.verdict == "Unrealizable" and doc.completion is None

    def test_k_header_is_accepted_and_ignored(self, fig1):
        # documents carry no path bound; an older one's k: line still verifies
        for out in (synthesize(fig1, 2, 2), synthesize(fig1, 2, 1)):
            text = format_result(out)
            assert "\nk:" not in text
            doc = parse_result(text, fig1)
            assert (doc.verdict, doc.mu, doc.nu) == (out.verdict, out.mu, out.nu)
            head, rest = text.split("\n", 1)
            assert parse_result(f"{head}\nk: 6\n{rest}", fig1) == doc

    @pytest.mark.parametrize("old, new, message", [
        ("action m0 -> move-right\n", "action m0 ->\n", "line 7: empty action support"),
        ("action m1 -> grab-treasure\n", "",
         "header 'memory' is 2, but the document has 1 action lines"),
        ("update m0 @1 move-right -> m0\n",
         "update m0 @1 move-right -> m0\nupdate m0 @1 move-right -> m1\n",
         "line 11: repeated update line for m0 @1 move-right"),
        ("update m0 @1 move-right -> m0\n", "update m0 @1 move-right ->\n",
         "line 10: empty memory support"),
        ("obs cell1 -> @1 1\n", "obs cell1 -> @1 1\nobs cell1 -> @0 1\n",
         "line 15: repeated obs line for cell1"),
        ("obs cell1 -> @1 1\n", "", "missing obs line for some state"),
    ], ids=["empty-action-support", "missing-action-line", "repeated-update-line",
            "empty-memory-support", "repeated-obs-line", "missing-obs-line"])
    def test_parse_rejects(self, fig1, old, new, message):
        text = format_result(synthesize(fig1, 2, 2))
        assert old in text
        with pytest.raises(ResultParseError) as exc:
            parse_result(text.replace(old, new), fig1)
        assert str(exc.value) == message

    def test_parse_rejects_unknown_action(self, fig1):
        out = synthesize(fig1, 3, 1)
        text = format_result(out).replace("move-right", "warp")
        with pytest.raises(ResultParseError):
            parse_result(text, fig1)

    def test_parse_rejects_missing_memory_row(self, fig1):
        out = synthesize(fig1, 3, 1)
        lines = [l for l in format_result(out).splitlines()
                 if not l.startswith("action m0")]
        with pytest.raises(ResultParseError):
            parse_result("\n".join(lines), fig1)


    def test_escape8_rows_read_back_shared(self):
        # 514 obs lines over a few row texts: each text is read once and its
        # tuple shared, as decoding shares one tuple per support
        p = gen_escape(8)
        out = synthesize(p, 2, 2)
        text = format_result(out)
        texts = [l.partition("->")[2] for l in text.splitlines() if l.startswith("obs ")]
        assert len(texts) == 514 and len(set(texts)) < 10
        doc = parse_result(text, p)
        assert doc.completion == out.completion
        assert len({id(r) for r in doc.completion.rows}) == len(set(texts))
        assert len({id(r) for r in out.completion.rows}) == len(set(out.completion.rows))
        assert check_almost_sure(build_product(p, doc.completion, doc.policy)).ok

    def test_memory_header_bounded_by_action_lines(self, fig1):
        # the memory tables are sized by the header, so a huge one must fail
        # before any of them is built
        text = format_result(synthesize(fig1, 2, 2))
        assert "\nmemory: 2\n" in text
        with pytest.raises(ResultParseError, match="^header 'memory' is 1000000000, but the "
                                                   "document has 2 action lines$"):
            parse_result(text.replace("\nmemory: 2\n", "\nmemory: 1000000000\n"), fig1)

    @pytest.mark.parametrize("old, new, message", [
        ("\nnew: 2\n", "\nnew: 7\n", "header 'new' is 7, "),
        ("\nnew: 2\n", "\nnew: -1\n", "header 'new' is -1, "),
        ("\nnew: 2\n", "\nnew: 1\n", "header 'new' is 1, "),
        ("\nnew: 2\n", "\n", "header 'new' is 0, "),
        ("observations: @0 @1\n", "observations: @1 @0\n", "header 'new' is 2, "),
        ("observations: @0 @1\n", "observations: @0 @1 @0\n",
         "header 'observations' repeats the name '@0'"),
    ], ids=["new-7", "new-negative", "new-short", "new-missing", "fresh-out-of-order",
            "repeated-name"])
    def test_alphabet_headers_agree(self, fig1, old, new, message):
        text = format_result(synthesize(fig1, 2, 2))
        assert old in text
        with pytest.raises(ResultParseError) as exc:
            parse_result(text.replace(old, new), fig1)
        assert str(exc.value).startswith(message)


    def test_base_names_are_the_models(self):
        # swapping z0 and z1 renames the policy's columns consistently, so
        # the product is unchanged, but the rows would read the model's z0
        # as z1: the document must name the model's observations
        p = parse_pomdp(SPLIT)
        text = format_result(synthesize(p, 3, 1, strict=True))
        assert "observations: z0 z1 @0\n" in text
        for names in ("z1 z0 @0", "z0 z2 @0", "z0 @0", "z0 z1 z1:a @0"):
            with pytest.raises(ResultParseError, match="^header 'observations' does not start"):
                parse_result(text.replace("observations: z0 z1 @0", "observations: " + names), p)

    def test_sensor_alphabet_reads_back(self):
        p = parse_pomdp(TestSensorMode.SENSE)
        out = synthesize(p, 3, 0, constraints=parse_constraints("sensor C lo hi", p))
        text = format_result(out)
        assert "observations: z0:lo z0:hi z1:lo z1:hi\n" in text
        doc = parse_result(text, p)
        assert doc.completion == out.completion
        assert build_product(p, doc.completion, doc.policy).adj == \
            build_product(p, out.completion, out.policy).adj
        for names in ("z0:hi z0:lo z1:lo z1:hi", "z0:lo z0:hi z1:lo z1:lo2", "z1:lo z1:hi z0:lo z0:hi"):
            with pytest.raises(ResultParseError, match="^header 'observations' does not start"):
                parse_result(text.replace("z0:lo z0:hi z1:lo z1:hi", names, 1), p)


class TestSolverCounters:
    def test_match_the_solver(self, fig1):
        # the formula sweep builds, searched in rounds of trap cuts by one
        # fresh solver: the counters are its totals
        out = synthesize(fig1, 3, 1)
        prep = prepare(fig1, 3, 1)
        cnf, vm = prep.encode(3, 1)
        solver = sat.Solver(cnf)
        status, _, st = prep.search(cnf, vm, solver)
        assert status == sat.SAT and replace(st, time_ms=0) == replace(out.stats, time_ms=0)
        assert st.rounds > 1
        assert (st.conflicts, st.decisions, st.propagations) == \
            (solver.n_conflicts, solver.n_decisions, solver.n_props)
        assert st.decisions > 0 and st.propagations > 0

    def test_time_ms_is_the_cell_wall_time(self, fig1, monkeypatch):
        # the clock the seconds budget reads, so it covers more than search
        prune = synth._prune

        def slow_prune(*args):
            time.sleep(0.2)
            return prune(*args)

        monkeypatch.setattr(synth, "_prune", slow_prune)
        out = synthesize(fig1, 3, 1)
        assert out.verdict == "Realizable" and out.stats.time_ms >= 200

    def test_result_document_round_trip(self, fig1):
        for out in (synthesize(fig1, 3, 1), synthesize(fig1, 2, 1)):
            text = format_result(out)
            assert f"decisions={out.stats.decisions} " in text
            assert parse_result(text, fig1).stats == out.stats

    def test_document_without_counters(self, fig1):
        out = synthesize(fig1, 2, 1)
        text = re.sub(r" decisions=\S+ propagations=\S+", "", format_result(out))
        st = parse_result(text, fig1).stats
        assert st.conflicts == out.stats.conflicts
        assert st.decisions is None and st.propagations is None

    def test_none_for_an_external_solver(self, fig1, monkeypatch):
        src = str(Path(sat.__file__).resolve().parent.parent)
        monkeypatch.setenv("PYTHONPATH", src)  # the solver runs in a temp dir
        out = synthesize(fig1, 2, 1, solver=f"{sys.executable} -m sensynth.sat {{input}}")
        assert out.verdict == "Unrealizable"
        assert (out.stats.conflicts, out.stats.decisions, out.stats.propagations) == \
            (None, None, None)
        assert "conflicts=- decisions=- propagations=-" in format_result(out)


class TestSweep:
    def test_fig1_frontier(self, fig1):
        rows = sweep(fig1, range(2, 4), range(1, 3))
        verdicts = {(r.mu, r.nu): r.verdict for r in rows}
        assert verdicts == {(2, 1): "Unrealizable", (2, 2): "Realizable",
                            (3, 1): "Realizable", (3, 2): "Realizable"}

    def test_csv_shape(self, fig1):
        rows = sweep(fig1, range(2, 4), range(1, 3))
        csv = format_frontier_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "mu,nu,verdict,vars,clauses,time_ms,conflicts"
        assert len(lines) == 5
        assert lines[1].startswith("2,1,Unrealizable,")

    def test_faults_propagate(self, fig1, monkeypatch):
        def fault(*args, **kwargs):
            raise EncoderFault("decoded pair fails almost-sure verification")
        monkeypatch.setattr(synth, "check_almost_sure", fault)
        with pytest.raises(EncoderFault):
            sweep(fig1, range(2, 4), range(1, 3))

    def test_external_solver_failure_is_unknown(self, fig1, monkeypatch):
        # the solver answers (3, 1)'s first round, whose pair loses, and fails
        # every later run: (3, 1) fails in its second round, (2, 1) in its first
        sizes, own = [], {mu: prepare(fig1, mu, 1).encode(mu, 1)[0] for mu in (2, 3)}

        def broken(cnf, *args, **kwargs):
            sizes.append((cnf.nvars, len(cnf)))
            if len(sizes) == 1:
                return sat.solve(cnf)
            raise ExternalSolverError("solver exited with status 139")
        monkeypatch.setattr(sat, "solve_external", broken)
        rows = sweep(fig1, range(2, 4), [1], solver="external-solver {input}")
        assert [r.verdict for r in rows] == ["Unknown", "Unknown"]
        assert all(r.reason == "external solver failed: solver exited with status 139"
                   for r in rows)
        # each cell's own formula with the cuts of its rounds, the rounds run,
        # the failed one included, no time and no counters
        assert sizes[0] == (own[3].nvars, len(own[3])) and sizes[1][1] > sizes[0][1]
        assert sizes[2:] == [(own[2].nvars, len(own[2]))]
        assert [r.stats for r in rows] == [synth.SynthStats(*sizes[2], rounds=1),
                                           synth.SynthStats(*sizes[1], rounds=2)]

    def test_external_time_limit(self, fig1, tmp_path):
        # --max-seconds bounds each external run: the solver is killed when the
        # cell's time is up, and the cell is Unknown
        pid = tmp_path / "pid"
        stub = tmp_path / "stub.py"
        stub.write_text(f"import os, time\nopen({str(pid)!r}, 'w').write(str(os.getpid()))\n"
                        "time.sleep(30)\n")
        (row,) = sweep(fig1, [3], [1], budget=Budget(max_seconds=0.5),
                       solver=f"{sys.executable} {stub} {{input}}")
        assert (row.verdict, row.reason, row.stats.rounds) == ("Unknown", "budget exhausted", 1)
        assert 400 <= row.stats.time_ms < 10000
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(int(pid.read_text()), 0)

    def test_monotone_rows(self):
        rng = random.Random(23)
        order = {"Unknown": 0, "Unrealizable": 1, "Realizable": 2}
        for _ in range(8):
            p = random_pomdp(rng)
            rows = sweep(p, range(1, 3), range(0, 2))
            cells = {(r.mu, r.nu): order[r.verdict] for r in rows}
            assert cells[1, 0] <= cells[2, 0] and cells[1, 1] <= cells[2, 1]
            assert cells[1, 0] <= cells[1, 1] and cells[2, 0] <= cells[2, 1]


class TestGrid:
    """sweep searches the cells of its staircase walk, each on its own
    formula, and infers the rest; its verdicts must be those of one
    synthesize call per cell."""

    @staticmethod
    def per_cell(p, mus, nus, **opts):
        return {(mu, nu): synthesize(p, mu, nu, **opts).verdict for mu in mus for nu in nus}

    @pytest.mark.parametrize("mode, verdicts", [
        ({}, {"Realizable", "Unrealizable"}),
        ({"deterministic": True}, {"Realizable", "Unrealizable"}),
        ({"strict": True}, {"Realizable", "Unrealizable"}),
    ], ids=["default", "deterministic", "strict"])
    def test_random_models_match_per_cell(self, fig1, mode, verdicts):
        rng = random.Random(47)
        seen = set()
        for p in [random_pomdp(rng, max_states=5) for _ in range(10)] + [fig1]:
            rows = sweep(p, range(1, 4), range(0, 3), **mode)
            got = {(r.mu, r.nu): r.verdict for r in rows}
            assert got == self.per_cell(p, range(1, 4), range(0, 3), **mode), p
            seen |= set(got.values())
        assert seen == verdicts

    @pytest.mark.parametrize("kind", ["same", "implies"])
    def test_same_and_implies_match_per_cell(self, kind):
        rng = random.Random(5)
        seen = set()
        for _ in range(10):
            p = random_pomdp(rng, max_states=5)
            while p.n_obs < 2:  # implies needs two declared symbols
                p = random_pomdp(rng, max_states=5)
            a, b = rng.sample(range(p.n_states), 2)
            sc = SideConstraints(same=((a, b),)) if kind == "same" else \
                SideConstraints(implies=((a, *rng.sample(range(p.n_obs), 2)),))
            got = {(r.mu, r.nu): r.verdict
                   for r in sweep(p, range(1, 4), range(0, 3), constraints=sc)}
            assert got == self.per_cell(p, range(1, 4), range(0, 3), constraints=sc), p
            seen |= set(got.values())
        assert seen == {"Realizable", "Unrealizable"}

    def test_budget_never_contradicts(self):
        # a budget makes some cells Unknown; every other verdict, searched
        # or inferred, is the unbudgeted per-cell one
        rng = random.Random(11)
        unknown = 0
        for _ in range(10):
            p = random_pomdp(rng, max_states=5)
            want = self.per_cell(p, range(1, 4), range(0, 3))
            for r in sweep(p, range(1, 4), range(0, 3), budget=Budget(max_conflicts=1)):
                unknown += r.verdict == "Unknown"
                assert r.verdict in ("Unknown", want[r.mu, r.nu]), (p, r.mu, r.nu)
        assert unknown

    def test_diff_constraints_match_per_cell(self):
        # diff forbids a shared symbol; a switched-off fresh symbol is emitted
        # by neither state, so it never conflicts
        rng = random.Random(3)
        for _ in range(12):
            p = random_pomdp(rng, max_states=5)
            a, b = rng.sample(range(p.n_states), 2)
            sc = SideConstraints(diff=((a, b),))
            got = {(r.mu, r.nu): r.verdict
                   for r in sweep(p, range(1, 3), range(0, 3), constraints=sc)}
            assert got == self.per_cell(p, range(1, 3), range(0, 3), constraints=sc), p

    def test_diff_monotone_in_nu(self):
        # the goal s1 has no symbol and must not share z0 or z1 with s0; a
        # second fresh symbol must not turn the verdict back to Unrealizable
        p = parse_pomdp("states: s0 s1\nactions: a0\nobservations: z0 z1\n"
                        "initial: s0\ngoal: s1\ndelta s0 a0 -> s0 1/2, s1 1/2\n"
                        "delta s1 a0 -> s1 1\nobs s0 -> z0 1/6, z1 5/6\n")
        sc = parse_constraints("diff s1 s0", p)
        want = ["Unrealizable", "Realizable", "Realizable"]
        assert [synthesize(p, 2, nu, constraints=sc).verdict for nu in range(3)] == want
        assert [r.verdict for r in sweep(p, [2], range(3), constraints=sc)] == want

    @pytest.mark.parametrize("model, mus, nus", [
        ("fig1", range(1, 4), range(0, 3)),
        ("det_hallway", range(1, 5), range(0, 4)),
    ], ids=["fig1", "det_hallway"])
    def test_searched_cell_is_its_own_formula(self, request, model, mus, nus):
        # a searched row is exactly synthesize of its cell: the same formula,
        # cuts and search; an inferred row, or one without a formula, has none
        p = request.getfixturevalue(model)
        counts = lambda st: replace(st, time_ms=0)
        searched = 0
        for r in sweep(p, mus, nus):
            if r.stats.conflicts is None:
                assert r.stats == synth.SynthStats(), (r.mu, r.nu)
                continue
            out = synthesize(p, r.mu, r.nu)
            assert (r.verdict, counts(r.stats)) == (out.verdict, counts(out.stats)), (r.mu, r.nu)
            searched += 1
        assert searched >= 3

    def test_walk_searches_the_staircase(self, fig1):
        # (3,1) R -> (2,1) U -> (2,2) R -> (1,2) U; nu = 0 needs no formula
        rows = sweep(fig1, range(1, 4), range(0, 3))
        searched = [(r.mu, r.nu) for r in rows if r.stats.conflicts is not None]
        assert sorted(searched) == [(1, 2), (2, 1), (2, 2), (3, 1)]
        assert {(r.mu, r.nu) for r in rows if r.verdict == "Realizable"} == \
            {(2, 2), (3, 1), (3, 2)}
        inferred = [r for r in rows if r.nu and r.stats.conflicts is None]
        assert sorted((r.mu, r.nu, r.verdict) for r in inferred) == \
            [(1, 1, "Unrealizable"), (3, 2, "Realizable")]
        for r in inferred:
            assert r.stats == synth.SynthStats()
            if r.verdict == "Realizable":
                assert r.policy.n_mem <= r.mu and r.completion.n_new <= r.nu
                assert check_almost_sure(build_product(r.model, r.completion, r.policy)).ok

    def test_unknown_implies_nothing(self, monkeypatch):
        # SPLIT without observations is Realizable iff mu >= 2 and nu = 2.  The
        # walk's first cell (4, 1) comes back Unknown; (3, 1) below it must
        # still be searched, not copied from it, and the walk go on from there
        p = parse_pomdp(re.sub(r"obs .*\n", "", SPLIT).replace(" z0 z1", ""))
        solve, calls = sat.solve, []

        def first_unknown(*args, **kwargs):
            calls.append(args)
            return sat.SolveResult(status=sat.BUDGET) if len(calls) == 1 else solve(*args, **kwargs)

        monkeypatch.setattr(sat, "solve", first_unknown)
        got = {(r.mu, r.nu): r.verdict for r in sweep(p, range(1, 5), range(0, 3))}
        assert got == {**self.per_cell(p, range(1, 5), range(0, 3)), (4, 1): "Unknown"}
        assert got[3, 1] == "Unrealizable" and got[2, 2] == "Realizable"

    def test_inferred_pairs_verify(self):
        rng = random.Random(29)
        inferred = 0
        for _ in range(10):
            p = random_pomdp(rng, max_states=5)
            for r in sweep(p, range(1, 4), range(0, 3)):
                if r.verdict == "Realizable" and r.stats.conflicts is None:
                    inferred += 1
                    assert r.policy.n_mem <= r.mu and r.completion.n_new <= r.nu
                    assert check_almost_sure(build_product(r.model, r.completion,
                                                           r.policy)).ok
        assert inferred

    def test_sensor_mode(self):
        p = parse_pomdp(TestSensorMode.SENSE)
        sc = parse_constraints("sensor C lo hi", p)
        rows = sweep(p, range(1, 4), [0], constraints=sc)
        got = {(r.mu, r.nu): r.verdict for r in rows}
        assert got == self.per_cell(p, range(1, 4), [0], constraints=sc)
        assert got[3, 0] == "Realizable"
        with pytest.raises(ModelSemanticError):
            sweep(p, range(1, 4), range(0, 2), constraints=sc)

    def test_front_end_solver_agrees(self, fig1, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", str(Path(sat.__file__).resolve().parent.parent))
        solver = f"{sys.executable} -m sensynth.sat {{input}}"
        external = sweep(fig1, range(2, 4), range(1, 3), solver=solver)
        embedded = sweep(fig1, range(2, 4), range(1, 3))
        assert [(r.mu, r.nu, r.verdict) for r in external] == \
            [(r.mu, r.nu, r.verdict) for r in embedded]
        assert all(r.stats.conflicts is None for r in external)
        rng = random.Random(47)
        for _ in range(3):
            p = random_pomdp(rng, max_states=4)
            got = {(r.mu, r.nu): r.verdict
                   for r in sweep(p, range(1, 3), range(0, 2), solver=solver)}
            assert got == self.per_cell(p, range(1, 3), range(0, 2)), p

    def test_budget_per_cell(self, fig1):
        free = sweep(fig1, range(1, 4), range(1, 3))
        # inferred cells carry no counters, so only searched ones count
        counts = [r.stats.conflicts for r in free if r.stats.conflicts is not None]
        most = max(counts)
        assert sum(counts) > most + 1
        budgeted = sweep(fig1, range(1, 4), range(1, 3),
                         budget=Budget(max_conflicts=most + 1))
        assert [r.verdict for r in budgeted] == [r.verdict for r in free]
        tight = sweep(fig1, range(1, 4), range(1, 3), budget=Budget(max_conflicts=1))
        assert "Unknown" in {r.verdict for r in tight}
        assert all(r.stats.conflicts <= 1 for r in tight if r.stats.conflicts is not None)


class TestTrapCuts:
    """At every k a cell is searched in rounds of trap cuts over a formula
    without P; its verdicts are those of P unrolled to the bound."""

    @staticmethod
    def eager(p, mus, nus, **opts):
        out = {}
        for mu in mus:
            for nu in nus:
                prep = prepare(p, mu, nu, **opts)
                if not prep.needs_formula(nu):
                    out[mu, nu] = "Unrealizable"
                    continue
                bound = mu * max(1, len(prep.region - {p.goal}))
                cnf, _ = encode(prep.model, mu, nu, bound, prep.constraints, region=prep.region)
                out[mu, nu] = "Realizable" if sat.solve(cnf).status == sat.SAT \
                    else "Unrealizable"
        return out

    @staticmethod
    def request(rng, mode):
        """A random model and options for mode; sensor mode asks for a base
        symbol in every state but the goal."""
        while True:
            p = random_pomdp(rng, max_states=5)
            a, b = rng.sample(range(p.n_states), 2)
            if mode == "sensor":
                if all(p.obs.support(s) for s in range(p.n_states) if s != p.goal):
                    return p, {"constraints": SideConstraints(sensor_values=("lo", "hi"))}
            elif mode == "implies":
                if p.n_obs >= 2:
                    z = rng.sample(range(p.n_obs), 2)
                    return p, {"constraints": SideConstraints(implies=((a, *z),))}
            elif mode in ("same", "diff"):
                return p, {"constraints": SideConstraints(**{mode: ((a, b),)})}
            else:
                return p, {} if mode == "default" else {mode: True}

    @pytest.mark.parametrize("mode", ["default", "deterministic", "strict", "same", "diff",
                                      "implies", "sensor"])
    def test_verdicts_match_the_eager_formula(self, mode):
        rng = random.Random(61)
        rounds, verdicts = [], set()
        for _ in range(20):
            p, opts = self.request(rng, mode)
            mus, nus = range(1, 4), [0] if mode == "sensor" else range(0, 3)
            want = self.eager(p, mus, nus, **opts)
            rows = sweep(p, mus, nus, **opts)
            assert {(r.mu, r.nu): r.verdict for r in rows} == want, p
            top = synthesize(p, 3, nus[-1], **opts)
            assert top.verdict == want[3, nus[-1]], p
            rounds += [r.stats.rounds for r in rows] + [top.stats.rounds]
            verdicts |= set(want.values())
        assert verdicts == {"Realizable", "Unrealizable"}
        assert max(rounds) > 1  # some cell needed cuts

    def test_cuts_hold_in_every_cell(self, fig1):
        # each cut of fig1's Unrealizable (2, 1) names the edges that leave
        # its goal-free pair set into every memory element of the formula:
        # first the traps of g, then their projections onto their states
        prep = prepare(fig1, 2, 1)
        cnf, vm = prep.encode(2, 1)
        res = sat.solve(cnf)
        comp = decode_completion(res.assignment, vm, prep.model)
        g = build_product(prep.model, comp, decode_policy(res.assignment, vm))
        cert = check_almost_sure(g)
        pair = {vm.var_c(s, m): (s, m) for s in vm.region for m in range(2)}
        clauses = synth.trap_cuts(prep.model, vm, g, cert)
        key = {e: k for k, e in vm.edges.items()}
        groups = []  # (leave, pair set) of each run of cuts, in order
        for cut in (c for c in clauses if -c[0] in pair):  # the definitions come first
            if not groups or groups[-1][0] != cut[1:]:
                groups.append((cut[1:], set()))
            groups[-1][1].add(pair[-cut[0]])
        assert groups and not cert.ok
        traps, projections = [], []
        for leave, inside in groups:
            assert all(s != prep.model.goal for s, _ in inside)
            want = {(m, a, s2, m2) for s, m in inside for a in range(vm.na)
                    if vm.region.issuperset(fig1.succ(s, a)) for s2 in fig1.succ(s, a)
                    for m2 in range(2) if (s2, m2) not in inside}
            assert {key[e] for e in leave} == want
            ids = {v for v in g.adj if g.pair(v) in inside}
            if not projections and len(ids) == len(inside) \
                    and all(w in ids for v in ids for w in g.adj[v]):  # g never leaves it
                assert ids <= set(cert.reachable) - set(cert.dist)
                traps.append(inside)
                continue
            states = {s for s, _ in inside}  # a projection: states x {0, 1}
            assert inside == {(s, m) for s in states for m in range(2)}
            assert any({s for s, _ in t} == states and t < inside for t in traps)
            assert states not in projections
            projections.append(states)
        assert traps and projections

    def test_projections_rule_out_memory_variants(self, det_hallway):
        # one projected cut covers every memory variant of a dead end, so the
        # refutation needs far fewer rounds than cuts over the traps alone
        # (99); at mu = 1 every projection equals its trap and adds nothing
        out = synthesize(det_hallway, 3, 2)
        assert out.verdict == "Unrealizable" and out.stats.rounds <= 30
        out = synthesize(gen_escape(3), 1, 2)
        assert out.verdict == "Unrealizable"
        assert (out.stats.vars, out.stats.clauses) == (63, 141)

    def test_edges_defined_on_demand(self, fig1, monkeypatch):
        # the formula defines no edge literal; each one a cut
        # names is defined once, by 2|Z'| + 2 clauses (3 when |Z'| = 1), ahead
        # of the cuts, and every clause and variable added is one of those
        formulas = []
        encode_cell = synth.Prepared.encode

        def spy(prep, mu, nu):
            cnf, vm = encode_cell(prep, mu, nu)
            assert vm.k is None and vm.edges == {}
            formulas.append((cnf, vm, cnf.nvars, len(cnf)))
            return cnf, vm

        monkeypatch.setattr(synth.Prepared, "encode", spy)
        sweep(fig1, range(1, 4), range(0, 3))
        rng = random.Random(23)
        for _ in range(40):
            sweep(random_pomdp(rng, max_states=5), range(1, 4), range(0, 2))
        sizes = set()
        for cnf, vm, n_base, c_base in formulas:
            clauses = [tuple(c) for c in cnf]
            cuts = [i for i in range(c_base, len(cnf))
                    if clauses[i][0] < 0 and vm.var_name(-clauses[i][0]).startswith("C(")]
            defs, new_vars = [], set()
            for (m, a, s2, m2), e in vm.edges.items():
                named = [i for i in cuts if e in clauses[i]]
                assert named and not any(e in c for c in clauses[:c_base])
                mine = [i for i, c in enumerate(clauses) if -e in c]
                xs = [e] if vm.nzp == 1 else \
                    [x for i in mine for x in clauses[i][1:] if x != vm.var_a(m, a)]
                mine += [i for x in xs if x != e for i, c in enumerate(clauses) if -x in c]
                want = {(-x, lit) for z, x in enumerate(xs)
                        for lit in (vm.var_o(s2, z), vm.var_m(m, z, a, m2))}
                want |= {(-e, vm.var_a(m, a))} | ({(-e, *xs)} if vm.nzp > 1 else set())
                assert sorted(clauses[i] for i in mine) == sorted(want)
                assert c_base <= min(mine) and max(mine) < min(named)
                assert len(mine) == (3 if vm.nzp == 1 else 2 * vm.nzp + 2)
                sizes.add(len(mine))
                defs += mine
                new_vars |= {e, *xs}
            assert sorted(defs + cuts) == list(range(c_base, len(cnf)))
            assert new_vars == set(range(n_base + 1, cnf.nvars + 1)) and cnf.nvars == vm.nvars
        assert 3 in sizes and len(sizes) > 1  # |Z'| = 1 and wider alphabets
        assert sum(len(vm.edges) for _, vm, _, _ in formulas[:1]) > 0  # fig1 made cuts

    @pytest.mark.parametrize("keep", ["nothing", "definitions"])
    def test_a_round_that_cannot_end_faults(self, fig1, monkeypatch, keep):
        # fig1's (2, 1) is Unrealizable, so its first model loses; clauses that
        # model satisfies, new edge literals false, would repeat the round
        trap_cuts, calls = synth.trap_cuts, []

        def no_cut(p, vm, g, cert):
            calls.append(g)
            return [] if keep == "nothing" else \
                [c for c in trap_cuts(p, vm, g, cert) if -c[0] > vm.n_semantic]

        monkeypatch.setattr(synth, "trap_cuts", no_cut)
        with pytest.raises(EncoderFault, match="do not exclude its model"):
            synthesize(fig1, 2, 1)
        assert len(calls) == 1  # in the first round

    def test_bottom_sccs_match_reachability(self):
        # v lies in a bottom component iff every pair it reaches reaches it back
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(1, 10)
            adj = [sorted(rng.sample(range(n), rng.randint(0, min(n, 3)))) for _ in range(n)]
            reach = []
            for v in range(n):
                seen, todo = {v}, [v]
                while todo:
                    for w in adj[todo.pop()]:
                        if w not in seen:
                            seen.add(w)
                            todo.append(w)
                reach.append(frozenset(seen))
            closed = reach[rng.randrange(n)]
            want = {reach[v] for v in closed if all(v in reach[w] for w in reach[v])}
            assert {frozenset(c) for c in synth._bottom_sccs(adj, closed)} == want, adj

    def test_external_failure_keeps_the_formula_counts(self, fig1, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text('print("s SATISFIABLE")\nprint("v 1 x 0")\n')
        rows = sweep(fig1, range(2, 4), [1], solver=f"{sys.executable} {stub} {{input}}")
        assert [r.verdict for r in rows] == ["Unknown", "Unknown"]
        assert all("non-integer token" in r.reason for r in rows)
        for r in rows:  # each cell's own formula
            cnf, _ = prepare(fig1, r.mu, 1).encode(r.mu, 1)
            assert (r.stats.vars, r.stats.clauses, r.stats.rounds) == (cnf.nvars, len(cnf), 1)


class TestSensorMode:
    SENSE = SPLIT.replace("obs s1 -> z1 1/2, bot 1/2",
                          "obs s1 -> z0 1\nobs s2 -> z0 1")

    def test_extra_sensor_separates_twins(self):
        p = parse_pomdp(self.SENSE)
        assert synthesize(p, 3, 0).verdict == "Unrealizable"
        sc = parse_constraints("sensor C lo hi", p)
        out = synthesize(p, 3, 0, constraints=sc)
        assert out.verdict == "Realizable"
        assert out.model.observations == ("z0:lo", "z0:hi", "z1:lo", "z1:hi")
        s1, s2 = p.states.index("s1"), p.states.index("s2")
        assert not set(out.completion.support(s1)) & set(out.completion.support(s2))
        assert check_almost_sure(build_product(out.model, out.completion,
                                               out.policy)).ok

    def test_rejects_fresh_symbols(self):
        p = parse_pomdp(self.SENSE)
        sc = parse_constraints("sensor C lo hi", p)
        with pytest.raises(ModelSemanticError):
            synthesize(p, 3, 1, constraints=sc)

    def test_rejects_state_without_base_symbol(self):
        p = parse_pomdp(SPLIT)  # s2 never produces a base observation
        sc = parse_constraints("sensor C lo hi", p)
        with pytest.raises(ModelSemanticError):
            synthesize(p, 3, 0, constraints=sc)

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_goal_added_by_target_reduction(self, deterministic):
        # two goal cells reduce to an appended goal G with an undefined row;
        # the goal's row cannot change a verdict, so G needs no base symbol
        # and the answers equal those with G given one
        text = print_pomdp(gen_hallway(GridSpec.from_ascii("#+#+#\n#.#.#\n#.#.#\ng.x.g")))
        assert "obs G " not in text
        got, given = ([synthesize(p, mu, 0, deterministic=deterministic,
                                  constraints=parse_constraints("sensor C v0 v1", p)).verdict
                       for mu in (1, 2)]
                      for p in (parse_pomdp(text), parse_pomdp(text + "obs G -> z0 1\n")))
        assert got == given == ["Unrealizable", "Realizable"]


class TestExternalSolverPath:
    def test_fig1_with_external(self, fig1):
        cmd = external_solver()
        if cmd is None:
            pytest.skip("no external solver binary found")
        assert synthesize(fig1, 3, 1, solver=cmd).verdict == "Realizable"
        out = synthesize(fig1, 2, 1, solver=cmd)
        assert out.verdict == "Unrealizable"
        assert out.stats.conflicts is None  # not reported by the driver

    def test_solver_that_cannot_start(self, fig1, tmp_path):
        # a solver file without the execute bit is a failed external run:
        # Unknown rows in a sweep, an ExternalSolverError from synthesize
        stub = tmp_path / "notexec.sh"
        stub.write_text("#!/bin/sh\necho 's UNSATISFIABLE'\n")
        stub.chmod(0o644)
        solver = f"{stub} {{input}}"
        rows = sweep(fig1, range(1, 3), [1], solver=solver)
        assert [r.verdict for r in rows] == ["Unknown", "Unknown"]
        assert all("cannot run" in r.reason and "Permission denied" in r.reason for r in rows)
        assert all(isinstance(r.error, ExternalSolverError) for r in rows)
        with pytest.raises(ExternalSolverError, match="cannot run"):
            synthesize(fig1, 2, 1, solver=solver)
