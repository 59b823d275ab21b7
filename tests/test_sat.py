"""Embedded CDCL solver, DIMACS plumbing, external solver driver."""

import itertools
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sensynth

from conftest import external_solver
from sensynth import sat
from sensynth.bench import gen_det_hallway
from sensynth.encode import Cnf, encode
from sensynth.sat import (BUDGET, SAT, UNSAT, Budget, ExternalSolverError,
                          evaluate, parse_dimacs, parse_external_result, solve,
                          solve_external, write_dimacs)
from sensynth.synth import prepare


def cnf_of(clauses, nvars):
    out = Cnf()
    for c in clauses:
        out.add(c)
    return out.finalize(nvars)


def brute_sat(clauses, nvars):
    for bits in itertools.product((False, True), repeat=nvars):
        val = (None,) + bits
        if all(any(val[l] if l > 0 else not val[-l] for l in c) for c in clauses):
            return True
    return False


class TestSolve:
    def test_unit(self):
        res = solve(cnf_of([(1,)], 1))
        assert res.status == SAT and res.assignment[1] is True

    def test_contradiction(self):
        assert solve(cnf_of([(1,), (-1,)], 1)).status == UNSAT

    def test_empty_formula(self):
        assert solve(cnf_of([], 0)).status == SAT

    def test_self_check_rejects_a_non_model(self):
        cnf = cnf_of([(1, 2), (-2,)], 2)

        class Liar:
            def __init__(self, assignment):
                self.assignment = assignment

            def solve(self, budget=None):
                return sat.SolveResult(status=SAT, assignment=self.assignment)

        assert solve(cnf, solver=Liar([False, True, False])).status == SAT
        with pytest.raises(AssertionError, match="non-model"):
            solve(cnf, solver=Liar([False, True, True]))

    def test_random_3cnf_vs_enumeration(self):
        rng = random.Random(5)
        for round_ in range(120):
            nvars = rng.randint(3, 10)
            nclauses = rng.randint(2, 4 * nvars)
            clauses = []
            for _ in range(nclauses):
                lits = rng.sample(range(1, nvars + 1), min(3, nvars))
                clauses.append(tuple(l if rng.random() < 0.5 else -l for l in lits))
            cnf = cnf_of(clauses, nvars)
            res = solve(cnf)
            assert (res.status == SAT) == brute_sat(clauses, nvars)
            if res.status == SAT:
                assert evaluate(cnf, res.assignment)

    def test_assignment_is_total_and_one_indexed(self):
        # index 0 is an unused placeholder; 1..n are the variables
        res = solve(cnf_of([(1, 2), (-3,)], 4))
        assert res.status == SAT
        assert len(res.assignment) == 5
        assert all(isinstance(b, bool) for b in res.assignment[1:])

    def test_deterministic_under_seed(self):
        cnf1 = cnf_of([(1, 2, 3), (-1, -2), (-2, -3), (-1, -3)], 3)
        cnf2 = cnf_of([(1, 2, 3), (-1, -2), (-2, -3), (-1, -3)], 3)
        a = solve(cnf1)
        b = solve(cnf2)
        assert a.assignment == b.assignment and a.conflicts == b.conflicts

    def test_random_mixed_widths_vs_enumeration(self):
        # widths 1..6, so unit, binary and long clauses and repeated whole
        # clauses all meet at load
        rng = random.Random(11)
        for round_ in range(150):
            nvars = rng.randint(1, 9)
            clauses = []
            for _ in range(rng.randint(1, 5 * nvars)):
                lits = rng.sample(range(1, nvars + 1), rng.randint(1, min(6, nvars)))
                clauses.append(tuple(l if rng.random() < 0.5 else -l for l in lits))
            cnf = cnf_of(clauses, nvars)
            res = solve(cnf)
            assert (res.status == SAT) == brute_sat(clauses, nvars), clauses
            if res.status == SAT:
                assert evaluate(cnf, res.assignment)

    def test_stats_populated(self):
        fig = encode_php(4, 3)
        res = solve(fig)
        assert res.status == UNSAT
        assert res.conflicts > 0 and res.propagations > 0


def encode_php(pigeons, holes):
    """Pigeonhole principle: unsatisfiable for pigeons > holes."""
    out = Cnf()
    var = lambda p, h: p * holes + h + 1
    for p in range(pigeons):
        out.add([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                out.add((-var(p1, h), -var(p2, h)))
    return out.finalize(pigeons * holes)


def clause_offsets(lits):
    """(start, end) of each zero-terminated clause in lits."""
    out, start = [], 0
    while start < len(lits):
        end = lits.index(0, start)
        out.append((start, end))
        start = end + 1
    return out


def live_clauses(solver, cnf):
    """Offsets of the clauses of length >= 2 the solver holds: every loaded
    one, then every learnt one.  The loaded clauses are the Cnf's up to the
    solver's watermark, in the Cnf's order, with learnt clauses between
    them; each is matched by its set of literals, since propagation
    reorders them."""
    arena = cnf.literal_array()[:solver.loaded].tolist()
    want = [set(arena[a:b]) for a, b in clause_offsets(arena) if b - a >= 2]
    lits, learnts, out = solver.lits, set(solver.learnts), []
    for a, b in clause_offsets(lits):
        if a not in learnts and len(out) < len(want) and set(lits[a:b]) == want[len(out)]:
            out.append(a)
    assert len(out) == len(want)
    return out + list(solver.learnts)


def assert_watch_invariant(solver, cnf):
    """Each live clause is watched exactly once by each of its first two
    literals, with a blocker from the clause, and nothing else is watched."""
    lits = solver.lits
    want = Counter()
    for ci in live_clauses(solver, cnf):
        want[lits[ci], ci] += 1
        want[lits[ci + 1], ci] += 1
    got = Counter()
    n = solver.nvars
    assert solver.watches[0] == []
    for lit in itertools.chain(range(-n, 0), range(1, n + 1)):
        wl = solver.watches[lit]
        assert len(wl) % 2 == 0
        for t in range(0, len(wl), 2):
            ci, blocker = wl[t], wl[t + 1]
            got[lit, ci] += 1
            clause = lits[ci:lits.index(0, ci)]
            assert blocker in clause and blocker != lit
    assert got == want
    return got


class TestArena:
    def test_rejects_unfinalized_cnf(self):
        c = Cnf()
        c.add([1, 2])
        c.add([-1])
        with pytest.raises(ValueError, match="variable 2 .* declares 0"):
            sat.Solver(c)

    def test_watch_invariant_after_solve(self):
        for cnf in (encode_php(5, 4), encode_php(4, 4),
                    cnf_of([(1, 2, 3), (-1, 2), (-2, 3), (-3, -1, 4), (4,), (1, 2, 3)], 4)):
            solver = sat.Solver(cnf)
            solver.solve()
            assert_watch_invariant(solver, cnf)

    def test_watch_invariant_after_budget(self):
        cnf = encode_php(7, 6)
        solver = sat.Solver(cnf)
        assert solver.solve(Budget(max_conflicts=300)).status == BUDGET
        assert_watch_invariant(solver, cnf)
        # the arena holds the Cnf's clauses, then each learnt clause in turn
        starts = [a for a, _ in clause_offsets(solver.lits)]
        assert solver.learnts and solver.learnts == starts[len(cnf):]
        assert solver.solve().status == UNSAT

    def test_activity_rescale(self):
        cnf = encode_php(7, 6)
        solver = sat.Solver(cnf)
        solver.var_inc = 0.99e100  # the second bump of any variable passes 1e100
        assert solver.solve().status == solve(cnf).status == UNSAT
        assert 0 < solver.var_inc < 1e100  # var_inc only grows until a rescale
        assert all(0 <= a < 1e100 for a in solver.activity)
        queued = {v for _, v in solver.heap}
        assert all(v in queued for v in range(1, solver.nvars + 1) if solver.vals[v] == 0)

    def test_watch_invariant_after_search(self):
        prep = prepare(gen_det_hallway(), 2, 2)
        cnf, vm = prep.encode(2, 2)
        solver = sat.Solver(cnf)
        base = len(cnf.literal_array())
        status, _, stats = prep.search(cnf, vm, solver)
        cuts = len(cnf.literal_array()) - base
        assert status == UNSAT and stats.rounds == 6 and cuts > 0
        assert solver.loaded == base + cuts and solver.nvars == cnf.nvars
        assert min(solver.learnts) < len(solver.lits) - cuts  # cuts follow learnt clauses
        assert not solver.ok  # the last round refuted the formula
        assert_watch_invariant(solver, cnf)

    def test_rejects_cnf_grown_past_nvars(self):
        cnf = cnf_of([(1, 2), (-2, 3)], 3)
        solver = sat.Solver(cnf)
        assert solver.solve().status == SAT
        cnf.add([-1, 4])
        with pytest.raises(ValueError, match="variable 4 .* declares 3"):
            solver.solve()
        assert solve(cnf.finalize(4), solver=solver).status == SAT

    def test_caller_arena_unchanged(self):
        for cnf in (encode_php(5, 4), encode_php(4, 4)):
            before = cnf.literal_array().tolist()
            solve(cnf)
            sat.Solver(cnf).solve()
            assert cnf.literal_array().tolist() == before

    @pytest.mark.parametrize("clauses,nvars,status", [
        ([(1,), (-1,)], 1, UNSAT),  # contradictory units
        ([(1,), (2, 3), (-1,)], 3, UNSAT),  # a later unit falsifies an earlier one
        ([(1, 2), (-1,), (-2,)], 2, UNSAT),  # units falsify a whole clause
        ([(1,), (1,), (2, -1), (2, -1)], 2, SAT),  # repeated units and clauses
        ([(1, 2), (1, 2), (-1, 2), (-1, 2), (1, -2), (-1, -2)], 2, UNSAT),
    ])
    def test_load_conflicts_and_duplicates(self, clauses, nvars, status):
        cnf = cnf_of(clauses, nvars)
        res = solve(cnf)
        assert res.status == status == (SAT if brute_sat(clauses, nvars) else UNSAT)
        if status == SAT:
            assert_watch_invariant(sat.Solver(cnf), cnf)


class TestBudget:
    def test_conflict_budget(self):
        res = solve(encode_php(7, 6), budget=Budget(max_conflicts=3))
        assert res.status == BUDGET

    def test_time_budget(self):
        res = solve(encode_php(9, 8), budget=Budget(max_seconds=0.01))
        assert res.status in (BUDGET, UNSAT)  # tiny box, usually BUDGET

    def test_budget_does_not_truncate_easy(self):
        res = solve(cnf_of([(1, 2)], 2), budget=Budget(max_conflicts=1))
        assert res.status == SAT


class TestAssumptions:
    """One Solver answering repeated solve() calls while its Cnf gains
    clauses between them, units included, as a cell's trap-cut rounds do."""

    def test_random_cnfs_vs_enumeration(self):
        rng = random.Random(31)
        statuses = Counter()
        for _ in range(60):
            nvars = rng.randint(2, 9)
            clauses = []
            for _ in range(rng.randint(1, 2 * nvars)):
                lits = rng.sample(range(1, nvars + 1), rng.randint(1, min(4, nvars)))
                clauses.append(tuple(l if rng.random() < 0.5 else -l for l in lits))
            cnf = cnf_of(clauses, nvars)
            solver = sat.Solver(cnf)
            for _ in range(8):
                res = solve(cnf, solver=solver)  # self-checks the model
                assert (res.status == SAT) == brute_sat(clauses, nvars), clauses
                statuses[res.status] += 1
                if solver.ok:
                    assert_watch_invariant(solver, cnf)
                lits = rng.sample(range(1, nvars + 1), rng.randint(1, 2))
                clauses.append(tuple(l if rng.random() < 0.5 else -l for l in lits))
                cnf.add(clauses[-1])
        assert statuses[SAT] > 50 and statuses[UNSAT] > 50

    def test_root_unsat_is_permanent(self):
        cnf = encode_php(4, 4)
        solver = sat.Solver(cnf)
        assert solver.solve().status == SAT
        for p in range(4):  # hole 3 closes: four pigeons in three holes
            cnf.add([-(p * 4 + 4)])
        assert solver.solve().status == UNSAT
        assert not solver.ok
        for clause in ([1], [-1, -2], [2, 5]):
            cnf.add(clause)
            res = solver.solve()
            assert res.status == UNSAT and res.conflicts == 0

    def test_max_conflicts_counts_per_call(self):
        solver = sat.Solver(encode_php(7, 6))
        first = solver.solve(Budget(max_conflicts=5))
        second = solver.solve(Budget(max_conflicts=5))
        assert first.status == second.status == BUDGET
        assert first.conflicts == second.conflicts == 5
        assert solver.n_conflicts == 10

    def test_counters_cover_one_call(self):
        cnf = encode_php(5, 5)
        solver = sat.Solver(cnf)
        a = solver.solve()
        for p in range(5):  # hole 4 closes: five pigeons in four holes
            cnf.add([-(p * 5 + 5)])
        b = solver.solve()
        assert (a.status, b.status) == (SAT, UNSAT) and b.conflicts > 0
        assert (a.conflicts + b.conflicts, a.decisions + b.decisions,
                a.propagations + b.propagations) == \
            (solver.n_conflicts, solver.n_decisions, solver.n_props)


class TestAddClause:
    """Clauses added to the Cnf between solve() calls: the next call loads
    them into the solver that was built on it."""

    def test_satisfied_clause(self):
        cnf = cnf_of([(1,), (-1, 2, 3)], 3)
        solver = sat.Solver(cnf)
        cnf.add([-2, 1])  # 1 holds at level 0
        res = solve(cnf, solver=solver)
        assert res.status == SAT and res.assignment[1] and solver.ok
        assert solver.loaded == len(cnf.literal_array())
        assert_watch_invariant(solver, cnf)

    def test_false_literal_leaves_a_unit(self):
        cnf = cnf_of([(-1,), (-2, 3)], 3)
        solver = sat.Solver(cnf)
        assert solve(cnf, solver=solver).status == SAT  # -1 is propagated
        cnf.add([1, 2])  # 1 is false at level 0: the unit 2, then 3
        res = solve(cnf, solver=solver)
        assert res.status == SAT and solver.ok
        assert res.assignment[2] and res.assignment[3]
        assert solver.levelv[2] == solver.levelv[3] == 0  # implied, not decided
        assert solver.reasonv[2] >= 0 and solver.reasonv[3] >= 0

    def test_empty_clause_refutes(self):
        cnf = cnf_of([(1,), (2, 3)], 3)
        solver = sat.Solver(cnf)
        assert solve(cnf, solver=solver).status == SAT
        cnf.add([])
        assert solve(cnf, solver=solver).status == UNSAT and not solver.ok
        assert solver.solve().status == UNSAT

    def test_unit_conflict_refutes(self):
        for clauses, unit in (([(1,), (2, 3)], -1),  # the unit is false at level 0
                              ([(-1, 2), (-1, -2)], 1)):  # its propagation conflicts
            cnf = cnf_of(clauses, 3)
            solver = sat.Solver(cnf)
            assert solve(cnf, solver=solver).status == SAT
            cnf.add([unit])
            assert solve(cnf, solver=solver).status == UNSAT and not solver.ok
            assert solver.solve().status == UNSAT

    def test_clauses_survive_later_calls(self):
        rng = random.Random(37)
        for _ in range(40):
            nvars = rng.randint(3, 8)
            clauses = [tuple(l if rng.random() < 0.5 else -l
                             for l in rng.sample(range(1, nvars + 1), rng.randint(1, 3)))
                       for _ in range(rng.randint(1, 2 * nvars))]
            cnf = cnf_of(clauses, nvars)
            solver = sat.Solver(cnf)
            for _ in range(4):
                assert solve(cnf, solver=solver).status == \
                    (SAT if brute_sat(clauses, nvars) else UNSAT)
                for _ in range(2):  # between calls, after a model or a refutation
                    added = tuple(l if rng.random() < 0.5 else -l
                                  for l in rng.sample(range(1, nvars + 1), rng.randint(1, 3)))
                    cnf.add(added)
                    clauses.append(added)
                units = [rng.choice((v, -v)) for v in rng.sample(range(1, nvars + 1), 2)]
                res = solve(cnf_of(clauses + [(l,) for l in units], nvars))
                assert (res.status == SAT) == \
                    brute_sat(clauses + [(l,) for l in units], nvars)
                if solver.ok:
                    assert_watch_invariant(solver, cnf)

    def test_new_variables_grow_the_solver(self):
        cnf = cnf_of([(-1,), (1, 2, 3), (-2, -3)], 3)
        solver = sat.Solver(cnf)
        assert solver.vals[-1] == 1  # slot 6 of 7
        cnf.add([2, 5])
        cnf.finalize(5)
        solver._load()  # 4 and 5 are new: 4 slots open after slot 3
        assert solver.nvars == 5 and solver.ok
        assert solver.vals[-1] == 1 and solver.vals[1] == 2  # -1 now at slot 10
        assert not any(solver.vals[l] for l in (2, 3, 4, 5, -2, -3, -4, -5))
        assert_watch_invariant(solver, cnf)
        cnf.add([-5])  # 2 by the new clause, then -3 by an old one
        res = solve(cnf, solver=solver)
        assert res.status == SAT and res.assignment[2] and not res.assignment[5]
        assert len(res.assignment) == 6
        assert solver.levelv[2] == solver.levelv[3] == solver.levelv[5] == 0

    def test_clauses_over_new_variables(self):
        rng = random.Random(41)

        def clause(nvars, new):
            lits = rng.sample(range(1, nvars + 1), rng.randint(0 if new else 1, min(2, nvars)))
            lits += range(nvars + 1, nvars + new + 1)
            return tuple(l if rng.random() < 0.5 else -l for l in lits)

        for _ in range(40):
            nvars = rng.randint(2, 4)
            clauses = [clause(nvars, 0) for _ in range(rng.randint(1, 2 * nvars))]
            cnf = cnf_of(clauses, nvars)
            solver = sat.Solver(cnf)
            for _ in range(3):
                assert solve(cnf, solver=solver).status == \
                    (SAT if brute_sat(clauses, nvars) else UNSAT)
                solver._backtrack(0)
                level0 = {l: solver.vals[l] for v in range(1, nvars + 1) for l in (v, -v)}
                for new in (rng.randint(1, 2), 0):  # new variables, then old ones only
                    added = clause(nvars, new)
                    nvars += new
                    cnf.add(added)
                    cnf.finalize(nvars)
                    clauses.append(added)
                    solver._load()
                    assert solver.nvars == nvars
                    # what level 0 held before the growth still holds
                    assert all(solver.vals[l] == w for l, w in level0.items() if w)
                    if solver.ok:
                        assert_watch_invariant(solver, cnf)
                res = solve(cnf, solver=solver)  # self-checks the model
                assert (res.status == SAT) == brute_sat(clauses, nvars)
                assert res.status != SAT or len(res.assignment) == nvars + 1


class TestDimacs:
    def test_exact_format(self, tmp_path):
        write_dimacs(cnf_of([(1, -2)], 2), tmp_path / "f.cnf")
        assert (tmp_path / "f.cnf").read_text() == "p cnf 2 1\n1 -2 0\n"

    def test_round_trip(self, tmp_path):
        rng = random.Random(9)
        for _ in range(20):
            nvars = rng.randint(1, 8)
            clauses = [tuple(rng.choice([v, -v]) for v in
                             rng.sample(range(1, nvars + 1), rng.randint(1, nvars)))
                       for _ in range(rng.randint(1, 12))]
            cnf = cnf_of(clauses, nvars)
            write_dimacs(cnf, tmp_path / "f.cnf")
            parsed = parse_dimacs((tmp_path / "f.cnf").read_text())
            assert parsed.nvars == nvars
            assert [list(c) for c in cnf] == [list(c) for c in parsed]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf x y\n")


SRC = str(Path(sensynth.__file__).resolve().parent.parent)
FRONT_END = f"{sys.executable} -m sensynth.sat {{input}}"


class TestFrontEnd:
    """`python -m sensynth.sat FILE`, driven as an external solver."""

    def test_agrees_with_solve(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", SRC)  # solve_external runs in a temp dir
        rng = random.Random(17)
        cases = [encode_php(4, 3), encode_php(3, 3), encode_php(5, 4)]
        for _ in range(6):
            nvars = rng.randint(3, 8)
            clauses = [tuple(l if rng.random() < 0.5 else -l
                             for l in rng.sample(range(1, nvars + 1), rng.randint(1, 3)))
                       for _ in range(rng.randint(2, 4 * nvars))]
            cases.append(cnf_of(clauses, nvars))
        statuses = set()
        for cnf in cases:
            want = solve(cnf).status
            assert solve_external(cnf, FRONT_END).status == want
            statuses.add(want)
        assert statuses == {SAT, UNSAT}

    def test_exit_codes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", SRC)
        sat_file, unsat_file = tmp_path / "sat.cnf", tmp_path / "unsat.cnf"
        write_dimacs(cnf_of([(1, -2), (2,)], 2), sat_file)
        write_dimacs(encode_php(3, 2), unsat_file)
        run = lambda *args: subprocess.run([sys.executable, "-m", "sensynth.sat", *args],
                                           capture_output=True, text=True, timeout=60)
        done = run(str(sat_file))
        assert done.returncode == 10
        assert done.stdout.splitlines() == ["s SATISFIABLE", "v 1 2 0"]
        assert done.stderr == ""
        done = run(str(unsat_file))
        assert (done.returncode, done.stdout) == (20, "s UNSATISFIABLE\n")
        assert done.stderr == ""
        assert run().returncode == 1
        assert run(str(tmp_path / "missing.cnf")).returncode == 1

    def test_drops_tautological_clauses(self, tmp_path, monkeypatch):
        # a tautology is legal DIMACS and always satisfied
        monkeypatch.setenv("PYTHONPATH", SRC)
        (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 -1 0\n2 0\n")
        assert [list(c) for c in parse_dimacs((tmp_path / "f.cnf").read_text())] == [[2]]
        done = subprocess.run([sys.executable, "-m", "sensynth.sat", str(tmp_path / "f.cnf")],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 10 and done.stderr == ""
        assert done.stdout.splitlines()[0] == "s SATISFIABLE"

    def test_rejects_literal_past_header(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", SRC)
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 1 1\n2 0\n")
        (tmp_path / "f.cnf").write_text("p cnf 1 1\n2 0\n")
        done = subprocess.run([sys.executable, "-m", "sensynth.sat", str(tmp_path / "f.cnf")],
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (1, "")
        assert "exceeds" in done.stderr

    def test_empty_clause_is_unsatisfiable(self, tmp_path, capsys):
        for text in ("p cnf 1 1\n0\n", "p cnf 0 1\n0\n", "p cnf 2 2\n1 2 0\n0\n"):
            (tmp_path / "f.cnf").write_text(text)
            assert sat.main([str(tmp_path / "f.cnf")]) == 20, text
            assert capsys.readouterr() == ("s UNSATISFIABLE\n", "")
        assert parse_dimacs("p cnf 0 1\n0\n").nvars == 0
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 0 2\n0\n1 0\n")

    def test_reports_no_counters(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", SRC)
        res = solve_external(encode_php(3, 2), FRONT_END)
        assert res.status == UNSAT
        assert (res.conflicts, res.decisions, res.propagations) == (None, None, None)

    def test_zero_variable_formula(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", SRC)
        res = solve_external(Cnf().finalize(0), FRONT_END)  # answers `v 0`
        assert res.status == SAT and res.assignment == [False]
        with pytest.raises(ExternalSolverError):
            parse_external_result("s SATISFIABLE\nv 0\n", 10, nvars=1)


class TestExternalResult:
    def test_sat_with_values(self):
        res = parse_external_result("c noise\ns SATISFIABLE\nv 1 -2 0\n", 10, nvars=2)
        assert res.status == SAT
        assert res.assignment[1] is True and res.assignment[2] is False

    def test_multiline_values(self):
        res = parse_external_result("s SATISFIABLE\nv 1 -2\nv 3 0\n", 10, nvars=3)
        assert res.assignment[3] is True

    def test_unsat(self):
        assert parse_external_result("s UNSATISFIABLE\n", 20).status == UNSAT

    def test_ansi_colored_output(self):
        text = "\x1b[1;32ms SATISFIABLE\x1b[0m\nv 1 0\n"
        assert parse_external_result(text, 10, nvars=1).status == SAT

    def test_missing_status_rejected(self):
        with pytest.raises(ExternalSolverError):
            parse_external_result("hello world\n", 0)

    def test_indeterminate_maps_to_budget(self):
        assert parse_external_result("s INDETERMINATE\n", 0).status == BUDGET

    def test_unknown_status_rejected(self):
        with pytest.raises(ExternalSolverError):
            parse_external_result("s GARBAGE\n", 0)

    def test_non_integer_value_rejected(self):
        with pytest.raises(ExternalSolverError, match="'x'"):
            parse_external_result("s SATISFIABLE\nv 1 x 0\n", 10, nvars=1)

    def test_exit_code_only_without_status_line(self):
        assert parse_external_result("c no verdict\n", 20).status == UNSAT
        for code in (10, 0, 1):
            with pytest.raises(ExternalSolverError):
                parse_external_result("c no verdict\n", code)
        with pytest.raises(ExternalSolverError, match="'x'"):
            parse_external_result("s SATISFIABLE\nv 1 x 0\n", 20, nvars=1)
        with pytest.raises(ExternalSolverError):
            parse_external_result("s GARBAGE\n", 20)
        assert parse_external_result("s SATISFIABLE\nv 1 0\n", 20, nvars=1).status == SAT


class TestExternalDriver:
    def test_stub_solver(self, tmp_path):
        stub = tmp_path / "stub.sh"
        stub.write_text("#!/bin/sh\ncat $1 > /dev/null\n"
                        "echo 's SATISFIABLE'\necho 'v 1 0'\n")
        stub.chmod(0o755)
        res = solve_external(cnf_of([(1,)], 1), f"{stub} {{input}}")
        assert res.status == SAT and res.assignment[1] is True

    def test_failing_command(self):
        with pytest.raises(ExternalSolverError):
            solve_external(cnf_of([(1,)], 1), "/nonexistent/solver {input}")

    def test_splr_agrees_if_present(self):
        cmd = external_solver()
        if cmd is None:
            pytest.skip("no external solver binary found")
        for clauses, nvars in [([(1, -2), (2,), (-1, 2)], 2),
                               ([(1,), (-1,)], 1)]:
            cnf1 = cnf_of(clauses, nvars)
            cnf2 = cnf_of(clauses, nvars)
            assert solve_external(cnf1, cmd).status == solve(cnf2).status

    def test_splr_on_php(self):
        cmd = external_solver()
        if cmd is None:
            pytest.skip("no external solver binary found")
        assert solve_external(encode_php(5, 4), cmd).status == UNSAT
