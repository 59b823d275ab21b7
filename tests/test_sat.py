"""Embedded CDCL solver, DIMACS plumbing, external solver driver."""

import itertools
import random

import pytest

from conftest import external_solver
from sensynth import sat
from sensynth.encode import Cnf, encode
from sensynth.sat import (BUDGET, SAT, UNSAT, Budget, ExternalSolverError,
                          evaluate, parse_dimacs, parse_external_result, solve,
                          solve_external, to_dimacs)


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

    def test_stats_populated(self):
        fig = encode_php(4, 3)
        res = solve(fig)
        assert res.status == UNSAT
        assert res.conflicts > 0 and res.propagations > 0
        assert res.time_ms >= 0


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


class TestDimacs:
    def test_exact_format(self):
        assert to_dimacs(cnf_of([(1, -2)], 2)) == "p cnf 2 1\n1 -2 0\n"

    def test_comments(self):
        text = to_dimacs(cnf_of([(1,)], 1), comments=("hello",))
        assert text.startswith("c hello\np cnf 1 1\n")

    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(20):
            nvars = rng.randint(1, 8)
            clauses = [tuple(rng.choice([v, -v]) for v in
                             rng.sample(range(1, nvars + 1), rng.randint(1, nvars)))
                       for _ in range(rng.randint(1, 12))]
            cnf = cnf_of(clauses, nvars)
            parsed = parse_dimacs(to_dimacs(cnf))
            assert parsed.nvars == nvars
            assert [list(c) for c in cnf] == [list(c) for c in parsed]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf x y\n")


class TestExternalResult:
    def test_sat_with_values(self):
        res = parse_external_result("c noise\ns SATISFIABLE\nv 1 -2 0\n", nvars=2)
        assert res.status == SAT
        assert res.assignment[1] is True and res.assignment[2] is False

    def test_multiline_values(self):
        res = parse_external_result("s SATISFIABLE\nv 1 -2\nv 3 0\n", nvars=3)
        assert res.assignment[3] is True

    def test_unsat(self):
        assert parse_external_result("s UNSATISFIABLE\n").status == UNSAT

    def test_ansi_colored_output(self):
        text = "\x1b[1;32ms SATISFIABLE\x1b[0m\nv 1 0\n"
        assert parse_external_result(text, nvars=1).status == SAT

    def test_missing_status_rejected(self):
        with pytest.raises(ExternalSolverError):
            parse_external_result("hello world\n")

    def test_indeterminate_maps_to_budget(self):
        assert parse_external_result("s INDETERMINATE\n").status == BUDGET

    def test_unknown_status_rejected(self):
        with pytest.raises(ExternalSolverError):
            parse_external_result("s GARBAGE\n")


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
