"""SAT backend: an embedded CDCL solver plus DIMACS export and a driver for
external solver binaries.

The embedded solver is a conflict-driven clause learner with two-watched-
literal propagation, activity-based branching with decay, phase saving, Luby
restarts, and learned-clause deletion.  Every satisfiable answer is
re-checked against the original formula before it is returned.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from pathlib import Path

from .encode import Cnf

SAT = "sat"
UNSAT = "unsat"
BUDGET = "budget"


class ExternalSolverError(RuntimeError):
    """External binary missing, crashed, or produced an unusable answer."""


@dataclass
class Budget:
    max_conflicts: int = None
    max_seconds: float = None


@dataclass
class SolveResult:
    status: str
    assignment: list = None  # index 0 unused; total over 1..nvars when sat
    conflicts: int = None
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    time_ms: int = 0


def evaluate(cnf, assignment):
    """True iff every clause has a literal satisfied by the assignment."""
    sat_clause = False
    seen_any = False
    for l in cnf.literal_array():
        if l == 0:
            if not sat_clause:
                return False
            sat_clause = False
            seen_any = False
            continue
        seen_any = True
        if not sat_clause:
            v = assignment[l if l > 0 else -l]
            if v if l > 0 else not v:
                sat_clause = True
    return not seen_any


def _luby(i):
    k = i.bit_length()
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return _luby(i - (1 << (k - 1)) + 1)


class Solver:
    """One-shot CDCL search over a fixed clause set."""

    def __init__(self, cnf):
        self.nvars = n = cnf.nvars
        self.ok = True
        self.clauses = []
        self.watches = [[] for _ in range(2 * n + 1)]
        self.vals = bytearray(2 * n + 1)  # index lit+n: 0 unassigned, 1 true, 2 false
        self.levelv = [0] * (n + 1)
        self.reasonv = [-1] * (n + 1)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.phase = bytearray(n + 1)
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.heap = []
        self.learnts = []
        self.lbd = {}
        self.n_conflicts = 0
        self.n_decisions = 0
        self.n_props = 0
        self.n_restarts = 0
        for v in range(1, n + 1):
            heappush(self.heap, (0.0, v))
        for lits in cnf:
            self._add_clause(lits, learnt=False)
            if not self.ok:
                break

    def _add_clause(self, lits, learnt):
        uniq = []
        seen = set()
        taut = False
        for l in lits:
            if -l in seen:
                taut = True
                break
            if l not in seen:
                seen.add(l)
                uniq.append(l)
        if taut:
            return -1
        if not uniq:
            self.ok = False
            return -1
        if len(uniq) == 1:
            if not self._enqueue(uniq[0], -1):
                self.ok = False
            return -1
        ci = len(self.clauses)
        self.clauses.append(uniq)
        n = self.nvars
        self.watches[n + uniq[0]].append([ci, uniq[1]])
        self.watches[n + uniq[1]].append([ci, uniq[0]])
        if learnt:
            self.learnts.append(ci)
        return ci

    def _enqueue(self, lit, reason):
        n = self.nvars
        w = self.vals[n + lit]
        if w:
            return w == 1
        self.vals[n + lit] = 1
        self.vals[n - lit] = 2
        v = lit if lit > 0 else -lit
        self.levelv[v] = len(self.trail_lim)
        self.reasonv[v] = reason
        self.trail.append(lit)
        self.n_props += 1
        return True

    def _propagate(self):
        n = self.nvars
        vals = self.vals
        clauses = self.clauses
        watches = self.watches
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            flit = -lit
            wl = watches[n + flit]
            i = j = 0
            ln = len(wl)
            while i < ln:
                w = wl[i]
                if vals[n + w[1]] == 1:
                    wl[j] = w
                    j += 1
                    i += 1
                    continue
                ci = w[0]
                c = clauses[ci]
                if c[0] == flit:
                    c[0] = c[1]
                    c[1] = flit
                first = c[0]
                if first != w[1] and vals[n + first] == 1:
                    w[1] = first
                    wl[j] = w
                    j += 1
                    i += 1
                    continue
                for t in range(2, len(c)):
                    lt = c[t]
                    if vals[n + lt] != 2:
                        c[1] = lt
                        c[t] = flit
                        watches[n + lt].append([ci, first])
                        i += 1
                        break
                else:
                    w[1] = first
                    wl[j] = w
                    j += 1
                    i += 1
                    if vals[n + first] == 2:
                        while i < ln:
                            wl[j] = wl[i]
                            j += 1
                            i += 1
                        del wl[j:]
                        return ci
                    self._enqueue(first, ci)
            del wl[j:]
        return -1

    def _bump(self, v):
        a = self.activity[v] + self.var_inc
        self.activity[v] = a
        if a > 1e100:
            self.activity = [x * 1e-100 for x in self.activity]
            self.var_inc *= 1e-100
            self.heap = [(-self.activity[u], u) for u in range(1, self.nvars + 1) if self.vals[self.nvars + u] == 0]
            heapify(self.heap)
        else:
            heappush(self.heap, (-a, v))

    def _analyze(self, confl):
        n = self.nvars
        level = len(self.trail_lim)
        learnt = [0]
        seen = bytearray(n + 1)
        path = 0
        p = 0
        index = len(self.trail) - 1
        cleanup = []
        while True:
            c = self.clauses[confl]
            for q in c if p == 0 else c[1:]:
                v = q if q > 0 else -q
                if not seen[v] and self.levelv[v] > 0:
                    seen[v] = 1
                    cleanup.append(v)
                    self._bump(v)
                    if self.levelv[v] >= level:
                        path += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[index] if self.trail[index] > 0 else -self.trail[index]]:
                index -= 1
            p = self.trail[index]
            index -= 1
            v = p if p > 0 else -p
            confl = self.reasonv[v]
            seen[v] = 0
            path -= 1
            if path == 0:
                break
        learnt[0] = -p

        # drop literals whose reason lies entirely inside the clause
        keep = [learnt[0]]
        for q in learnt[1:]:
            v = q if q > 0 else -q
            ci = self.reasonv[v]
            if ci < 0:
                keep.append(q)
                continue
            for r in self.clauses[ci]:
                u = r if r > 0 else -r
                if u != v and not seen[u] and self.levelv[u] > 0:
                    keep.append(q)
                    break
        for v in cleanup:
            seen[v] = 0

        if len(keep) == 1:
            blevel = 0
        else:
            mi, mv = 1, self.levelv[keep[1] if keep[1] > 0 else -keep[1]]
            for t in range(2, len(keep)):
                lv = self.levelv[keep[t] if keep[t] > 0 else -keep[t]]
                if lv > mv:
                    mi, mv = t, lv
            keep[1], keep[mi] = keep[mi], keep[1]
            blevel = mv
        lbd = len({self.levelv[q if q > 0 else -q] for q in keep})
        return keep, blevel, lbd

    def _backtrack(self, level):
        n = self.nvars
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        for t in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[t]
            v = lit if lit > 0 else -lit
            self.vals[n + lit] = 0
            self.vals[n - lit] = 0
            self.phase[v] = 1 if lit > 0 else 0
            self.reasonv[v] = -1
            heappush(self.heap, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = bound

    def _decide(self):
        n = self.nvars
        while self.heap:
            _, v = heappop(self.heap)
            if self.vals[n + v] == 0:
                return v
        for v in range(1, n + 1):
            if self.vals[n + v] == 0:
                return v
        return 0

    def _locked(self, ci):
        c = self.clauses[ci]
        lit = c[0]
        v = lit if lit > 0 else -lit
        return self.vals[self.nvars + lit] == 1 and self.reasonv[v] == ci

    def _reduce_db(self):
        cand = [ci for ci in self.learnts if self.lbd.get(ci, 9) > 2 and not self._locked(ci)]
        cand.sort(key=lambda ci: (-self.lbd.get(ci, 9), -len(self.clauses[ci])))
        drop = set(cand[: len(cand) // 2])
        if not drop:
            return
        n = self.nvars
        for ci in drop:
            c = self.clauses[ci]
            for lit in (c[0], c[1]):
                wl = self.watches[n + lit]
                for t in range(len(wl)):
                    if wl[t][0] == ci:
                        wl[t] = wl[-1]
                        wl.pop()
                        break
            self.clauses[ci] = None
            self.lbd.pop(ci, None)
        self.learnts = [ci for ci in self.learnts if ci not in drop]

    def solve(self, budget=None):
        t0 = time.monotonic()
        limit_c = budget.max_conflicts if budget else None
        limit_t = budget.max_seconds if budget else None
        n = self.nvars

        def result(status, assignment=None):
            return SolveResult(
                status=status,
                assignment=assignment,
                conflicts=self.n_conflicts,
                decisions=self.n_decisions,
                propagations=self.n_props,
                restarts=self.n_restarts,
                time_ms=int((time.monotonic() - t0) * 1000),
            )

        if not self.ok:
            return result(UNSAT)
        if self._propagate() != -1:
            return result(UNSAT)

        next_reduce = 4000
        n_reductions = 0
        restart_unit = 100
        conflicts_at_restart = 0
        restart_budget = _luby(1) * restart_unit
        while True:
            confl = self._propagate()
            if confl != -1:
                self.n_conflicts += 1
                conflicts_at_restart += 1
                if not self.trail_lim:
                    return result(UNSAT)
                keep, blevel, lbd = self._analyze(confl)
                self._backtrack(blevel)
                if len(keep) == 1:
                    if not self._enqueue(keep[0], -1):
                        return result(UNSAT)
                else:
                    ci = self._add_clause(keep, learnt=True)
                    if ci >= 0:
                        self.lbd[ci] = lbd
                        self._enqueue(keep[0], ci)
                self.var_inc /= 0.95
                if limit_c is not None and self.n_conflicts >= limit_c:
                    return result(BUDGET)
                if limit_t is not None and time.monotonic() - t0 > limit_t:
                    return result(BUDGET)
                if self.n_conflicts >= next_reduce:
                    self._reduce_db()
                    n_reductions += 1
                    next_reduce += 2000 + 500 * n_reductions
                if len(self.heap) > 4 * n + 16:
                    self.heap = [(-self.activity[v], v) for v in range(1, n + 1) if self.vals[n + v] == 0]
                    heapify(self.heap)
            else:
                if conflicts_at_restart >= restart_budget:
                    self.n_restarts += 1
                    conflicts_at_restart = 0
                    restart_budget = _luby(self.n_restarts + 1) * restart_unit
                    self._backtrack(0)
                    continue
                if len(self.trail) == n:
                    assignment = [False] * (n + 1)
                    for v in range(1, n + 1):
                        assignment[v] = self.vals[n + v] == 1
                    return result(SAT, assignment)
                v = self._decide()
                if v == 0:
                    assignment = [False] * (n + 1)
                    for u in range(1, n + 1):
                        assignment[u] = self.vals[n + u] == 1
                    return result(SAT, assignment)
                self.n_decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(v if self.phase[v] else -v, -1)


def solve(cnf, budget=None):
    """Decide cnf; Sat answers are self-checked against the formula."""
    res = Solver(cnf).solve(budget)
    if res.status == SAT and not evaluate(cnf, res.assignment):
        raise AssertionError("solver returned a non-model; this is a solver bug")
    return res


# DIMACS and external solvers

def to_dimacs(cnf, comments=()):
    """Serialize to DIMACS CNF text."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {cnf.nvars} {len(cnf)}")
    cur = []
    for l in cnf.literal_array():
        if l == 0:
            cur.append("0")
            lines.append(" ".join(cur))
            cur = []
        else:
            cur.append(str(l))
    return "\n".join(lines) + "\n"


def write_dimacs(cnf, path, comments=()):
    """Stream DIMACS to a file without building the whole text in memory."""
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"c {c}\n")
        fh.write(f"p cnf {cnf.nvars} {len(cnf)}\n")
        cur = []
        for l in cnf.literal_array():
            if l == 0:
                cur.append("0\n")
                fh.write(" ".join(cur))
                cur = []
            else:
                cur.append(str(l))


def parse_dimacs(text):
    """Parse DIMACS CNF text into a Cnf (tolerates comments and blank lines)."""
    nvars = 0
    out = Cnf()
    cur = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header {line!r}")
            nvars = int(parts[2])
            continue
        for tok in line.split():
            l = int(tok)
            if l == 0:
                out.add(cur)
                cur = []
            else:
                cur.append(l)
    if cur:
        raise ValueError("trailing literals without clause terminator")
    return out.finalize(max(nvars, out.max_var))


_ANSI_RE = re.compile(r"\x1b\[[0-9;]*[A-Za-z]")


def parse_external_result(text, nvars=0):
    """Parse `s ...` / `v ...` solver output lines into a SolveResult."""
    status = None
    lits = []
    for raw in text.splitlines():
        line = _ANSI_RE.sub("", raw).strip()
        if line.startswith("s "):
            verdict = line[2:].strip()
            if verdict.startswith("SATISFIABLE"):
                status = SAT
            elif verdict.startswith("UNSATISFIABLE"):
                status = UNSAT
            elif verdict.startswith("UNKNOWN") or verdict.startswith("INDETERMINATE"):
                status = BUDGET
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                l = int(tok)
                if l != 0:
                    lits.append(l)
    if status is None:
        raise ExternalSolverError(f"no recognizable 's' line in solver output:\n{text[:500]}")
    if status != SAT:
        return SolveResult(status=status)
    if not lits:
        raise ExternalSolverError("external solver reported SATISFIABLE without a model")
    n = max(nvars, max(abs(l) for l in lits))
    assignment = [False] * (n + 1)
    for l in lits:
        if l > 0:
            assignment[l] = True
    return SolveResult(status=SAT, assignment=assignment)


def solve_external(cnf, command, time_limit=None):
    """Run an external DIMACS solver given as a command template.

    The template must contain `{input}`, e.g. `splr -q -r - {input}` or
    `minisat {input} /dev/stdout`.  Verdict is read from stdout (`s` line,
    exit codes 10/20 as fallback); Sat models are self-checked.
    """
    if "{input}" not in command:
        raise ExternalSolverError(f"command template {command!r} lacks the {{input}} placeholder")
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="sensynth-cnf-") as td:
        path = Path(td) / "problem.cnf"
        write_dimacs(cnf, path)
        argv = shlex.split(command.replace("{input}", str(path)))
        try:
            proc = subprocess.run(
                argv,
                cwd=td,
                capture_output=True,
                text=True,
                timeout=time_limit,
            )
        except FileNotFoundError as e:
            raise ExternalSolverError(f"external solver not found: {argv[0]}") from e
        except subprocess.TimeoutExpired:
            return SolveResult(status=BUDGET, time_ms=int((time.monotonic() - t0) * 1000))
        out = proc.stdout + "\n" + proc.stderr
        try:
            res = parse_external_result(out, nvars=cnf.nvars)
        except ExternalSolverError:
            if proc.returncode == 10:
                raise
            if proc.returncode == 20:
                res = SolveResult(status=UNSAT)
            else:
                raise
    res.time_ms = int((time.monotonic() - t0) * 1000)
    if res.status == SAT:
        if len(res.assignment) < cnf.nvars + 1:
            res.assignment.extend([False] * (cnf.nvars + 1 - len(res.assignment)))
        if not evaluate(cnf, res.assignment):
            raise ExternalSolverError("external model fails the formula self-check")
    return res
