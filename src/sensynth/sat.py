"""SAT backend: an embedded CDCL solver plus DIMACS export and a driver for
external solver binaries.

The embedded solver is a conflict-driven clause learner with two-watched-
literal propagation, activity-based branching with decay, phase saving, Luby
restarts and learnt-literal minimization.  It keeps every clause it learns:
the searches the synthesizer runs end after a few hundred conflicts, well
before a deletion policy would pay for itself.  Every satisfiable answer is
re-checked against the original formula before it is returned.

One Solver answers any number of solve() calls on its Cnf.  Each call
backtracks to level 0 and first loads the clauses the Cnf gained since the
last, as the trap cuts of synth.Prepared.search are, over old or new
variables; the Cnf is the one clause store.  Learnt clauses, the
activities, the saved phases, the restart schedule and the counters, which
each SolveResult reports as totals, carry from one call to the next, and a
conflict at level 0 refutes the formula for every later call.

It runs on the encoder's own layout: a copy of the Cnf's zero-terminated
literal arena, to which learnt clauses and later Cnf clauses are appended
as they come.  A clause is named by the offset of its first literal in that
arena, and each literal's watch list is a flat int list of (clause offset,
blocker literal) pairs (see Solver).  Load relies on the Cnf invariant that
no clause is tautological or repeats a literal, and re-checks nothing.

`python -m sensynth.sat FILE` runs the embedded solver on a DIMACS file and
answers with SAT-competition `s`/`v` lines and exit codes (see main).
"""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
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
    """A call's answer, with the Solver's counter totals over all its calls
    so far, loads included, or None when an external solver answered."""

    status: str
    assignment: list = None  # index 0 unused; total over 1..nvars when sat
    conflicts: int = None
    decisions: int = None
    propagations: int = None
    restarts: int = None


def evaluate(cnf, assignment):
    """True iff every clause has a literal satisfied by the assignment."""
    sat_clause = False
    for l in cnf.literal_array():
        if l == 0:
            if not sat_clause:
                return False
            sat_clause = False
        elif not sat_clause:
            v = assignment[l if l > 0 else -l]
            sat_clause = v if l > 0 else not v
    return True


RESTART_UNIT = 100  # conflicts per unit of the Luby restart sequence


def _luby(i):
    k = i.bit_length()
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return _luby(i - (1 << (k - 1)) + 1)


class Solver:
    """Incremental CDCL search over the clauses of a Cnf (see solve()).

    Storage follows MiniSat (Een & Sorensson, SAT 2003):

    - `lits` is one flat list of literals in which every clause is followed
      by a 0.  It starts as a copy of the Cnf arena; learnt clauses, and the
      clauses the Cnf gains between calls, are appended to it.  A clause is
      named by the offset of its first literal, and that offset is the
      clause reference everywhere: in `reasonv`, as the conflict
      `_propagate` returns, and in `learnts`, the offsets of the learnt
      clauses in the order they were learnt.  No clause is ever removed.
      Propagation reorders the literals inside a clause so that its first
      two are the watched ones.
    - `watches[lit]` is a flat int list of (clause offset, blocker) pairs,
      one pair per clause that watches `lit`.  The blocker is some other
      literal of the clause; while it is true the clause is satisfied and
      propagation skips it without reading the arena.
    - `vals[lit]` is 1 if lit is true, 2 if false and 0 if unassigned.
      `vals` and `watches` are indexed by the literal itself, so a negative
      literal -v uses Python's negative index, slot 2n+1-v.  Slot 0, the
      terminator's, is never assigned, which ends every scan of a clause
      tail for free.

    `loaded` is how much of the Cnf arena `lits` holds; _load copies the
    rest.  It trusts Cnf.add's invariant (no clause is tautological or
    repeats a literal) and re-checks nothing.
    """

    def __init__(self, cnf):
        self.cnf = cnf
        self.loaded = 0  # the length of cnf's arena that is loaded
        self.nvars = 0
        self.ok = True
        self.lits = []
        self.watches = [[]]
        self.vals = bytearray(1)
        self.levelv = [0]
        self.reasonv = [-1]
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.phase = bytearray(1)
        self.activity = [0.0]
        self.var_inc = 1.0
        self.heap = []
        self.seen = bytearray(1)
        self.learnts = []
        self.n_conflicts = 0
        self.n_decisions = 0
        self.n_props = 0
        self.n_restarts = 0
        self.conflicts_at_restart = 0
        self.restart_budget = _luby(1) * RESTART_UNIT
        self._load()

    def _load(self):
        """At level 0, grow to cnf.nvars and load cnf's new clauses: watch each,
        assign a unit, set `ok` False at an empty clause or a false unit.
        qhead goes to 0, so the next propagation moves watches off false ones."""
        cnf = self.cnf
        if cnf.max_var > cnf.nvars:
            raise ValueError(f"Cnf uses variable {cnf.max_var} but declares {cnf.nvars} "
                             "variables; call finalize() before solving")
        n, top = self.nvars, cnf.nvars
        if top > n:  # a negative literal -v sits at slot 2n+1-v: open 2d slots after n
            d = top - n
            self.vals[n + 1:n + 1] = bytes(2 * d)
            self.watches[n + 1:n + 1] = [[] for _ in range(2 * d)]
            self.levelv += [0] * d
            self.reasonv += [-1] * d
            self.phase += bytes(d)
            self.activity += [0.0] * d
            self.seen += bytes(d)
            self.heap += [(0.0, v) for v in range(n + 1, top + 1)]  # still a heap: v > n
            self.nvars = top
        arena = cnf.literal_array()
        if self.loaded == len(arena) or not self.ok:
            return
        lits, watches = self.lits, self.watches
        start = len(lits)
        lits += arena[self.loaded:]
        self.loaded = len(arena)
        self.qhead = 0
        find, size = lits.index, len(lits)
        while start < size:
            end = find(0, start)
            a = lits[start]
            if end - start < 2:  # a unit, or the empty clause (a is its terminator 0)
                if not a or not self._enqueue(a, -1):
                    self.ok = False
                    break
            else:
                b = lits[start + 1]
                wl = watches[a]
                wl.append(start)
                wl.append(b)
                wl = watches[b]
                wl.append(start)
                wl.append(a)
            start = end + 1

    def _learn(self, clause):
        """Append a learnt clause of length >= 2 to the arena and watch it."""
        lits = self.lits
        ci = len(lits)
        lits.extend(clause)
        lits.append(0)
        a, b = clause[0], clause[1]
        wl = self.watches[a]
        wl.append(ci)
        wl.append(b)
        wl = self.watches[b]
        wl.append(ci)
        wl.append(a)
        self.learnts.append(ci)
        return ci

    def _enqueue(self, lit, reason):
        vals = self.vals
        w = vals[lit]
        if w:
            return w == 1
        vals[lit] = 1
        vals[-lit] = 2
        v = lit if lit > 0 else -lit
        self.levelv[v] = len(self.trail_lim)
        self.reasonv[v] = reason
        self.trail.append(lit)
        self.n_props += 1
        return True

    def _propagate(self):
        """Propagate the trail from qhead; the conflict clause's offset, or -1."""
        vals = self.vals
        lits = self.lits
        watches = self.watches
        trail = self.trail
        levelv = self.levelv
        reasonv = self.reasonv
        level = len(self.trail_lim)
        qhead = self.qhead
        props = 0
        confl = -1
        while qhead < len(trail):
            flit = -trail[qhead]
            qhead += 1
            wl = watches[flit]
            i = j = 0
            ln = len(wl)
            while i < ln:
                ci = wl[i]
                blk = wl[i + 1]
                if vals[blk] == 1:
                    wl[j] = ci
                    wl[j + 1] = blk
                    i += 2
                    j += 2
                    continue
                first = lits[ci]
                if first == flit:
                    first = lits[ci + 1]
                    lits[ci] = first
                    lits[ci + 1] = flit
                i += 2
                if first != blk and vals[first] == 1:
                    wl[j] = ci
                    wl[j + 1] = first
                    j += 2
                    continue
                t = ci + 2
                lt = lits[t]
                while vals[lt] == 2:
                    t += 1
                    lt = lits[t]
                if lt:
                    lits[ci + 1] = lt
                    lits[t] = flit
                    wt = watches[lt]
                    wt.append(ci)
                    wt.append(first)
                    continue
                wl[j] = ci
                wl[j + 1] = first
                j += 2
                if vals[first] == 2:
                    confl = ci
                    break
                vals[first] = 1
                vals[-first] = 2
                v = first if first > 0 else -first
                levelv[v] = level
                reasonv[v] = ci
                trail.append(first)
                props += 1
            del wl[j:i]  # the pairs that moved to other lists; unvisited ones stay
            if confl != -1:
                break
        self.qhead = qhead
        self.n_props += props
        return confl

    def _bump(self, v):
        a = self.activity[v] + self.var_inc
        self.activity[v] = a
        if a > 1e100:
            self.activity = [x * 1e-100 for x in self.activity]
            self.var_inc *= 1e-100
            self._rebuild_heap()

    def _rebuild_heap(self):
        """The branching heap with one entry per unassigned variable: the
        stale entries that backtracking leaves behind are gone."""
        act, vals = self.activity, self.vals
        self.heap = [(-act[v], v) for v in range(1, self.nvars + 1) if vals[v] == 0]
        heapify(self.heap)

    def _analyze(self, confl):
        lits = self.lits
        levelv = self.levelv
        reasonv = self.reasonv
        trail = self.trail
        seen = self.seen
        level = len(self.trail_lim)
        learnt = [0]
        path = 0
        p = 0
        index = len(trail) - 1
        cleanup = []
        while True:
            t = confl if p == 0 else confl + 1
            q = lits[t]
            while q:
                v = q if q > 0 else -q
                if not seen[v] and levelv[v] > 0:
                    seen[v] = 1
                    cleanup.append(v)
                    self._bump(v)
                    if levelv[v] >= level:
                        path += 1
                    else:
                        learnt.append(q)
                t += 1
                q = lits[t]
            while not seen[trail[index] if trail[index] > 0 else -trail[index]]:
                index -= 1
            p = trail[index]
            index -= 1
            v = p if p > 0 else -p
            confl = reasonv[v]
            seen[v] = 0
            path -= 1
            if path == 0:
                break
        learnt[0] = -p

        # drop literals whose reason lies entirely inside the clause
        keep = [learnt[0]]
        for q in learnt[1:]:
            v = q if q > 0 else -q
            t = reasonv[v]
            if t < 0:
                keep.append(q)
                continue
            r = lits[t]
            while r:
                u = r if r > 0 else -r
                if u != v and not seen[u] and levelv[u] > 0:
                    keep.append(q)
                    break
                t += 1
                r = lits[t]
        for v in cleanup:
            seen[v] = 0

        if len(keep) == 1:
            blevel = 0
        else:
            mi, mv = 1, levelv[keep[1] if keep[1] > 0 else -keep[1]]
            for t in range(2, len(keep)):
                lv = levelv[keep[t] if keep[t] > 0 else -keep[t]]
                if lv > mv:
                    mi, mv = t, lv
            keep[1], keep[mi] = keep[mi], keep[1]
            blevel = mv
        return keep, blevel

    def _backtrack(self, level):
        trail_lim = self.trail_lim
        if len(trail_lim) <= level:
            return
        bound = trail_lim[level]
        trail = self.trail
        vals = self.vals
        phase = self.phase
        reasonv = self.reasonv
        activity = self.activity
        heap = self.heap
        for t in range(len(trail) - 1, bound - 1, -1):
            lit = trail[t]
            vals[lit] = 0
            vals[-lit] = 0
            if lit > 0:
                phase[lit] = 1
                v = lit
            else:
                v = -lit
                phase[v] = 0
            reasonv[v] = -1
            heappush(heap, (-activity[v], v))
        del trail[bound:]
        del trail_lim[level:]
        self.qhead = bound

    def _decide(self):
        """The unassigned variable of highest activity; only called while
        some variable is unassigned.  Every unassigned variable has a heap
        entry at its current activity: _load and _backtrack push one for each
        variable they add or unassign, _rebuild_heap for all, and _bump raises
        only assigned ones (of a conflict and its reasons).  Every other entry
        ranks below its variable's and is dropped here."""
        vals = self.vals
        heap = self.heap
        while True:
            _, v = heappop(heap)
            if vals[v] == 0:
                return v

    def _model(self):
        vals = self.vals
        return [False] + [vals[v] == 1 for v in range(1, self.nvars + 1)]

    def solve(self, budget=None):
        """Load what the Cnf gained (_load), then decide it.  UNSAT sets `ok`
        False, so every later call answers UNSAT.  The budget's conflicts and
        seconds count from the start of this call, which counts no conflict
        past it: at 0 the first conflict ends the call unanalysed.  It lies
        above level 0, which sees one only at the first propagation (UNSAT
        whatever the budget) or after a learnt unit.
        """
        t0 = time.monotonic()
        c0 = self.n_conflicts
        limit_c = budget.max_conflicts if budget else None
        limit_t = budget.max_seconds if budget else None
        self._backtrack(0)
        self._load()
        n = self.nvars

        def result(status, assignment=None):
            return SolveResult(status, assignment, self.n_conflicts, self.n_decisions,
                               self.n_props, self.n_restarts)

        if not self.ok:
            return result(UNSAT)
        if len(self.heap) > 4 * n + 16:  # each earlier model re-pushed every variable
            self._rebuild_heap()
        if self._propagate() != -1:
            self.ok = False
            return result(UNSAT)

        trail_lim = self.trail_lim
        while True:
            confl = self._propagate()
            if confl != -1:
                if limit_c == 0:  # a conflict above level 0 (see the docstring)
                    return result(BUDGET)
                self.n_conflicts += 1
                self.conflicts_at_restart += 1
                if not trail_lim:
                    self.ok = False
                    return result(UNSAT)
                keep, blevel = self._analyze(confl)
                self._backtrack(blevel)
                if len(keep) == 1:
                    self._enqueue(keep[0], -1)  # unassigned after the backtrack to level 0
                else:
                    self._enqueue(keep[0], self._learn(keep))
                self.var_inc /= 0.95
                if limit_c is not None and self.n_conflicts - c0 >= limit_c:
                    return result(BUDGET)
                if limit_t is not None and time.monotonic() - t0 > limit_t:
                    return result(BUDGET)
                if len(self.heap) > 4 * n + 16:
                    self._rebuild_heap()
            else:
                if self.conflicts_at_restart >= self.restart_budget:
                    self.n_restarts += 1
                    self.conflicts_at_restart = 0
                    self.restart_budget = _luby(self.n_restarts + 1) * RESTART_UNIT
                    self._backtrack(0)
                    continue
                if len(self.trail) == n:
                    return result(SAT, self._model())
                v = self._decide()
                self.n_decisions += 1
                trail_lim.append(len(self.trail))
                self._enqueue(v if self.phase[v] else -v, -1)


def solve(cnf, budget=None, solver=None):
    """Decide cnf; Sat answers are self-checked against the formula.

    solver is a Solver already loaded with cnf, to keep what it learnt across
    calls; by default a fresh one is built for this call.
    """
    res = (solver if solver is not None else Solver(cnf)).solve(budget)
    if res.status == SAT and not evaluate(cnf, res.assignment):
        raise AssertionError("solver returned a non-model; this is a solver bug")
    return res


# DIMACS and external solvers

def write_dimacs(cnf, path):
    """Stream DIMACS to a file without building the whole text in memory."""
    with open(path, "w") as fh:
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
    """Parse DIMACS CNF text into a Cnf (tolerates comments and blank lines);
    tautologies are dropped, a literal past the header's count is a ValueError."""
    nvars = None
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
                if not set(cur) & {-x for x in cur}:  # a tautology always holds
                    out.add(cur)
                cur = []
            else:
                cur.append(l)
    if cur:
        raise ValueError("trailing literals without clause terminator")
    return out.finalize(out.max_var if nvars is None else nvars)


_ANSI_RE = re.compile(r"\x1b\[[0-9;]*[A-Za-z]")


def parse_external_result(text, returncode, nvars=0):
    """Parse `s ...` / `v ...` solver output lines into a SolveResult.  Only
    output without an `s` line falls back to the solver's exit code
    returncode (20 is UNSAT); a malformed `v` line is an error whatever the
    exit code."""
    status, read_s = None, False
    lits = []
    for raw in text.splitlines():
        line = _ANSI_RE.sub("", raw).strip()
        if line.startswith("s "):
            read_s, verdict = True, line[2:].strip()
            if verdict.startswith("SATISFIABLE"):
                status = SAT
            elif verdict.startswith("UNSATISFIABLE"):
                status = UNSAT
            elif verdict.startswith("UNKNOWN") or verdict.startswith("INDETERMINATE"):
                status = BUDGET
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                try:
                    l = int(tok)
                except ValueError:
                    raise ExternalSolverError(f"non-integer token {tok!r} in a 'v' line") from None
                if l != 0:
                    lits.append(l)
    if status is None:
        if returncode == 20 and not read_s:
            return SolveResult(status=UNSAT)
        raise ExternalSolverError(f"no recognizable 's' line in solver output:\n{text[:500]}")
    if status != SAT:
        return SolveResult(status=status)
    if not lits and nvars > 0:
        raise ExternalSolverError("external solver reported SATISFIABLE without a model")
    n = max(nvars, max((abs(l) for l in lits), default=0))
    assignment = [False] * (n + 1)
    for l in lits:
        if l > 0:
            assignment[l] = True
    return SolveResult(status=SAT, assignment=assignment)


def solve_external(cnf, command, budget=None):
    """Run an external DIMACS solver given as a command template.

    The template is split like a shell command line (shlex.split), then
    `{input}` in any of its arguments is replaced by the CNF path, so the
    path stays within one argument whatever it contains; e.g. `splr -q -r -
    {input}` or `minisat {input} /dev/stdout`.  The budget's seconds bound the run,
    which is killed and answers BUDGET when they are up; its conflicts bound
    nothing.  Verdict is read from stdout (the `s` line, or exit code 20
    when there is none: parse_external_result); Sat models are self-checked
    against the formula.  A template that cannot be split or lacks `{input}`,
    and a solver that cannot be started, raise ExternalSolverError.
    """
    try:
        template = shlex.split(command)
    except ValueError as e:
        raise ExternalSolverError(f"command template {command!r} cannot be split: {e}") from None
    if not any("{input}" in arg for arg in template):
        raise ExternalSolverError(f"command template {command!r} lacks the {{input}} placeholder")
    with tempfile.TemporaryDirectory(prefix="sensynth-cnf-") as td:
        path = Path(td) / "problem.cnf"
        write_dimacs(cnf, path)
        argv = [arg.replace("{input}", str(path)) for arg in template]
        try:
            proc = subprocess.run(
                argv,
                cwd=td,
                capture_output=True,
                text=True,
                timeout=budget.max_seconds if budget else None,
            )
        except OSError as e:
            raise ExternalSolverError(f"external solver {argv[0]!r} cannot run: {e}") from e
        except subprocess.TimeoutExpired:
            return SolveResult(status=BUDGET)
        out = proc.stdout + "\n" + proc.stderr
        res = parse_external_result(out, proc.returncode, nvars=cnf.nvars)
    if res.status == SAT and not evaluate(cnf, res.assignment):
        raise ExternalSolverError("external model fails the formula self-check")
    return res


def main(argv=None):
    """`python -m sensynth.sat FILE`: decide a DIMACS CNF file with the
    embedded solver.

    Prints `s SATISFIABLE` and the model as `v ... 0` lines and exits 10,
    prints `s UNSATISFIABLE` and exits 20, or prints `s UNKNOWN` and exits 0,
    the exit codes of SAT-competition solvers.  An unreadable or malformed
    file exits 1.
    """
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m sensynth.sat FILE", file=sys.stderr)
        return 1
    try:
        cnf = parse_dimacs(Path(args[0]).read_text())
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    res = solve(cnf)
    if res.status == SAT:
        print("s SATISFIABLE")
        lits = [v if res.assignment[v] else -v for v in range(1, cnf.nvars + 1)] + [0]
        for i in range(0, len(lits), 10):
            print("v " + " ".join(map(str, lits[i:i + 10])))
        return 10
    if res.status == UNSAT:
        print("s UNSATISFIABLE")
        return 20
    print("s UNKNOWN")
    return 0


if __name__ == "__main__":
    sys.exit(main())
