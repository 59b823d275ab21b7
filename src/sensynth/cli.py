"""Command-line front end.

Exit codes: 0 Realizable, 1 Unrealizable, 2 Unknown, 3 runtime error
(I/O, parse, invalid model, a formula past the 31-bit literal space,
internal fault), 4 usage error, 141 (128 + SIGPIPE) when the reader closes
stdout early.  Human-readable reports go to
stdout; machine-readable documents (result, CSV, DIMACS, models) go to the
given output files so golden tests stay stable.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import bench
from .encode import parse_constraints
from .model import ModelError, parse_pomdp, print_pomdp
from .sat import Budget, ExternalSolverError, Solver, write_dimacs
from .synth import (EncoderFault, ResultParseError, format_frontier_csv,
                    format_result, parse_result, prepare, sweep, synthesize)
from .verify import build_product, check_almost_sure, format_certificate

EXIT_REALIZABLE = 0
EXIT_UNREALIZABLE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3
EXIT_USAGE = 4
EXIT_BROKEN_PIPE = 141

_VERDICT_EXIT = {"Realizable": EXIT_REALIZABLE, "Unrealizable": EXIT_UNREALIZABLE,
                 "Unknown": EXIT_UNKNOWN}


# the longest timeout a subprocess wait can hold, 2**31 - 1 ms; the external
# solver runs under --max-seconds
MAX_SECONDS = (2 ** 31 - 1) / 1000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; remap onto our code space
    def error(self, message):
        raise UsageError(message)


def budget(ns):
    for flag, value in (("--max-conflicts", ns.max_conflicts), ("--max-seconds", ns.max_seconds)):
        if value is not None and not value >= 0:  # NaN fails too
            raise UsageError(f"{flag} must be >= 0")
    if ns.max_seconds is not None and ns.max_seconds > MAX_SECONDS:  # inf too
        raise UsageError(f"--max-seconds must be at most {MAX_SECONDS}")
    if ns.max_conflicts is None and ns.max_seconds is None:
        return None
    return Budget(max_conflicts=ns.max_conflicts, max_seconds=ns.max_seconds)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_model(ns):
    """The model and its constraints."""
    p = parse_pomdp(_read(ns.input))
    sc = None
    if ns.constraints:
        sc = parse_constraints(_read(ns.constraints), p)
    return p, sc


_CELL_RE = re.compile(r"^c(\d+)_(\d+)(?:_[NESW])?$")


def render_grid(out):
    """ASCII map of a grid model, one letter per synthesized observation class.

    Works for states named c{x}_{y} or c{x}_{y}_{heading}; cells whose states
    disagree on the class (heading variants) show '?', non-cells show '#'.
    """
    m, comp = out.model, out.completion
    cells = {}
    for s, name in enumerate(m.states):
        hit = _CELL_RE.match(name)
        if hit:
            cells.setdefault((int(hit.group(1)), int(hit.group(2))), []).append(s)
    if not cells:
        return "grid rendering needs c{x}_{y} state names"
    classes = {}
    letters = "abcdefghijklmnopqrstuvwxyz"
    lines = []
    for y in range(max(c[1] for c in cells), -1, -1):
        row = []
        for x in range(max(c[0] for c in cells) + 1):
            states = cells.get((x, y))
            if not states:
                row.append("#")
                continue
            supports = {comp.support(s) for s in states}
            if len(supports) > 1:
                row.append("?")
                continue
            key = supports.pop()
            if key not in classes:
                classes[key] = letters[len(classes) % len(letters)]
            row.append(classes[key])
        lines.append("".join(row))
    return "\n".join(lines)


def cmd_synth(ns):
    p, sc = _load_model(ns)
    out = synthesize(p, ns.mu, ns.nu, deterministic=ns.deterministic,
                     strict=ns.strict, constraints=sc, budget=budget(ns),
                     solver=ns.solver)
    doc = format_result(out)
    if ns.result:
        _write(ns.result, doc)
    if not ns.quiet:
        st = out.stats
        print(f"verdict: {out.verdict} (mu={out.mu} nu={out.nu} k={out.k})")
        print(f"stats: vars={st.vars} clauses={st.clauses} time_ms={st.time_ms}")
        if out.verdict == "Unknown":
            print(f"reason: {out.reason}")
        if out.verdict == "Realizable":
            if not ns.result:
                print(doc, end="")
            if ns.render_grid:
                print(render_grid(out))
    return _VERDICT_EXIT[out.verdict]


def cmd_verify(ns):
    p = parse_pomdp(_read(ns.input))
    doc = parse_result(_read(ns.document), p)
    if doc.completion is None or doc.policy is None:
        raise ResultParseError(f"document has verdict {doc.verdict}, nothing to verify")
    prod = build_product(p, doc.completion, doc.policy)
    cert = check_almost_sure(prod)
    if not ns.quiet:
        print(format_certificate(cert, p, doc.policy))
    return EXIT_REALIZABLE if cert.ok else EXIT_UNREALIZABLE


def _parse_range(text, flag, least):
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected N or N..M")
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    if lo < least:
        raise UsageError(f"{flag} must start at {least} or above, got {text!r}")
    return range(lo, hi + 1)


def cmd_sweep(ns):
    mu_range = _parse_range(ns.mu_range, "--mu-range", 1) if ns.mu_range else [ns.mu]
    nu_range = _parse_range(ns.nu_range, "--nu-range", 0) if ns.nu_range else [ns.nu]
    p, sc = _load_model(ns)
    rows = sweep(p, mu_range, nu_range, deterministic=ns.deterministic,
                 strict=ns.strict, constraints=sc, budget=budget(ns), solver=ns.solver)
    csv = format_frontier_csv(rows)
    if ns.out:
        _write(ns.out, csv)
        if not ns.quiet:
            for r in rows:
                print(f"mu={r.mu} nu={r.nu} {r.verdict}")
    else:
        print(csv, end="")
    return EXIT_REALIZABLE


_FAMILIES = ("fig1", "det-hallway", "escape", "rocksample", "hallway")


def cmd_gen(args):
    family = args.family
    if family == "hallway" and not args.layout:
        raise UsageError("hallway needs --layout FILE")
    try:
        if family == "fig1":
            p = bench.gen_fig1()
        elif family == "det-hallway":
            p = bench.gen_det_hallway()
        elif family == "escape":
            p = bench.gen_escape(args.n)
        elif family == "rocksample":
            p = bench.gen_rocksample(args.n)
        else:
            spec = bench.GridSpec.from_ascii(_read(args.layout), p_fail=Fraction(args.p_fail),
                                             oriented=args.oriented, heading=args.heading)
            p = bench.gen_hallway(spec)
    except (ValueError, ZeroDivisionError) as e:
        # bad size, bad layout, bad fraction: all argument problems
        raise UsageError(str(e))
    text = print_pomdp(p)
    if args.out:
        _write(args.out, text)
        print(f"{family}: {p.n_states} states, {p.n_actions} actions -> {args.out}")
    else:
        print(text, end="")
    return EXIT_REALIZABLE


def cmd_export_dimacs(ns):
    p, sc = _load_model(ns)
    prep = prepare(p, ns.mu, ns.nu, deterministic=ns.deterministic,
                   strict=ns.strict, constraints=sc)
    if not prep.needs_formula(ns.nu):
        if not ns.quiet:
            print("no formula: the initial state is outside the MDP's almost-sure winning "
                  "region or the completed alphabet is empty, so the instance is Unrealizable")
        return EXIT_UNREALIZABLE
    cnf, vm = prep.encode(ns.mu, ns.nu)
    prep.search(cnf, vm, Solver(cnf))  # add the trap cuts that settle it
    out = ns.out or os.path.splitext(os.path.basename(ns.input))[0] + ".cnf"
    write_dimacs(cnf, out)
    with open(out + ".map", "w", encoding="utf-8") as fh:
        for v in range(1, vm.n_semantic + 1):
            fh.write(f"{v} {vm.var_name(v)}\n")
    if not ns.quiet:
        print(f"{cnf.nvars} vars ({vm.n_semantic} semantic), {len(cnf)} clauses -> {out}")
    return EXIT_REALIZABLE


def _add_common(sp, solver_flags=True):
    """The model and formula flags; solver_flags adds --solver and the budget."""
    sp.add_argument("input", help="model file")
    sp.add_argument("--mu", type=int, default=1, help="memory elements (>= 1)")
    sp.add_argument("--nu", type=int, default=0, help="fresh observations allowed (>= 0)")
    sp.add_argument("--deterministic", action="store_true",
                    help="require a deterministic completion")
    sp.add_argument("--strict", action="store_true",
                    help="let a row add only fresh observations")
    sp.add_argument("--constraints", metavar="FILE", help="side constraint file")
    if solver_flags:
        sp.add_argument("--solver", default=os.environ.get("SENSYNTH_SOLVER"),
                        help="'embedded' or an external command template with {input} "
                             "(default: SENSYNTH_SOLVER or embedded)")
        sp.add_argument("--max-conflicts", type=int, default=None)
        sp.add_argument("--max-seconds", type=float, default=None)
    sp.add_argument("--quiet", action="store_true", help="suppress the report")


def build_parser():
    ap = _Parser(prog="sensynth",
                 description="Synthesize sensors and finite-memory controllers "
                             "for almost-sure reachability in POMDPs.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("synth", help="decide one (mu, nu) instance")
    _add_common(sp)
    sp.add_argument("--result", metavar="FILE", help="write the result document here")
    sp.add_argument("--render-grid", action="store_true",
                    help="ASCII map of the observation classes (grid models)")

    sp = sub.add_parser("verify", help="check a result document against a model")
    sp.add_argument("input", help="model file")
    sp.add_argument("document", help="result document from synth")
    sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("sweep", help="tabulate verdicts over (mu, nu) ranges")
    _add_common(sp)
    sp.add_argument("--mu-range", metavar="N..M", help="overrides --mu")
    sp.add_argument("--nu-range", metavar="N..M", help="overrides --nu")
    sp.add_argument("--csv", metavar="FILE", dest="out",
                    help="write the CSV here (else stdout)")

    sp = sub.add_parser("gen", help="write a benchmark model")
    sp.add_argument("family", choices=_FAMILIES)
    sp.add_argument("--n", type=int, default=2, help="size parameter (escape, rocksample)")
    sp.add_argument("--layout", metavar="FILE", help="ASCII grid (hallway)")
    sp.add_argument("--p-fail", default="0", help="action failure probability (hallway)")
    sp.add_argument("--oriented", action="store_true", help="heading-carrying states (hallway)")
    sp.add_argument("--heading", default="N", choices=("N", "E", "S", "W"))
    sp.add_argument("--out", metavar="FILE", help="output path (else stdout)")

    sp = sub.add_parser("export-dimacs", help="write the CNF and a variable map")
    _add_common(sp, solver_flags=False)
    sp.add_argument("--out", metavar="FILE", help="output path (default <model>.cnf)")
    return ap


_COMMANDS = {"synth": cmd_synth, "verify": cmd_verify, "sweep": cmd_sweep,
             "gen": cmd_gen, "export-dimacs": cmd_export_dimacs}


def main(argv=None):
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
        if "mu" in ns:
            if ns.mu < 1:
                raise UsageError("--mu must be >= 1")
            if ns.nu < 0:
                raise UsageError("--nu must be >= 0")
        code = _COMMANDS[ns.cmd](ns)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # reader gone (`| head`): keep the exit flush silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ModelError, ResultParseError, ExternalSolverError, OSError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (EncoderFault, AssertionError) as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
