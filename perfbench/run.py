"""sensynth benchmark.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 24 --trace 0

Runs one workload of suite.json as a closed loop: one client in one process,
no threads, each instance started after the previous one returned, in a fixed
order, in rounds until --seconds have passed and one round is complete.
Every verdict is checked against its expected answer, and the solver-visible
counts against every earlier execution of the same source tree.

The host's speed changes by up to a factor of two for seconds to minutes at
a time, so a plain time moves by 10-30% from run to run.  With --trace 0 every
execution is therefore paired with executions of the same instance by the
reference, a frozen copy of the program in reference/ run by refworker.py on
the same CPU, just before and just after it.  A timing unit's time is the
median over its pairs of program time / mean reference time, times
the seconds the reference took on that unit when the benchmark was defined
(suite.json, reference_s): seconds at that host speed.  A unit is one fixed
instance, or a block of consecutive random models of frontier.  setup_s pairs
fresh program and reference set-ups the same way (reference_setup_s).

The report ends with one JSON line {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, timed with no
tracing.  With --trace 1 each instance runs once untraced and once traced, and
the metrics are the per-layer figures of the traced replay (spans.py), its wall
time, and the difference from the untraced wall time (the tracing overhead).
`attempted` counts synthesize-level calls, one per sweep cell.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SUITE = json.loads((HERE / "suite.json").read_text())
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}
DETERMINISTIC = ("vars", "clauses", "conflicts", "decisions", "propagations")


def setup(workload, seed):
    """Import sensynth, generate the models and their text, and (frontier)
    compute the oracle answers; returns (instances, seconds)."""
    t0 = perf_counter()
    import sensynth
    if Path(sensynth.__file__).resolve().parent != ROOT / "src" / "sensynth":
        raise SystemExit(f"sensynth imported from {sensynth.__file__}, not from this tree")
    import workloads
    instances = workloads.build(workload, seed)
    return instances, perf_counter() - t0


def probe_setup(workload, seed):
    """Set-up time of a fresh interpreter, which imports everything cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


def probe_reference_setup(workload, seed):
    """Set-up time of the reference in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "refworker.py"), "setup", workload, str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


def paired_setup(workload, seed):
    """setup_s: fresh program and reference set-ups in alternating order; the
    median of program / reference times the reference's nominal set-up."""
    pairs = []
    for n in range(SUITE["setup_samples"]):
        if n % 2:
            ref_s = probe_reference_setup(workload, seed)
            pairs.append((probe_setup(workload, seed), ref_s))
        else:
            program_s = probe_setup(workload, seed)
            pairs.append((program_s, probe_reference_setup(workload, seed)))
    ratio = statistics.median(a / b for a, b in pairs)
    return ratio * SUITE["workloads"][workload]["reference_setup_s"], pairs


def tree_hash():
    """Hash of the program and of the benchmark's own inputs and code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py"), HERE / "suite.json"]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Determinism:
    """Counts that must repeat exactly, within this run and across every run
    of the same program and benchmark (kept in .perfbench/counts.json).

    The store grows with every seed run, so it is read only by `reconcile`,
    after the run's peak resident set has been taken."""

    def __init__(self):
        self.path = STATE / "counts.json"
        self.seen = {}

    def drift(self, key, counts):
        ref = self.seen.setdefault(key, {})
        out = [f"{k} {ref[k]} != {counts[k]}" for k in DETERMINISTIC
               if k in counts and k in ref and ref[k] != counts[k]]
        for k in DETERMINISTIC:
            if k in counts:
                ref.setdefault(k, counts[k])
        return out

    def reconcile(self):
        """Compare this run's counts with those stored for the same tree,
        store both, and return [(key, drift)] for every disagreement."""
        tree = tree_hash()
        try:
            stored = json.loads(self.path.read_text()).get(tree, {})
        except (FileNotFoundError, ValueError):
            stored = {}
        out = []
        for key, counts in self.seen.items():
            ref = stored.setdefault(key, counts)
            drift = [f"{k} {ref[k]} != {counts[k]}" for k in DETERMINISTIC
                     if k in counts and k in ref and ref[k] != counts[k]]
            if drift:
                out.append((key, drift))
        STATE.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({tree: stored}))
        os.replace(tmp, self.path)
        return out


class Tally:
    """Attempted and failed calls of one run, with the first problems seen."""

    def __init__(self, workload, determinism):
        self.workload = workload
        self.det = determinism
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, inst, cell, why):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{inst.id} {cell}: {why}")

    def check(self, inst, cells, elapsed, kind="untraced"):
        """Count every cell of one execution; a cell fails on a wrong or
        missing verdict, a failed re-check, drifting counts or the time cap.
        Traced and untraced counts are kept apart: their agreement is a
        property of the replay, reported as trace.mismatches."""
        over = elapsed > SUITE["time_cap_s"]
        for cell in inst.cells:
            self.attempted += 1
            got = cells.get(cell)
            want = inst.expect[cell]
            if got is None:
                self.fail(inst, cell, "no result")
            elif got.verdict != want:
                self.fail(inst, cell, f"verdict {got.verdict}, expected {want}")
            elif got.recheck_ok is False:
                self.fail(inst, cell, "result document fails the almost-sure re-check")
            elif over:
                self.fail(inst, cell, f"{elapsed:.1f} s exceeds the {SUITE['time_cap_s']} s cap")
            else:
                key = f"{kind}/{self.workload}/{inst.id}/{cell[0]},{cell[1]}"
                drift = self.det.drift(key, got.counts)
                if drift:
                    self.fail(inst, cell, "counts drifted: " + ", ".join(drift))

    def reconcile(self):
        """Fail every cell whose counts differ from an earlier run of the
        same tree."""
        for key, drift in self.det.reconcile():
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{key}: counts differ from an earlier run: "
                                     + ", ".join(drift))

    def crashed(self, inst):
        why = "raised " + traceback.format_exc().strip().splitlines()[-1]
        for cell in inst.cells:
            self.attempted += 1
            self.fail(inst, cell, why)
        traceback.print_exc()


def closed_loop(instances, seconds, execute):
    """Run rounds, each a pass over the instances in order, until `seconds`
    have passed and one round is complete; the heap is collected between
    calls."""
    t0 = perf_counter()
    i = 0
    while i < len(instances) or perf_counter() - t0 < seconds:
        gc.collect()
        execute(instances[i % len(instances)])
        i += 1


def fastest(samples):
    """Fastest execution of each instance that completed at least once; the
    others have already been counted as failed."""
    return {k: min(v) for k, v in samples.items() if v}


class Reference:
    """refworker.py: the frozen program, on this process's CPU, executing one
    of our instances when asked while this process waits."""

    def __init__(self, instances):
        cmd = [sys.executable, str(HERE / "refworker.py"), "serve"]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        specs = [{"id": i.id, "text": i.text, "cells": i.cells, "expect": {},
                  "is_sweep": i.is_sweep, "k": i.k, "deterministic": i.deterministic,
                  "mu_range": i.mu_range, "nu_range": i.nu_range} for i in instances]
        self.proc.stdin.write(json.dumps(specs) + "\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference worker did not start")

    def time(self, index):
        """Seconds the reference took to execute instances[index]."""
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def timing_units(workload, instances):
    """{unit: (instance ids, nominal reference seconds)}: each fixed instance,
    and frontier's random models in blocks of consecutive ones."""
    nominal = SUITE["workloads"][workload]["reference_s"]
    units = {inst.id: ([inst.id], nominal[inst.id]) for inst in instances if inst.id in nominal}
    drawn = [inst.id for inst in instances if inst.id not in nominal]
    size = SUITE["random_models"]["block"]
    for b in range(0, len(drawn), size):
        units[f"random-block-{b // size + 1}"] = (drawn[b:b + size], nominal["random-block"])
    return units


def unit_times(workload, instances, pairs):
    """{unit: (seconds at the reference's nominal speed, pairs, ratio,
    median reference seconds in this run)} for every unit that completed at
    least one pass; a block's pair in one round is the sum over its instances."""
    out = {}
    for unit, (ids, nominal) in timing_units(workload, instances).items():
        passes = min(len(pairs[i]) for i in ids)
        if not passes:
            continue
        sums = [(sum(pairs[i][n][0] for i in ids), sum(pairs[i][n][1] for i in ids))
                for n in range(passes)]
        ratio = statistics.median(a / b for a, b in sums)
        out[unit] = (ratio * nominal, passes, ratio, statistics.median(b for _, b in sums))
    return out


def end_to_end(workload, instances, pairs, tally, setup_s, peak_rss_mb):
    units = timing_units(workload, instances)
    times = unit_times(workload, instances, pairs)
    per_call = [times[u][0] / sum(len(i.cells) for i in instances if i.id in units[u][0])
                for u in times]
    return {
        "wall_s": sum(t[0] for t in times.values()),
        "call_p50_ms": statistics.median(per_call) * 1000 if per_call else 0.0,
        "slowest_s": max((t[0] for t in times.values()), default=0.0),
        "peak_rss_mb": peak_rss_mb,
        "pass_share": 1 - tally.failed / tally.attempted,
        "setup_s": setup_s,
    }


def run_plain(instances, seconds, tally, ref):
    """Paired executions: {instance: [(program seconds, reference seconds)]}."""
    import workloads
    pairs = {inst.id: [] for inst in instances}
    index = {inst.id: n for n, inst in enumerate(instances)}

    def execute(inst):
        """A chain R P R P ... R of inst.repeat program executions P, each
        between two reference executions R of the same instance; each P is
        paired with the mean of its two neighbours, which cancels a steady
        drift of the host's speed."""
        before = ref.time(index[inst.id])
        for _ in range(inst.repeat):
            gc.collect()
            try:
                elapsed, cells = workloads.run_untraced(inst)
            except Exception:
                tally.crashed(inst)
                return
            gc.collect()
            after = ref.time(index[inst.id])
            pairs[inst.id].append((elapsed, (before + after) / 2))
            tally.check(inst, cells, elapsed)
            before = after

    closed_loop(instances, seconds, execute)
    return pairs


def run_traced(workload, instances, seconds, tally):
    """Untraced then traced execution of each instance; per-layer metrics."""
    import spans
    import workloads
    tr = spans.Tracer()
    untraced = {inst.id: [] for inst in instances}
    traced = {inst.id: [] for inst in instances}
    layers = {inst.id: [] for inst in instances}
    verdicts = {inst.id: {} for inst in instances}
    mismatches = []

    def execute(inst):
        try:
            u_elapsed, u_cells = workloads.run_untraced(inst)
        except Exception:
            tally.crashed(inst)
            return
        untraced[inst.id].append(u_elapsed)
        tally.check(inst, u_cells, u_elapsed)
        gc.collect()
        try:
            t_elapsed, t_cells, first = spans.run_traced(tr, inst)
        except Exception:
            tally.crashed(inst)
            return
        traced[inst.id].append(t_elapsed)
        tally.check(inst, t_cells, t_elapsed, kind="traced")
        layers[inst.id].append((t_elapsed, spans.execution_metrics(tr.spans, first)))
        for cell, t in t_cells.items():
            verdicts[inst.id][cell] = t.verdict
            u = u_cells.get(cell)
            same = (u is not None and u.verdict == t.verdict
                    and all(u.counts[k] == t.counts[k] for k in u.counts)
                    and t.counts["family_clauses"] == u.counts["clauses"])
            if not same:
                mismatches.append(f"{inst.id} {cell}: untraced {u}, traced {t}")

    closed_loop(instances, seconds, execute)
    ran = [inst for inst in instances if layers[inst.id]]
    metrics = spans.combine({inst.id: layers[inst.id] for inst in ran})
    metrics["synth.implied_share"] = spans.implied_share(ran, verdicts)
    metrics["trace.wall_s"] = sum(fastest({i.id: traced[i.id] for i in ran}).values())
    metrics["trace.untraced_wall_s"] = sum(fastest({i.id: untraced[i.id] for i in ran}).values())
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.mismatches"] = len(mismatches)
    STATE.mkdir(exist_ok=True)
    spans.dump(tr.spans, STATE / f"spans-{workload}.jsonl")
    for line in mismatches[:20]:
        print("trace mismatch:", line)
    print(f"spans: {len(tr.spans)} written to {STATE.name}/spans-{workload}.jsonl")
    print("note: the traced replay times public calls from outside synthesize; "
          "logic added inside synthesize later (a pre-pass, say) is not seen "
          "by it, and shows as trace mismatches")
    return untraced, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SUITE["workloads"]))
    ap.add_argument("--seed", type=int, default=SUITE["random_models"]["default_seed"],
                    help="draws the random models of the frontier workload")
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    # one CPU for this process, the set-up probes and the reference worker
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    instances, t_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(t_setup)
        return 0

    tally = Tally(args.workload, Determinism())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"instances {len(instances)}  calls per round {sum(len(i.cells) for i in instances)}")
    if args.trace:
        samples, metrics = run_traced(args.workload, instances, args.seconds, tally)
        tally.reconcile()
        for inst in instances[:25]:
            times = samples[inst.id]
            print(f"  {inst.id:18s} {len(inst.cells):2d} call(s)  runs {len(times)}  "
                  f"fastest {min(times) * 1000:10.1f} ms" if times else
                  f"  {inst.id:18s} no completed run")
    else:
        setup_s, setup_pairs = paired_setup(args.workload, args.seed)
        print(f"set-up: this process {t_setup:.4f} s; fresh program / reference: "
              + ", ".join(f"{a:.4f}/{b:.4f} s" for a, b in setup_pairs))
        ref = Reference(instances)
        try:
            pairs = run_plain(instances, args.seconds, tally, ref)
        finally:
            ref.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tally.reconcile()
        metrics = end_to_end(args.workload, instances, pairs, tally, setup_s, peak_rss_mb)
        for unit, (t, passes, ratio, ref_s) in unit_times(args.workload, instances,
                                                          pairs).items():
            print(f"  {unit:18s} pairs {passes:3d}  program/reference {ratio:7.4f}  "
                  f"time {t * 1000:10.1f} ms  (reference here {ref_s * 1000:.1f} ms)")
        print("call_p50_ms is the median over these units of unit time / calls in it")
    for line in tally.problems:
        print("FAILED", line)
    print(f"fail_share = {tally.failed}/{tally.attempted}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {UNITS[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
