"""Reference clock of the sensynth benchmark.

    python3 perfbench/refworker.py setup WORKLOAD SEED
    python3 perfbench/refworker.py serve

Runs the frozen copy of sensynth in reference/ (the program as it was when
the benchmark was defined).  `setup` builds the workload's instances with it,
as run.py's set-up does with the program under test, and prints the seconds
that took (import included).  `serve` reads one JSON line with the instances
run.py built (model text and calls), so both sides execute the same inputs,
prints "ready", then reads one instance index per line, executes that instance
untraced and prints its time in seconds.  It exits at end of input.

run.py starts `serve` on the CPU it runs on itself and alternates with it, one
process busy at a time, so every execution of the program under test has
reference executions of the same instance next to it in time.
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path
from time import perf_counter

T0 = perf_counter()

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE / "reference"), str(HERE)]

import sensynth  # noqa: E402

if Path(sensynth.__file__).resolve().parent != HERE / "reference" / "sensynth":
    raise SystemExit(f"reference sensynth imported from {sensynth.__file__}")

import workloads  # noqa: E402


def serve():
    instances = [workloads.Instance(**{**spec, "cells": tuple(map(tuple, spec["cells"]))})
                 for spec in json.loads(sys.stdin.readline())]
    print("ready", flush=True)
    for line in sys.stdin:
        gc.collect()
        elapsed, _ = workloads.run_untraced(instances[int(line)])
        print(repr(elapsed), flush=True)


def main():
    if sys.argv[1] == "setup":
        workloads.build(sys.argv[2], int(sys.argv[3]))
        print(perf_counter() - T0)
    else:
        serve()


if __name__ == "__main__":
    main()
