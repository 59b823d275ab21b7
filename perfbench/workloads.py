"""Instances of the sensynth benchmark and their untraced execution.

Importing this module imports sensynth, so run.py imports it inside the timed
set-up.  Models are generated once per process and handed to the timed path as
model text: every execution starts with parse_pomdp, as the CLI does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from sensynth.bench import (GridSpec, gen_det_hallway, gen_escape, gen_fig1,
                            gen_hallway, gen_rocksample)
from sensynth.model import (BOT, PartialObsFn, Pomdp, parse_pomdp, print_pomdp,
                            reduce_targets, validate)
from sensynth.sat import Budget
from sensynth.synth import format_result, parse_result, sweep, synthesize
from sensynth.verify import (BruteForceGuardError, brute_force_decide, build_product,
                             check_almost_sure)

SUITE = json.loads((Path(__file__).resolve().parent / "suite.json").read_text())


@dataclass
class Instance:
    """One unit of work: a single synthesize call, or a sweep over cells."""

    id: str
    text: str  # model text; parsed on the timed path
    cells: tuple  # ((mu, nu), ...) in ascending sweep order
    expect: dict  # (mu, nu) -> expected verdict
    is_sweep: bool
    k: int = None
    deterministic: bool = False
    repeat: int = 1  # consecutive executions per round
    mu_range: tuple = ()
    nu_range: tuple = ()


@dataclass
class Cell:
    """What one synthesize-level call returned."""

    verdict: str
    counts: dict  # vars, clauses, conflicts (and more when traced)
    recheck_ok: bool = None  # result-document re-check, Realizable only


def random_pomdp(rng, ns, na, nz):
    """Small random model with ns states, na actions and nz observations and
    an absorbing goal.

    Given its shape, the same distribution as the random models of the test
    suite: one or two successors per (state, action), random partial
    observation rows.
    """
    goal = ns - 1

    def weights(n):
        raw = [rng.randint(1, 5) for _ in range(n)]
        return [Fraction(r, sum(raw)) for r in raw]

    delta = []
    for s in range(ns):
        if s == goal:
            delta.append(tuple(((s, Fraction(1)),) for _ in range(na)))
            continue
        rows = []
        for _ in range(na):
            supp = rng.sample(range(ns), rng.randint(1, min(2, ns)))
            rows.append(tuple(sorted(zip(supp, weights(len(supp))))))
        delta.append(tuple(rows))

    obs_rows = []
    for s in range(ns):
        zs = sorted(rng.sample(range(nz), rng.randint(0, nz))) if nz else []
        use_bot = not zs or rng.random() < 0.5
        syms = zs + ([BOT] if use_bot else [])
        obs_rows.append(tuple(zip(syms, weights(len(syms)))))

    p = Pomdp(states=tuple(f"s{i}" for i in range(ns)),
              actions=tuple(f"a{j}" for j in range(na)),
              observations=tuple(f"z{t}" for t in range(nz)),
              initial=0, goal=goal, delta=tuple(delta),
              obs=PartialObsFn(tuple(obs_rows)))
    p = reduce_targets(p, [goal])
    problems = validate(p)
    if problems:
        raise ValueError(f"random model is invalid: {problems}")
    return p


def _model(spec):
    kind, _, arg = spec.partition(" ")
    if kind == "fig1":
        return gen_fig1()
    if kind == "det_hallway":
        return gen_det_hallway()
    if kind == "escape":
        return gen_escape(int(arg))
    if kind == "rocksample":
        return gen_rocksample(int(arg))
    if kind == "grid":
        g = SUITE["grids"][arg]
        return gen_hallway(GridSpec.from_ascii(g["art"].replace("/", "\n"),
                                               p_fail=Fraction(g["p_fail"])))
    raise ValueError(f"unknown model {spec!r}")


def _cell_key(text):
    mu, nu = text.split(",")
    return int(mu), int(nu)


def _random_instances(seed):
    """The seeded random models, each with its four oracle answers.

    The test suite draws states, actions and observations uniformly; here
    model i takes the i-th shape of that grid in turn, so every seed has the
    same mix of sizes and the seed draws only the dynamics and sensing.  A
    draw for which the brute-force oracle would examine more candidates than
    the suite's guard in some cell is replaced by another of the same shape,
    which keeps set-up time bounded and nearly the same for every seed.
    """
    cfg = SUITE["random_models"]
    rng = random.Random(seed)
    shapes = [(ns, na, nz) for ns in range(cfg["states"][0], cfg["states"][1] + 1)
              for na in range(cfg["actions"][0], cfg["actions"][1] + 1)
              for nz in range(cfg["observations"][0], cfg["observations"][1] + 1)]
    cells = tuple((mu, nu) for mu in cfg["mu"] for nu in cfg["nu"])
    out = []
    while len(out) < cfg["count"]:
        p = random_pomdp(rng, *shapes[len(out) % len(shapes)])
        try:
            expect = {(mu, nu): "Realizable" if brute_force_decide(
                          p, mu, nu, deterministic=True, guard=cfg["oracle_guard"])
                      else "Unrealizable" for mu, nu in cells}
        except BruteForceGuardError:
            continue
        out.append(Instance(id=f"random{seed}-{len(out)}", text=print_pomdp(p), cells=cells,
                            expect=expect, is_sweep=True,
                            deterministic=cfg["deterministic"],
                            mu_range=tuple(cfg["mu"]), nu_range=tuple(cfg["nu"])))
    return out


def build(workload, seed):
    """The workload's instances in their fixed order (the set-up step)."""
    models = {}
    out = []
    for spec in SUITE["workloads"][workload]["instances"]:
        if spec["model"] == "random":
            out += _random_instances(seed)
            continue
        if spec["model"] not in models:
            models[spec["model"]] = print_pomdp(_model(spec["model"]))
        text = models[spec["model"]]
        det = spec.get("deterministic", False)
        if isinstance(spec["mu"], list):
            cells = tuple((mu, nu) for mu in spec["mu"] for nu in spec["nu"])
            expect = {_cell_key(c): v for c, v in spec["expect"].items()}
            out.append(Instance(id=spec["id"], text=text, cells=cells, expect=expect,
                                is_sweep=True, deterministic=det,
                                repeat=spec.get("repeat", 1),
                                mu_range=tuple(spec["mu"]), nu_range=tuple(spec["nu"])))
        else:
            cell = (spec["mu"], spec["nu"])
            out.append(Instance(id=spec["id"], text=text, cells=(cell,),
                                expect={cell: spec["expect"]}, is_sweep=False,
                                k=spec.get("k"), deterministic=det,
                                repeat=spec.get("repeat", 1)))
    return out


def budget():
    """Search budget of one call: the per-instance time cap."""
    return Budget(max_seconds=SUITE["time_cap_s"])


def _counts(stats):
    return {"vars": stats.vars, "clauses": stats.clauses, "conflicts": stats.conflicts}


def recheck(p, out):
    """What `sensynth verify` does with a result document: True iff the
    re-parsed completion and policy pass the almost-sure check."""
    doc = parse_result(format_result(out), p)
    return check_almost_sure(build_product(p, doc.completion, doc.policy)).ok


def run_untraced(inst):
    """Time one execution of inst; returns (seconds, {(mu, nu): Cell})."""
    t0 = perf_counter()
    p = parse_pomdp(inst.text)
    if inst.is_sweep:
        rows = sweep(p, inst.mu_range, inst.nu_range,
                     deterministic=inst.deterministic, budget=budget())
        cells = {(r.mu, r.nu): Cell(r.verdict, _counts(r.stats)) for r in rows}
    else:
        (mu, nu), = inst.cells
        out = synthesize(p, mu, nu, k=inst.k, deterministic=inst.deterministic,
                         budget=budget())
        ok = recheck(p, out) if out.verdict == "Realizable" else None
        cells = {(mu, nu): Cell(out.verdict, _counts(out.stats), ok)}
    return perf_counter() - t0, cells
