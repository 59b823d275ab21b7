"""Acceptance gate: the nine release criteria, one test each.

Shared solving work lives in module-scoped fixtures; every Realizable
outcome produced here lands in the corpus that the verifier-soundness and
simulation criteria sweep.  Each test prints one criterion line.
"""

import random
import time

import pytest

from conftest import external_solver, random_pomdp, reweight
from sensynth.bench import (GridSpec, gen_det_hallway, gen_escape, gen_fig1,
                            gen_hallway, gen_rocksample)
from sensynth.model import parse_pomdp
from sensynth.synth import synthesize
from sensynth.verify import (brute_force_decide, build_product,
                             check_almost_sure, simulate)

ORDER = {"Unknown": 0, "Unrealizable": 1, "Realizable": 2}

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


def _timed(p, mu, nu, **kw):
    t0 = time.perf_counter()
    out = synthesize(p, mu, nu, **kw)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig1_runs():
    p = gen_fig1()
    return p, {(mu, nu): _timed(p, mu, nu) for mu, nu in
               ((3, 1), (2, 2), (2, 1))}


@pytest.fixture(scope="module")
def dh_runs():
    p = gen_det_hallway()
    return p, {(mu, nu): _timed(p, mu, nu) for mu, nu in ((4, 2), (3, 3), (3, 2))}


@pytest.fixture(scope="module")
def oracle_runs():
    rng = random.Random(4)
    runs = []
    for _ in range(200):
        p = random_pomdp(rng)
        mu, nu = rng.randint(1, 2), rng.randint(0, 1)
        out = synthesize(p, mu, nu, deterministic=True)
        want = brute_force_decide(p, mu, nu, deterministic=True)
        runs.append((p, out, want))
    return runs


@pytest.fixture(scope="module")
def reweight_runs():
    rng = random.Random(5)
    runs = []
    for _ in range(50):
        p = random_pomdp(rng)
        mu, nu = rng.randint(1, 2), rng.randint(0, 1)
        p2 = reweight(p, rng)
        runs.append((p, synthesize(p, mu, nu), p2, synthesize(p2, mu, nu)))
    return runs


@pytest.fixture(scope="module")
def named_runs():
    corridor = gen_hallway(GridSpec.from_ascii(
        "g.+", p_fail="1/2", oriented=True, heading="W"))
    split = parse_pomdp(SPLIT)
    models = {
        "escape2": (gen_escape(2), [((2, 1), {}), ((1, 1), {})]),
        "rock1": (gen_rocksample(1), [((1, 1), {})]),
        "corridor": (corridor, [((1, 0), {})]),
        "split": (split, [((3, 0), {}), ((3, 1), dict(strict=True))]),
    }
    runs = []
    for name, (p, cells) in models.items():
        for (mu, nu), kw in cells:
            runs.append((f"{name}({mu},{nu})", p, synthesize(p, mu, nu, **kw),
                         kw))
    return runs


@pytest.fixture(scope="module")
def corpus(fig1_runs, dh_runs, oracle_runs, reweight_runs, named_runs):
    """Every Realizable outcome this module produced (the soundness sweep)."""
    entries = []
    p, runs = fig1_runs
    entries += [(f"fig1{mn}", p, out) for mn, (out, _) in runs.items()]
    p, runs = dh_runs
    entries += [(f"hallway{mn}", p, out) for mn, (out, _) in runs.items()]
    entries += [(f"oracle-{i}", p, out)
                for i, (p, out, _) in enumerate(oracle_runs)]
    for i, (p1, o1, p2, o2) in enumerate(reweight_runs):
        entries += [(f"weights-{i}a", p1, o1), (f"weights-{i}b", p2, o2)]
    entries += [(label, p, out) for label, p, out, _ in named_runs]
    return [(label, p, out) for label, p, out in entries
            if out.verdict == "Realizable"]


def test_criterion_1_corridor_example(fig1_runs):
    _, runs = fig1_runs
    verdicts = {mn: out.verdict for mn, (out, _) in runs.items()}
    assert verdicts == {(3, 1): "Realizable", (2, 2): "Realizable",
                        (2, 1): "Unrealizable"}
    worst = max(dt for _, dt in runs.values())
    assert worst < 1.0
    print(f"criterion 1: PASS - corridor verdicts exact, slowest {worst:.2f}s < 1s")


def test_criterion_2_hallway_instances(dh_runs):
    p, runs = dh_runs
    verdicts = {mn: out.verdict for mn, (out, _) in runs.items()}
    assert verdicts == {(4, 2): "Realizable", (3, 3): "Realizable",
                        (3, 2): "Unrealizable"}
    worst = max(dt for _, dt in runs.values())
    assert worst < 120.0
    out = runs[(3, 3)][0]
    image = {p.actions[a] for row in out.policy.act for a in row}
    assert image == {"W", "E", "S"}
    print(f"criterion 2: PASS - hallway verdicts exact, action image {{W,E,S}}, "
          f"slowest {worst:.1f}s < 120s")


def test_criterion_3_verifier_soundness(corpus):
    bad = [label for label, p, out in corpus
           if not check_almost_sure(
               build_product(out.model, out.completion, out.policy)).ok]
    assert bad == [], f"certificates failed for {bad}"
    print(f"criterion 3: PASS - {len(corpus)}/{len(corpus)} Realizable outcomes "
          f"pass the almost-sure check")


def test_criterion_4_oracle_agreement(oracle_runs):
    wrong = [(p, out.verdict, want) for p, out, want in oracle_runs
             if (out.verdict == "Realizable") != want]
    assert not wrong, f"{len(wrong)} disagreements with the brute-force oracle"
    print(f"criterion 4: PASS - {len(oracle_runs)}/200 instances agree with "
          f"the exhaustive oracle")


def test_criterion_5_weight_invariance(reweight_runs):
    changed = [i for i, (_, o1, _, o2) in enumerate(reweight_runs)
               if o1.verdict != o2.verdict]
    assert changed == []
    print(f"criterion 5: PASS - verdict unchanged under reweighting on "
          f"{len(reweight_runs)}/50 instances")


def test_criterion_6_monotonicity():
    # each model on a 2 x 2 square of cells: fig1 on the one around its
    # frontier, (2, 1) Unrealizable and the other three Realizable
    rng = random.Random(6)
    cases = [(random_pomdp(rng), (1, 2), (0, 1)) for _ in range(32)]
    cases.append((gen_fig1(), (2, 3), (1, 2)))
    for p, mus, nus in cases:
        v = [[ORDER[synthesize(p, m, u).verdict] for u in nus] for m in mus]
        assert v[0][0] <= v[1][0] and v[0][1] <= v[1][1]  # mu axis
        assert v[0][0] <= v[0][1] and v[1][0] <= v[1][1]  # nu axis
    print(f"criterion 6: PASS - verdicts monotone in mu and nu over "
          f"{len(cases)} instances")


def test_criterion_7_simulation(fig1_runs, dh_runs, named_runs):
    # the named instances' verified (mu, nu) pairs; random corpus members
    # are structurally free to mix slower than any fixed horizon
    pairs = []
    p, runs = fig1_runs
    pairs += [(f"fig1{mn}", out) for mn, (out, _) in runs.items()]
    p, runs = dh_runs
    pairs += [(f"hallway{mn}", out) for mn, (out, _) in runs.items()]
    pairs += [(label, out) for label, _, out, _ in named_runs]
    low = []
    for label, out in pairs:
        if out.verdict != "Realizable":
            continue
        horizon = 10 * out.model.n_states * len(out.policy.act)
        freq = simulate(out.model, out.completion, out.policy,
                        episodes=10 ** 4, horizon=horizon, seed=11)
        if freq < 0.99:
            low.append((label, freq))
    assert low == [], f"reach frequency below 0.99: {low}"
    n = sum(out.verdict == "Realizable" for _, out in pairs)
    print(f"criterion 7: PASS - all {n} verified Realizable pairs reach the "
          f"goal in >= 99% of 10^4 episodes")


def test_criterion_8_scale_smoke():
    p = gen_escape(10)
    assert p.n_states >= 1000
    cmd = external_solver()
    solver = "external solver" if cmd else "embedded solver"
    t0 = time.perf_counter()
    out = synthesize(p, 5, 5, solver=cmd)
    dt = time.perf_counter() - t0
    assert dt < 900.0
    assert out.verdict == "Realizable"
    assert out.certificate.ok
    print(f"criterion 8: PASS - escape n=10 ({p.n_states} states, "
          f"rounds={out.stats.rounds}, {out.stats.clauses} clauses) solved in "
          f"{dt:.1f}s via {solver}")


def test_criterion_8_escape8_default_bound():
    # both sides of escape 8's frontier; the formulas are small because the
    # pre-pass region keeps only the corner cells
    p = gen_escape(8)
    t0 = time.perf_counter()
    refuted, found = synthesize(p, 1, 2), synthesize(p, 2, 2)
    dt = time.perf_counter() - t0
    assert refuted.verdict == "Unrealizable"
    assert found.verdict == "Realizable" and found.certificate.ok
    assert dt < 20.0
    print(f"criterion 8: PASS - escape n=8 (1,2) Unrealizable in "
          f"rounds={refuted.stats.rounds}, (2,2) Realizable in "
          f"rounds={found.stats.rounds}, {dt:.1f}s < 20s")


def test_criterion_9_cross_solver(fig1_runs, dh_runs, named_runs):
    cmd = external_solver()
    if cmd is None:
        pytest.skip("criterion 9: SKIP - no external solver binary available")
    mismatches = []
    checked = 0
    fig1, runs = fig1_runs
    jobs = [("fig1", fig1, mu, nu, {}, out.verdict)
            for (mu, nu), (out, _) in runs.items()]
    dh, runs = dh_runs
    jobs += [("hallway", dh, mu, nu, {}, out.verdict)
             for (mu, nu), (out, _) in runs.items()]
    jobs += [(label, p, out.mu, out.nu, kw, out.verdict)
             for label, p, out, kw in named_runs]
    for label, p, mu, nu, kw, embedded in jobs:
        theirs = synthesize(p, mu, nu, solver=cmd, **kw).verdict
        if theirs != embedded:
            mismatches.append((label, mu, nu, embedded, theirs))
        checked += 1
    assert mismatches == []
    print(f"criterion 9: PASS - embedded and external verdicts agree on "
          f"{checked}/{checked} corpus instances")
