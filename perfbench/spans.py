"""Traced execution: the benchmark's own spans around public sensynth calls.

run_traced replays what synthesize does (encode family by family, load the
solver, search, self-check, decode, verify) so each layer gets a span.  It sees
only those public calls: logic later added inside synthesize, such as a
pre-pass that skips the SAT call, is invisible here until the program records
spans of its own.  run.py therefore compares every traced verdict and count
with an untraced execution of the same instance.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter

from sensynth import sat
from sensynth.encode import (Cnf, SideConstraints, VarMap, encode_action_selection,
                             encode_memory_update, encode_observation_fn,
                             encode_path_predicate, encode_reach_closure,
                             encode_side_constraints, encode_symmetry)
from sensynth.model import parse_pomdp
from sensynth.synth import (EncoderFault, Realizable, SynthStats, Unknown, Unrealizable,
                            decode_completion, decode_policy, format_result, parse_result)
from sensynth.verify import build_product, check_almost_sure

from workloads import Cell, budget

# encode()'s order; sym_break is on by default in synthesize
FAMILIES = (
    ("A", lambda p, vm, sc, out: encode_action_selection(vm, out)),
    ("M", lambda p, vm, sc, out: encode_memory_update(vm, out)),
    ("O", lambda p, vm, sc, out: encode_observation_fn(p, vm, sc, out)),
    ("C", lambda p, vm, sc, out: encode_reach_closure(p, vm, out)),
    ("P", lambda p, vm, sc, out: encode_path_predicate(p, vm, out)),
    ("side", lambda p, vm, sc, out: encode_side_constraints(sc, vm, out)),
    ("sym", lambda p, vm, sc, out: encode_symmetry(p, vm, out)),
)

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb():
    """Current resident set of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE_MB


class Tracer:
    """In-memory spans: [name, parent index, instance id, start, end, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.instance = None

    @contextmanager
    def span(self, name):
        attrs = {}
        rec = [name, self._stack[-1] if self._stack else -1, self.instance,
               perf_counter(), None, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec[4] = perf_counter()
            self._stack.pop()


def _verify(tr, p, comp, pol):
    with tr.span("verify.product"):
        g = build_product(p, comp, pol)
    with tr.span("verify.check") as a:
        cert = check_almost_sure(g)
        a["verify.pairs"] = len(cert.reachable)
    return cert


def traced_synthesize(tr, p, mu, nu, k, deterministic):
    """synthesize(p, mu, nu, k=k, deterministic=deterministic) with spans."""
    sc = SideConstraints(deterministic=deterministic)
    bound = p.n_states * mu
    k_used = bound if k is None else k
    with tr.span("synth.call") as call:
        call.update({"mu": mu, "nu": nu, "synth.calls": 1})
        if p.n_obs + nu == 0:
            return Unrealizable(k=bound, mu=mu, nu=nu, stats=SynthStats())
        with tr.span("encode") as enc:
            rss0 = rss_mb()
            vm = VarMap(p, mu, nu, k_used)
            cnf = Cnf()
            for fam, fn in FAMILIES:
                with tr.span("encode." + fam) as a:
                    n0, v0 = len(cnf), vm.nvars
                    fn(p, vm, sc, cnf)
                    a[f"encode.{fam}.clauses"] = len(cnf) - n0
                    if fam == "P":
                        a["encode.P.aux"] = vm.nvars - v0
            cnf.finalize(vm.nvars)
            enc.update({"encode.vars": cnf.nvars, "encode.aux_vars": vm.n_aux,
                        "encode.clauses": len(cnf),
                        "encode.lits": len(cnf.literal_array()) - len(cnf),
                        "encode.rss_mb": rss_mb() - rss0})
        with tr.span("sat.load") as a:
            rss0 = rss_mb()
            solver = sat.Solver(cnf)
            a["sat.load_rss_mb"] = rss_mb() - rss0
        with tr.span("sat.search") as a:
            res = solver.solve(budget())
            a.update({"sat.conflicts": res.conflicts, "sat.decisions": res.decisions,
                      "sat.propagations": res.propagations, "sat.restarts": res.restarts,
                      "sat.learnts": len(solver.learnts)})
        with tr.span("sat.free"):
            del solver  # synthesize frees it inside sat.solve
        if res.status == sat.SAT:
            with tr.span("sat.selfcheck"):
                if not sat.evaluate(cnf, res.assignment):
                    raise AssertionError("solver returned a non-model")
        stats = SynthStats(vars=cnf.nvars, clauses=len(cnf), conflicts=res.conflicts)
        if res.status == sat.BUDGET:
            return Unknown(reason="budget exhausted", mu=mu, nu=nu, k=k_used, stats=stats)
        if res.status == sat.UNSAT:
            if k_used >= bound:
                return Unrealizable(k=k_used, mu=mu, nu=nu, stats=stats)
            return Unknown(reason=f"unsatisfiable at k={k_used}, below the bound {bound}",
                           mu=mu, nu=nu, k=k_used, stats=stats)
        with tr.span("synth.decode"):
            comp = decode_completion(res.assignment, vm, p)
            pol = decode_policy(res.assignment, vm)
        if comp.n_new > nu:
            raise EncoderFault(f"completion uses {comp.n_new} fresh symbols, budget was {nu}")
        cert = _verify(tr, p, comp, pol)
        if not cert.ok:
            raise EncoderFault("decoded pair fails almost-sure verification")
        return Realizable(completion=comp, policy=pol, certificate=cert, mu=mu, nu=nu,
                          k=k_used, stats=stats, model=p)


def run_traced(tr, inst):
    """One traced execution of inst; returns (seconds, {(mu, nu): Cell}, first span).

    Counts of the traced cells add decisions, propagations and the sum of the
    per-family clause counts to the untraced ones.
    """
    tr.instance = inst.id
    first = len(tr.spans)
    cells = {}
    with tr.span("instance"):
        with tr.span("model.parse"):
            p = parse_pomdp(inst.text)
        for mu, nu in inst.cells:
            n0 = len(tr.spans)
            out = traced_synthesize(tr, p, mu, nu, inst.k, inst.deterministic)
            counts = {"vars": out.stats.vars, "clauses": out.stats.clauses,
                      "conflicts": out.stats.conflicts, "family_clauses": 0}
            for name, _, _, _, _, attrs in tr.spans[n0:]:
                if name == "sat.search":
                    counts["decisions"] = attrs["sat.decisions"]
                    counts["propagations"] = attrs["sat.propagations"]
                elif name.startswith("encode."):
                    counts["family_clauses"] += attrs[name + ".clauses"]
            ok = None
            if out.verdict == "Realizable" and not inst.is_sweep:
                # sweep() returns rows, not documents, so only single calls are re-checked
                with tr.span("recheck"):
                    with tr.span("synth.result_doc"):
                        doc = parse_result(format_result(out), p)
                    ok = _verify(tr, p, doc.completion, doc.policy).ok
            cells[(mu, nu)] = Cell(out.verdict, counts, ok)
    start, end = tr.spans[first][3], tr.spans[first][4]
    return end - start, cells, first


# per-layer metrics

LAYERS = ("model", "encode", "sat", "synth", "verify", "bench")
TIMED = {"model.parse": "model.parse_s", "encode": "encode.s", "sat.load": "sat.load_s",
         "sat.search": "sat.search_s", "sat.free": "sat.free_s",
         "sat.selfcheck": "sat.selfcheck_s", "synth.decode": "synth.decode_s",
         "synth.result_doc": "synth.result_doc_s", "verify.product": "verify.product_s",
         "verify.check": "verify.check_s"}
TIMED.update({f"encode.{fam}": f"encode.{fam}.s" for fam, _ in FAMILIES})
# span attributes that are metrics; *_rss_mb keep their largest value, the rest add up
ATTRIBUTES = ("encode.vars", "encode.aux_vars", "encode.clauses", "encode.lits",
              "encode.rss_mb", "encode.P.aux", "sat.load_rss_mb", "sat.conflicts",
              "sat.decisions", "sat.propagations", "sat.restarts", "sat.learnts",
              "verify.pairs", "synth.calls") + tuple(f"encode.{fam}.clauses" for fam, _ in FAMILIES)


def _layer(name):
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def execution_metrics(spans, first):
    """Per-layer figures of the traced execution recorded in spans[first:].

    A layer's self time is the time of its spans minus the part their child
    spans cover.
    """
    m = dict.fromkeys(TIMED.values(), 0.0)
    m.update(dict.fromkeys(ATTRIBUTES, 0))
    m.update({layer + ".self_s": 0.0 for layer in LAYERS})
    child_time = [0.0] * (len(spans) - first)
    for i in range(len(spans) - 1, first - 1, -1):
        name, parent, _, start, stop, attrs = spans[i]
        dur = stop - start
        if parent >= first:
            child_time[parent - first] += dur
        m[_layer(name) + ".self_s"] += dur - child_time[i - first]
        if name in TIMED:
            m[TIMED[name]] += dur
        for key, value in attrs.items():
            if key.endswith("_rss_mb"):
                m[key] = max(m[key], value)
            elif key in m:
                m[key] += value or 0
    return m


def combine(per_instance):
    """Workload totals from {instance: [(seconds, metrics) of each traced
    execution]}.

    Times are those of each instance's fastest traced execution, so the
    layers of one instance add up to one execution, summed over instances;
    counts are summed; resident-set growth is the largest seen.
    """
    total = {}
    for runs in per_instance.values():
        best = min(runs, key=lambda r: r[0])[1]
        for key, value in best.items():
            if key.endswith("_rss_mb"):
                total[key] = max(total.get(key, 0.0), max(r[1][key] for r in runs))
            elif isinstance(value, float):
                total[key] = total.get(key, 0.0) + value
            else:
                total[key] = total.get(key, 0) + value
    total["sat.props_per_s"] = (total["sat.propagations"] / total["sat.search_s"]
                                if total["sat.search_s"] else 0.0)
    total["sat.props_per_conflict"] = (total["sat.propagations"] / total["sat.conflicts"]
                                       if total["sat.conflicts"] else 0.0)
    return total


def implied_share(instances, verdicts):
    """Share of cells whose Realizable verdict an earlier cell of the same
    ascending sweep already implied (monotonicity in mu and nu)."""
    implied = total = 0
    for inst in instances:
        won = []
        for cell in inst.cells:
            total += 1
            v = verdicts[inst.id][cell]
            if v == "Realizable" and inst.is_sweep:
                if any(m <= cell[0] and n <= cell[1] for m, n in won):
                    implied += 1
                won.append(cell)
    return implied / total


def dump(spans, path):
    """Write the spans as JSON lines: name, parent, instance, start, end, attrs."""
    with open(path, "w") as f:
        for name, parent, inst, start, end, attrs in spans:
            f.write(json.dumps([name, parent, inst, start, end, attrs]) + "\n")
