"""Independent verification of synthesized (completion, policy) pairs.

Almost-sure reachability of the goal in the induced product chain depends
only on supports, so the product graph is built from supports alone, forward
from the initial pair over the pairs it reaches, and checked with one
backward pass from the goal pairs inside that subgraph.  Every pair on a
goal path from a reached pair is itself reached, so the subgraph gives the
same distances as the whole product.  The certificate carries the reached
pairs and their goal distances (bounded by |S|*|M|).

Also here: the check of a pair against its request's row contract
(contract_breaches), which synthesis runs on every decoded pair, and a
seeded Monte Carlo simulator over the exact model weights and a brute-force
synthesis oracle used by the tests to cross-examine the encoder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct


@dataclass(frozen=True)
class ProductGraph:
    """Support-level product of model state and policy memory."""

    n_states: int
    n_mem: int
    adj: dict  # adjacency of the reached pairs: adj[v] = sorted successor ids, v = s * n_mem + m
    initial: int
    goals: tuple

    def pair(self, v):
        return divmod(v, self.n_mem)


@dataclass(frozen=True)
class VerifyCertificate:
    ok: bool
    reachable: tuple  # vertex ids reachable from the initial pair
    dist: dict  # vertex id -> BFS distance to the nearest goal pair
    witness: int  # reachable vertex with no goal path (-1 when ok)


def build_product(p, c, pol):
    """Product graph of model p under completion c and policy pol, over the
    pairs reached from the initial pair."""
    mu = pol.n_mem
    # the policy table fixes the completed alphabet width it can react to
    nzp = len(pol.update[0]) if pol.update else 0
    supports = [c.support(s) for s in range(p.n_states)]
    z = max((z for supp in supports for z in supp), default=-1)
    if z >= nzp:
        raise ValueError(f"completion emits symbol {z} but the policy update "
                         f"table only covers {nzp} symbols")
    initial = p.initial * mu
    adj, todo = {}, [initial]
    while todo:
        v = todo.pop()
        if v in adj:
            continue
        s, m = divmod(v, mu)
        urow = pol.update[m]
        row = {s2 * mu + m2 for a in pol.act[m] for s2 in p.succ(s, a)
               for z in supports[s2] for m2 in urow[z][a]}
        adj[v] = tuple(sorted(row))
        todo += row.difference(adj)
    goals = tuple(p.goal * mu + m for m in range(mu))
    return ProductGraph(p.n_states, mu, adj, initial, goals)


def check_almost_sure(g):
    """Verdict true iff every pair reachable from the initial pair can still
    reach a goal pair; witness pair returned otherwise."""
    radj = {v: [] for v in g.adj}
    for v, row in g.adj.items():
        for w in row:
            radj[w].append(v)
    frontier = [v for v in g.goals if v in radj]
    dist = dict.fromkeys(frontier, 0)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in radj[v]:
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    reachable = tuple(sorted(g.adj))
    witness = next((v for v in reachable if v not in dist), -1)
    return VerifyCertificate(
        ok=(witness == -1),
        reachable=reachable,
        dist={v: dist[v] for v in reachable if v in dist},
        witness=witness,
    )


def contract_breaches(p, comp, pol, mu, nu, sc):
    """How the pair (comp, pol) breaks the contract of its request, one
    message each; empty when it holds.

    p is the model that was encoded (in sensor mode sensor_model's rewrite)
    and sc its side constraints with the mode flags merged in.  The check
    reads only those, never the formula, so it vouches for rows the solver
    did not decide (encode.row_fills) as well as for those it did:

    - the completion uses at most nu fresh symbols and the policy at most mu
      memory elements;
    - every row contains its given support, and a fully defined row keeps
      it exactly;
    - a fully defined row, or a row that adds a symbol, keeps each given
      weight (one that adds none spreads its undefined mass over the given
      support);
    - in strict mode a row adds no declared symbol;
    - in deterministic mode every row has exactly one symbol;
    - in sensor mode each row pairs exactly its base symbols (the goal
      without one takes any pair);
    - every same pair has equal supports, every diff pair disjoint ones, and
      every implies (s, z, z') holds at s.

    Rows repeat, so each distinct (given row, completed row, base) is checked
    once, and a breach names the first state with it.
    """
    out = []
    if comp.n_new > nu:
        out.append(f"completion uses {comp.n_new} fresh symbols, budget was {nu}")
    if pol.n_mem > mu:
        out.append(f"policy uses {pol.n_mem} memory elements, budget was {mu}")
    base = sc.sensor_base if sc.sensor_values is not None else None
    nvals = len(sc.sensor_values or ())
    seen = set()
    for s in range(p.n_states):
        key = (id(p.obs.rows[s]), id(comp.rows[s]), base[s] if base else ())
        if key in seen:
            continue
        seen.add(key)
        name, given, supp = p.states[s], set(p.obs.support(s)), set(comp.support(s))
        defined = p.obs.fully_defined(s)
        if not given <= supp:
            out.append(f"state {name}: completed row drops given symbols")
        if defined and supp != given:
            out.append(f"state {name}: fully defined row changed")
        elif given and given <= supp and (defined or supp != given):  # it keeps or adds
            weight = dict(comp.rows[s])
            if any(weight[z] != w for z, w in p.obs.rows[s] if z in given):
                out.append(f"state {name}: row changes a given weight")
        if sc.strict and any(z < p.n_obs and z not in given for z in supp):
            out.append(f"state {name}: strict row adds a declared symbol")
        if sc.deterministic and len(supp) != 1:
            out.append(f"state {name}: deterministic row has {len(supp)} symbols")
        if base and base[s] and {z // nvals for z in supp} != set(base[s]):
            out.append(f"state {name}: sensor row does not pair exactly its base symbols")
    for kind, pairs, holds in (("same", sc.same, set.__eq__),
                               ("diff", sc.diff, set.isdisjoint)):
        for i, j in pairs:
            if not holds(set(comp.support(i)), set(comp.support(j))):
                out.append(f"{kind} {p.states[i]} {p.states[j]} does not hold")
    for i, z, z2 in sc.implies:
        supp = comp.support(i)
        if z in supp and z2 not in supp:
            out.append(f"implies {p.states[i]} {p.observations[z]} {p.observations[z2]} "
                       f"does not hold")
    return out


def format_certificate(cert, p, pol):
    """Text rendering of a certificate (reachable pairs with distances)."""
    lines = [f"almost-sure: {'yes' if cert.ok else 'no'}"]
    if not cert.ok:
        s, m = divmod(cert.witness, pol.n_mem)
        lines.append(f"witness: ({p.states[s]}, m{m}) reachable but cannot reach the goal")
    for v in cert.reachable:
        s, m = divmod(v, pol.n_mem)
        d = cert.dist.get(v)
        lines.append(f"pair ({p.states[s]}, m{m}) dist {'-' if d is None else d}")
    return "\n".join(lines) + "\n"


def simulate(p, c, pol, episodes, horizon, seed=0):
    """Fraction of episodes that reach the goal within the horizon.

    Actions and memory updates are drawn uniformly over the policy supports
    (uniform supports preserve the qualitative verdict); transitions and
    observations follow the exact model/completion weights.  Per-episode
    seeds derive from the base seed, so runs are reproducible episode by
    episode.
    """
    if episodes < 1 or horizon < 1:
        raise ValueError("episodes and horizon must be >= 1")
    mu = pol.n_mem
    cum_delta = []
    for s in range(p.n_states):
        row = []
        for a in range(p.n_actions):
            states, weights = zip(*p.delta[s][a])
            acc, cum = 0.0, []
            for w in weights:
                acc += float(w)
                cum.append(acc)
            row.append((states, cum))
        cum_delta.append(row)
    cum_obs = []
    for s in range(p.n_states):
        symbols, weights = zip(*c.rows[s])
        acc, cum = 0.0, []
        for w in weights:
            acc += float(w)
            cum.append(acc)
        cum_obs.append((symbols, cum))
    absorbing = [p.absorbing(s) for s in range(p.n_states)]

    hits = 0
    goal = p.goal
    for ep in range(episodes):
        # per-episode stream, stable under episode-count changes
        rng = random.Random(seed * 1000003 + ep)
        s, m = p.initial, 0
        for _ in range(horizon):
            if s == goal:
                break
            if absorbing[s]:
                break
            acts = pol.act[m]
            a = acts[rng.randrange(len(acts))] if len(acts) > 1 else acts[0]
            states, cum = cum_delta[s][a]
            r = rng.random() * cum[-1]
            for idx, bound in enumerate(cum):
                if r < bound:
                    s = states[idx]
                    break
            else:
                s = states[-1]
            symbols, cum = cum_obs[s]
            r = rng.random() * cum[-1]
            for idx, bound in enumerate(cum):
                if r < bound:
                    z = symbols[idx]
                    break
            else:
                z = symbols[-1]
            mems = pol.update[m][z][a]
            m = mems[rng.randrange(len(mems))] if len(mems) > 1 else mems[0]
        if s == goal:
            hits += 1
    return hits / episodes


class BruteForceGuardError(ValueError):
    """Enumeration space exceeds the brute-force guard."""


def _nonempty_subsets(items):
    items = tuple(items)
    out = []
    for mask in range(1, 1 << len(items)):
        out.append(tuple(items[i] for i in range(len(items)) if mask >> i & 1))
    return out


def brute_force_decide(p, mu, nu, deterministic=True, guard=1 << 24):
    """Exhaustively decide realizability for tiny instances.

    Enumerates per-state completion supports (singletons when deterministic,
    every consistent support otherwise) crossed with all support-based
    policies, and checks each pair with an independent bitmask reachability
    routine.  Policy memory-update cells that the current action selection
    can never exercise are projected out; they cannot affect the verdict.

    Candidates are tried smallest supports first and the guard counts the
    candidates actually examined, so a realizable instance can still succeed
    by early exit even when its full space is above the guard.
    """
    ns, na, nz = p.n_states, p.n_actions, p.n_obs
    nzp = nz + nu
    if nzp == 0:
        return False

    state_choices = []
    for s in range(ns):
        supp = p.obs.support(s)
        if p.obs.fully_defined(s):
            choices = [tuple(sorted(set(supp)))]
            if deterministic and len(choices[0]) != 1:
                choices = []
        elif deterministic:
            # a singleton support must still contain the pre-assigned symbols
            base = sorted(set(supp))
            if len(base) > 1:
                choices = []
            elif base:
                choices = [tuple(base)]
            else:
                choices = [(z,) for z in range(nzp)]
        else:
            base = set(supp)
            free = [z for z in range(nzp) if z not in base]
            choices = []
            for extra in _nonempty_subsets(free) + [()]:
                cand = tuple(sorted(base | set(extra)))
                if cand:
                    choices.append(cand)
            choices.sort()
        if not choices:
            return False
        state_choices.append(choices)

    act_choices = sorted(_nonempty_subsets(range(na)), key=lambda t: (len(t), t))
    mem_choices = sorted(_nonempty_subsets(range(mu)), key=lambda t: (len(t), t))

    succ = [[p.succ(s, a) for a in range(na)] for s in range(ns)]
    goal_mask = 0
    for m in range(mu):
        goal_mask |= 1 << (p.goal * mu + m)
    nv = ns * mu
    v0 = p.initial * mu

    def winning(rows):
        reach = 1 << v0
        while True:
            new = reach
            rem = reach
            while rem:
                b = rem & -rem
                new |= rows[b.bit_length() - 1]
                rem ^= b
            if new == reach:
                break
            reach = new
        can = goal_mask
        while True:
            new = can
            for v in range(nv):
                if rows[v] & can:
                    new |= 1 << v
            if new == can:
                break
            can = new
        return reach & ~can == 0

    n_comps = 1
    for ch in state_choices:
        n_comps *= len(ch)
    if n_comps > guard or len(act_choices) ** mu > guard:
        raise BruteForceGuardError("completion or action-selection space alone exceeds the guard")
    comps = list(iproduct(*state_choices))
    sels = sorted(iproduct(act_choices, repeat=mu),
                  key=lambda sel: (sum(map(len, sel)), sel))
    tested = 0
    for sel in sels:
        cells = [(m, z, a) for m in range(mu) for a in sel[m] for z in range(nzp)]
        for comp in comps:
            for fill in iproduct(mem_choices, repeat=len(cells)):
                tested += 1
                if tested > guard:
                    raise BruteForceGuardError(
                        f"more than {guard} candidates examined without an answer"
                    )
                table = dict(zip(cells, fill))
                rows = []
                for s in range(ns):
                    for m in range(mu):
                        row = 0
                        for a in sel[m]:
                            for s2 in succ[s][a]:
                                mm = 0
                                for z in comp[s2]:
                                    for m2 in table[(m, z, a)]:
                                        mm |= 1 << m2
                                row |= mm << (s2 * mu)
                        rows.append(row)
                if winning(rows):
                    return True
    return False
