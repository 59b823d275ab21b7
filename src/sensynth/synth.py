"""End-to-end synthesis: encode, solve, decode, verify, and (mu, nu) sweeps.

Every satisfying assignment is decoded into a (completion, policy) pair and
re-checked by the independent product-graph analysis before being reported;
a decode that fails verification is an internal fault, never a result.

prepare() runs the MDP pre-pass (encode.mdp_prepass) on the model to encode.
Its region V holds the states reachable from the initial state through
actions whose successors all lie in the MDP's almost-sure winning region W;
it is empty when the initial state lies outside W, and then every cell is
Unrealizable without any formula.  The formula has neither the path
predicate P nor edge literals.  A model whose pair loses the product check
adds cuts, with the edge literals they are the first to name (trap_cuts;
SAT modulo graph reachability, Bayless, Bayless, Hoos & Hu, AAAI 2015).
Each cut rests on one argument: a winning pair that reaches a set of pairs
without a goal pair must leave it along its goal path, under a safe
action, so some edge leaving the set is taken.  Every winning pair
satisfies the cuts of the losing pair's traps, which exclude its model,
and of their projections onto their states, which rule out every memory
variant of the same dead end.  So the rounds are a complete search and
UNSAT is a refutation.  The path bound k of synthesize and sweep
shapes no formula; it only labels a refutation.  UNSAT is Unrealizable when
k reaches the cell's completeness bound mu * max(1, |V - {goal}|), since a
shortest path from a pair that a winning policy reaches visits only reached
non-goal pairs, all in (V - {goal}) x memory; below it UNSAT is Unknown.

synthesize is the one-cell sweep.  A sweep searches the cells of a walk
along its staircase of verdicts, each on its own formula, and infers the
rest from the monotonicity of the problem itself.  A checked pair with at
most mu memory elements and at most nu fresh symbols is a witness at every
cell (mu', nu') with mu' >= mu and nu' >= nu: a policy is also one over
more memory elements that it never enters, a completion that adds at most
nu fresh symbols adds at most nu', and no other part of the contract
depends on mu or nu.  So Realizable at (mu, nu) is Realizable at every
larger cell.  Conversely, a cell (mu', nu') refuted with k at the bound of
mu' has no witness, so no smaller cell (mu, nu) has one either, and there
k reaches the smaller bound of mu: it is Unrealizable.  An Unknown cell
implies nothing, UNSAT below the bound (a smaller k) included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from . import sat
from .encode import SideConstraints, edge_literal, encode, mdp_prepass, sensor_model
from .model import (Completion, ModelError, ModelSemanticError, Policy, Pomdp, lookup,
                    row_reader, sections)
from .verify import VerifyCertificate, build_product, check_almost_sure, contract_breaches


class EncoderFault(RuntimeError):
    """A satisfying assignment decoded into an artifact failing its contract.

    Always a bug in the encoder or decoder, never a property of the input.
    """


@dataclass(frozen=True)
class SynthStats:
    vars: int = 0
    clauses: int = 0
    time_ms: int = 0
    conflicts: int = None  # the solver counters are None when an external solver ran
    decisions: int = None
    propagations: int = None
    rounds: int = 0  # solve calls for the cell; time_ms and the counters sum over them


@dataclass(frozen=True)
class Realizable:
    completion: Completion
    policy: Policy
    certificate: VerifyCertificate
    mu: int
    nu: int
    k: int
    stats: SynthStats
    model: Pomdp  # the model actually encoded (sensor mode rewrites the alphabet)
    verdict = "Realizable"


@dataclass(frozen=True)
class Unrealizable:
    k: int  # the call's path bound; a searched refutation's reaches the cell's bound
    mu: int
    nu: int
    stats: SynthStats
    verdict = "Unrealizable"


@dataclass(frozen=True)
class Unknown:
    reason: str
    mu: int
    nu: int
    k: int
    stats: SynthStats
    error: Exception = field(default=None, compare=False, repr=False)  # ExternalSolverError
    verdict = "Unknown"


def _fresh_used(assignment, vm):
    """How many fresh symbols the assignment uses.  Value precedence
    (encode.encode_symmetry) makes them @0, @1, ... with strictly increasing
    first observed states of use; any other order is an EncoderFault.  The
    fills of the other rows add none that L does not use (encode.row_fills)."""
    n_obs = vm.nzp - vm.nu
    used = 0
    for s in vm.observed:
        new = [z - n_obs for z in range(n_obs + used, vm.nzp) if assignment[vm.var_o(s, z)]]
        if new:
            if new != [used]:
                raise EncoderFault(f"state {vm.state_names[s]} first uses fresh symbols {new}, "
                                   f"where value precedence allows only @{used}")
            used += 1
    return used


def decode_completion(assignment, vm, p):
    """Read the completed observation function off a satisfying assignment.

    Support of an observed state s (vm.observed) is {z : O(s,z) true}; every
    other state takes its fill (vm.fills, encode.row_fills).  One weight
    rule holds in every mode: a row keeps the model's given weights and
    spreads its undefined mass evenly over the symbols it adds, or over its
    given symbols when it adds none.  Symmetry breaking numbers the used
    fresh symbols @0, @1, ... by first state of use, so the completion keeps
    those and partitions are comparable across runs; an assignment that
    breaks that order is an EncoderFault.

    The fills are checked, not solved: no clause outside its own row names
    a state outside the observed set, and its fill satisfies that row's
    clauses at every cell.  So the solver's model extended by the fills is
    a model of the full-row formula, whose O rows cover every state (the
    equisatisfiability argument is in encode.encode_symmetry).  A fill's
    only possible fresh symbol is @0, when the model declares none, and then
    the first observed state emits it too, so numbering by first use holds
    over all states.  The fills lie outside the region V, which no product
    pair reaches, so they never change a verdict; Prepared.search still
    checks each decoded pair against the request's contract
    (verify.contract_breaches).

    A row depends only on its support and, if it gives symbols, the state's
    given row, so the states that share those share one row tuple, built
    and checked to sum to 1 once; a fault names the first of them.  A
    one-symbol row weighs 1 whatever the given row, so its support alone
    keys it (verify.contract_breaches finds one that drops a given symbol).
    """
    n_new = _fresh_used(assignment, vm)
    supps = [None] * vm.ns
    for s in vm.observed:
        supp = supps[s] = tuple(z for z in range(vm.nzp) if assignment[vm.var_o(s, z)])
        if not supp:
            raise EncoderFault(f"state {p.states[s]} decoded with empty observation support")
    for s, fill in vm.fills.items():
        supps[s] = fill
    rows, memo = [], {}
    for s, supp in enumerate(supps):
        given = p.obs.support(s)
        key = supp if len(supp) == 1 else (supp, given and id(p.obs.rows[s]))  # p keeps rows
        row = memo.get(key)
        if row is None:
            w = dict(p.obs.rows[s])
            added = [z for z in supp if z not in given]
            share = p.obs.bot_mass(s) / len(added or supp)
            if added:
                row = tuple((z, w[z] if z in given else share) for z in supp)
            else:
                row = tuple((z, w[z] + share) for z in supp)
            if sum(w for _, w in row) != 1:
                raise EncoderFault(f"decoded weights at state {p.states[s]} do not sum to 1")
            memo[key] = row
        rows.append(row)
    return Completion(n_new=n_new, rows=tuple(rows))


def decode_policy(assignment, vm):
    """Read the policy supports off a satisfying assignment.

    sigma_n(m) = {a : A(m,a)}, sigma_u(m,z,a) = {m' : M(m,z,a,m')}, over the
    memory elements m, m' < vm.mu.  Columns of unused fresh symbols are
    dropped, as in the completion.
    """
    mu = vm.mu
    act = []
    for m in range(mu):
        row = tuple(a for a in range(vm.na) if assignment[vm.var_a(m, a)])
        if not row:
            raise EncoderFault(f"memory element {m} decoded with empty action support")
        act.append(row)
    cols = range(vm.nzp - vm.nu + _fresh_used(assignment, vm))
    update = []
    for m in range(mu):
        zrows = []
        for z in cols:
            arow = []
            for a in range(vm.na):
                dest = tuple(m2 for m2 in range(mu) if assignment[vm.var_m(m, z, a, m2)])
                if not dest:
                    raise EncoderFault(f"update ({m},{z},{a}) decoded with empty memory support")
                arow.append(dest)
            zrows.append(tuple(arow))
        update.append(tuple(zrows))
    return Policy(n_mem=mu, act=tuple(act), update=tuple(update))


def _bottom_sccs(adj, nodes):
    """The bottom strongly connected components of the subgraph on nodes, a
    set closed under adj: Tarjan's algorithm (SIAM J. Comput. 1(2), 1972),
    iterative, from the nodes in ascending order."""
    index, low, stack, bottom = {}, {}, [], []
    for root in sorted(nodes):
        work = [] if root in index else [root]
        while work:
            v = work[-1]
            if v not in index:
                index[v] = low[v] = len(index)
                stack.append(v)
            w = next((w for w in adj[v] if w not in index), None)
            if w is not None:
                work.append(w)
                continue
            work.pop()
            low[v] = min([low[v]] + [low[w] for w in adj[v]])
            if low[v] == index[v]:
                comp = set(stack[stack.index(v):])
                del stack[-len(comp):]
                low.update(dict.fromkeys(comp, len(nodes)))  # above every index: ignored
                if all(w in comp for x in comp for w in adj[x]):
                    bottom.append(comp)
    return bottom


def trap_cuts(p, vm, g, cert):
    """Clauses, in a fixed order, that the losing pair behind product graph
    g violates and every winning pair satisfies: the definitions of the edge
    literals they are the first to name, then the cuts of each trap, then
    the cuts of each trap's projection.

    A cut holds for any set U of pairs without a goal pair.  A winning pair
    that reaches b in U has a goal path from b, which leaves U by an edge
    from some (s, m) in U under an action a of its support to some (s', m')
    outside U.  Every action a winning pair takes at a reached pair is safe,
    succ(s, a) within the region V (the closure clauses forbid the others),
    so -C(b) | OR e(m,a,s',m') over the edges leaving U under safe actions
    (encode.edge_literal), m' over all memory of the formula, holds at every
    winning pair.

    The reached pairs of g with no goal path are closed under successors,
    so each bottom strongly connected component T of them is a goal-free
    trap.  g's model makes C(b) true for b in T and every e leaving T
    false, since a true e is an edge of g and a newly defined e is false in
    its extension too: T's cuts exclude the model.  The projection of T,
    U = states(T) x {0..mu-1}, is goal-free as well, and its cuts rule out
    every memory variant of the same dead end at once.  A projection equal
    to T (always at mu = 1) or to an earlier trap's adds nothing and is
    skipped.  The model may satisfy a projected cut, since an edge literal
    defined in an earlier round can be true at a pair of U that g does not
    reach."""
    defs = []

    def cuts(pairs):
        inside = set(pairs)
        leave = sorted({edge_literal(vm, (m, a, s2, m2), defs.append)
                        for s, m in pairs for a in range(vm.na)
                        if vm.region.issuperset(p.succ(s, a)) for s2 in p.succ(s, a)
                        for m2 in range(vm.mu) if (s2, m2) not in inside})
        return [[-vm.var_c(s, m)] + leave for s, m in pairs]

    traps = [sorted(g.pair(v) for v in trap)
             for trap in _bottom_sccs(g.adj, set(cert.reachable).difference(cert.dist))]
    found = [c for pairs in traps for c in cuts(pairs)]
    seen = set()
    for pairs in traps:
        states = tuple(sorted({s for s, _ in pairs}))
        if len(states) * vm.mu > len(pairs) and states not in seen:
            seen.add(states)
            found += cuts([(s, m) for s in states for m in range(vm.mu)])
    return defs + found


def _prune(p, comp, pol, cert):
    """Drop actions from each memory element's support, in order, while the
    pair still wins.  Without P nothing steers a witness towards the goal,
    so its supports can carry actions that only slow it down."""
    for m in range(pol.n_mem):
        for a in pol.act[m]:
            act = pol.act[m]
            if len(act) > 1:
                trial = replace(pol, act=pol.act[:m] + (tuple(b for b in act if b != a),)
                                + pol.act[m + 1:])
                check = check_almost_sure(build_product(p, comp, trial))
                if check.ok:
                    pol, cert = trial, check
    return pol, cert


@dataclass(frozen=True)
class Prepared:
    """What one request encodes, shared by sweep and export-dimacs."""

    model: Pomdp  # the model to encode (sensor mode rewrites the alphabet)
    constraints: SideConstraints  # with the deterministic/strict flags merged in
    region: frozenset  # mdp_prepass(model)

    def needs_formula(self, nu):
        """False when every cell (mu, nu) is Unrealizable without a formula:
        the fully observable MDP cannot win from the initial state, so no
        policy under any completion can, or the completed alphabet is empty
        and admits no observation distribution at all."""
        return self.model.initial in self.region and self.model.n_obs + nu > 0

    def encode(self, mu, nu):
        """The formula at (mu, nu) (encode.encode); returns (Cnf, VarMap).  It
        has no P (VarMap.k None): P remains only for the traced replay and
        the tests."""
        return encode(self.model, mu, nu, None, self.constraints, region=self.region)

    def search(self, cnf, vm, solver, budget=None):
        """Decide the cell (vm.mu, vm.nu) of the formula (cnf, vm) from
        encode() in rounds; returns the last round's status (sat.SAT, UNSAT
        or BUDGET), the checked (completion, policy, certificate) when SAT,
        else None, and the cell's SynthStats.

        solver is a sat.Solver built on cnf, which carries what it learns to
        its next call and loads what cnf gained at each call, or an external
        command template that gets one DIMACS file per round
        (sat.solve_external).  Each round gets what budget leaves after the
        cell's conflicts and seconds so far.  time_ms and the counters (None
        for an external solver) sum over the rounds.  A failing external
        solver raises its ExternalSolverError with the cell's stats in
        e.stats: the rounds, the failed one counted, time_ms 0 and no
        counters.

        Every decoded pair must keep the request's contract
        (verify.contract_breaches), else it is an EncoderFault.  A losing
        pair's trap cuts, and the edge literals they newly define, go into
        cnf once and exclude its model, so the rounds end; a round whose
        clauses the model (new variables false) satisfies is an
        EncoderFault.  cnf then declares the grown variable count.  A
        winning pair is pruned (_prune)."""
        p = self.model
        embedded = isinstance(solver, sat.Solver)
        t_cell, runs, seconds, pair = time.perf_counter(), [], 0.0, None
        while True:
            used = sum(r.conflicts or 0 for r in runs), time.perf_counter() - t_cell
            rest = None if budget is None else sat.Budget(*(
                None if limit is None else max(limit - u, 0)
                for limit, u in zip((budget.max_conflicts, budget.max_seconds), used)))
            t0 = time.perf_counter()
            try:
                res = (sat.solve(cnf, rest, solver) if embedded
                       else sat.solve_external(cnf, solver, rest))
            except sat.ExternalSolverError as e:
                e.stats = SynthStats(cnf.nvars, len(cnf), rounds=len(runs) + 1)
                raise
            seconds += time.perf_counter() - t0
            runs.append(res)
            if res.status != sat.SAT:
                break
            comp = decode_completion(res.assignment, vm, p)
            pol = decode_policy(res.assignment, vm)
            breaches = contract_breaches(p, comp, pol, vm.mu, vm.nu, self.constraints)
            if breaches:
                raise EncoderFault("decoded pair breaks its contract: " + "; ".join(breaches))
            g = build_product(p, comp, pol)
            cert = check_almost_sure(g)
            if cert.ok:
                pair = (comp, *_prune(p, comp, pol, cert))
                break
            clauses, model = trap_cuts(p, vm, g, cert), res.assignment
            if all(any((l > 0) == (abs(l) < len(model) and model[abs(l)]) for l in c)
                   for c in clauses):
                raise EncoderFault("the trap cuts of a losing pair do not exclude its model")
            for clause in clauses:
                cnf.add(clause)
            cnf.finalize(vm.nvars)
        counters = (sum(getattr(r, f) or 0 for r in runs) if embedded else None
                    for f in ("conflicts", "decisions", "propagations"))
        return res.status, pair, SynthStats(cnf.nvars, len(cnf), int(round(seconds * 1000)),
                                            *counters, rounds=len(runs))


def _completeness_bound(region, goal, mu):
    """mu * max(1, |region - {goal}|), region the pre-pass region V: at this
    path bound UNSAT is Unrealizable, since every pair a winning policy
    reaches has its state in V."""
    return mu * max(1, len(region - {goal}))


def prepare(p, mu, nu, deterministic=False, strict=False, constraints=None):
    """Check a request and compute what it encodes: the merged constraints,
    the sensor-mode model rewrite and the MDP pre-pass region."""
    if mu < 1 or nu < 0:
        raise ValueError("mu must be >= 1 and nu >= 0")
    sc = constraints if constraints is not None else SideConstraints()
    sc = replace(sc, deterministic=sc.deterministic or deterministic,
                 strict=sc.strict or strict)
    if sc.sensor_values:
        if nu != 0:
            raise ModelSemanticError(sc.sensor_name, "sensor mode replaces the fresh symbols; nu must be 0")
        p, sc = sensor_model(p, sc)
    return Prepared(model=p, constraints=sc, region=mdp_prepass(p))


def synthesize(p, mu, nu, k=None, deterministic=False, strict=False,
               constraints=None, budget=None, solver=None):
    """Decide realizability of (p, mu, nu) and return a checked outcome.

    The one-cell sweep.  k defaults to the cell's completeness bound; a
    smaller k is allowed and can only downgrade Unrealizable to Unknown.
    solver is None for the embedded one or an external command template with
    an {input} placeholder; a failing external solver raises its
    ExternalSolverError.
    """
    (out,) = sweep(p, [mu], [nu], k, deterministic, strict, constraints, budget, solver)
    if getattr(out, "error", None) is not None:
        raise out.error
    return out


# (mu, nu) frontiers

def sweep(p, mu_range, nu_range, k=None, deterministic=False, strict=False,
          constraints=None, budget=None, solver=None):
    """Decide every cell (mu, nu) of mu_range x nu_range; returns the
    outcomes in ascending (mu, nu) order.

    One prepare() at the top cell (mu_hi, nu_hi) serves every cell, since the
    pre-pass depends on neither mu nor nu.  A cell whose nu fails
    Prepared.needs_formula is Unrealizable without a formula.  A searched
    cell is Prepared.search on its own formula, Prepared.encode(mu, nu),
    with the cell's budget and, for the embedded solver, a Solver of its
    own, so a one-cell sweep builds the (mu, nu) formula and nothing more.
    UNSAT means Unrealizable iff
    k >= mu * max(1, |V - {goal}|), the cell's completeness bound, and
    Unknown otherwise; k (default the completeness bound of mu_hi) has no
    other use, and every outcome reports it, a cell without a formula
    included.

    The cells are visited nu ascending, mu descending from (mu_hi, nu_lo).
    Each is inferred from a decided cell that implies it (module docstring)
    or else searched, which walks the staircase: a Realizable cell sends the
    search to the next lower mu, an Unrealizable one to the next higher nu.
    An Unknown cell implies nothing; without one at most |mus| + |nus| - 1
    cells are searched.  A searched cell, a failed external one included,
    reports its own formula's vars and clauses, trap cuts included, and its
    own time_ms, solver counters and rounds.  An inferred cell keeps its
    source's k, completion, policy and certificate with SynthStats(): no
    formula, time_ms 0, no counters (an empty CSV conflicts field) and no
    rounds.

    A failing external solver makes its cell Unknown, naming the error and
    keeping it as the outcome's error, and the sweep continues; every other
    exception, such as an EncoderFault or the solver's non-model
    AssertionError, is a fault and propagates.
    """
    mus, nus = sorted(set(mu_range)), sorted(set(nu_range))
    if not mus or not nus:
        return []
    if mus[0] < 1 or nus[0] < 0:
        raise ValueError("mu must be >= 1 and nu >= 0")
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    prep = prepare(p, mus[-1], nus[-1], deterministic, strict, constraints)
    bounds = {mu: _completeness_bound(prep.region, prep.model.goal, mu) for mu in mus}
    k = bounds[mus[-1]] if k is None else k
    live = [nu for nu in nus if prep.needs_formula(nu)]
    # cells without a formula; their nu lies below every live one, so they imply none
    done = {(mu, nu): Unrealizable(k=k, mu=mu, nu=nu, stats=SynthStats())
            for mu in mus for nu in nus if nu not in live}
    embedded = solver in (None, "", "embedded")
    for nu in live:  # the staircase walk from (mu_hi, nu_lo), inferring what it implies
        for mu in reversed(mus):
            src = next((o for o in done.values()
                        if o.verdict == "Realizable" and o.mu <= mu and o.nu <= nu
                        or o.verdict == "Unrealizable" and o.mu >= mu and o.nu >= nu), None)
            if src is not None:
                done[mu, nu] = replace(src, mu=mu, nu=nu, stats=SynthStats())
                continue
            cnf, vm = prep.encode(mu, nu)
            try:
                status, pair, stats = prep.search(cnf, vm, sat.Solver(cnf) if embedded else solver,
                                                  budget)
            except sat.ExternalSolverError as e:
                done[mu, nu] = Unknown(reason=f"external solver failed: {e}", mu=mu, nu=nu,
                                       k=k, stats=e.stats, error=e)
                continue
            if status == sat.SAT:  # pair is (completion, policy, certificate)
                done[mu, nu] = Realizable(*pair, mu=mu, nu=nu, k=k, stats=stats, model=prep.model)
            elif status == sat.UNSAT and k >= bounds[mu]:
                done[mu, nu] = Unrealizable(k=k, mu=mu, nu=nu, stats=stats)
            else:
                reason = ("budget exhausted" if status == sat.BUDGET
                          else f"unsatisfiable at k={k}, below the bound {bounds[mu]}")
                done[mu, nu] = Unknown(reason=reason, mu=mu, nu=nu, k=k, stats=stats)
    return [done[mu, nu] for mu in mus for nu in nus]


def format_frontier_csv(rows):
    lines = ["mu,nu,verdict,vars,clauses,time_ms,conflicts"]
    for r in rows:
        c = "" if r.stats.conflicts is None else str(r.stats.conflicts)
        lines.append(f"{r.mu},{r.nu},{r.verdict},{r.stats.vars},"
                     f"{r.stats.clauses},{r.stats.time_ms},{c}")
    return "\n".join(lines) + "\n"


# result documents

def format_result(out):
    """Render an outcome as a line-oriented key/value document.

    Realizable documents are self-contained: they carry the completed
    alphabet, all policy tables, and the per-state observation rows, so they
    can be re-verified against the model file alone.
    """
    lines = [f"verdict: {out.verdict}", f"mu: {out.mu}", f"nu: {out.nu}"]
    if out.verdict == "Unknown":
        lines.append(f"reason: {out.reason}")
    lines.append(f"k: {out.k}")
    if out.verdict == "Realizable":
        p, comp, pol = out.model, out.completion, out.policy
        names = [comp.symbol_name(p, z) for z in range(p.n_obs + comp.n_new)]
        lines.append(f"memory: {pol.n_mem}")
        lines.append("observations: " + " ".join(names))
        lines.append(f"new: {comp.n_new}")
        for m in range(pol.n_mem):
            acts = " ".join(p.actions[a] for a in pol.act[m])
            lines.append(f"action m{m} -> {acts}")
        for m in range(pol.n_mem):
            for z, zrow in enumerate(pol.update[m]):
                for a in pol.act[m]:
                    dest = " ".join(f"m{m2}" for m2 in zrow[a])
                    lines.append(f"update m{m} {names[z]} {p.actions[a]} -> {dest}")
        for s in range(p.n_states):
            row = ", ".join(f"{names[z]} {w}" for z, w in comp.rows[s])
            lines.append(f"obs {p.states[s]} -> {row}")
    st = out.stats
    c, d, pr = ("-" if x is None else x for x in (st.conflicts, st.decisions, st.propagations))
    lines.append(f"stats: vars={st.vars} clauses={st.clauses} time_ms={st.time_ms} "
                 f"conflicts={c} decisions={d} propagations={pr} rounds={st.rounds}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ResultDoc:
    verdict: str
    mu: int
    nu: int
    k: int
    reason: str
    observations: tuple
    completion: Completion
    policy: Policy
    stats: SynthStats


class ResultParseError(ValueError):
    pass


_RESULT_HEADERS = ("verdict", "mu", "nu", "reason", "k", "memory", "observations", "new",
                   "stats")


def parse_result(text, p):
    """Parse a result document against the model it was produced from.

    The document is read like a model (model.sections): every header at most
    once, no action, update or obs line repeated, and each obs row a
    distribution of exact positive weights summing to 1 (model.read_row,
    once per distinct row text through model.row_reader).  The completed
    alphabet is consistent with itself: no name in 'observations' repeats,
    and 'new' (0 when absent) counts its trailing fresh names @0 .. @{new-1},
    the only names that start with '@'.  The names before them are the
    model's observations, or the sensor alphabet sensor_model writes over
    them (z:c for each z in order, over one value list), so a document
    cannot rename the model's symbols.  Any defect raises ResultParseError.
    """
    try:
        return _read_result(text, p)
    except ModelError as e:
        raise ResultParseError(str(e)) from None


def _base_alphabet(base, observations):
    """True iff base is observations, or the alphabet sensor_model writes
    over them: z:c for each z in order, over one list of values c."""
    if base == observations:
        return True
    n = len(base) // len(observations) if observations else 0
    vals = [name[len(observations[0]) + 1:] for name in base[:n]]  # z0:c -> c
    return n > 0 and base == tuple(f"{z}:{c}" for z in observations for c in vals)


def _read_result(text, p):
    heads, lines = sections(text, _RESULT_HEADERS, {"action": 1, "update": 3, "obs": 1})

    def header(key):
        if key not in heads:
            raise ResultParseError(f"missing header {key!r}")
        return heads[key][1]

    def header_int(key):
        val = header(key)
        try:
            return int(val)
        except ValueError:
            raise ResultParseError(f"header {key!r} is not an integer: {val!r}") from None

    verdict = header("verdict")
    mu, nu, k = header_int("mu"), header_int("nu"), header_int("k")
    stats = SynthStats()
    if "stats" in heads:
        try:
            f = dict(tok.split("=", 1) for tok in header("stats").split())
            conf, dec, props = (None if f.get(key, "-") == "-" else int(f[key])
                                for key in ("conflicts", "decisions", "propagations"))
            stats = SynthStats(int(f.get("vars", 0)), int(f.get("clauses", 0)),
                               int(f.get("time_ms", 0)), conf, dec, props,
                               int(f.get("rounds", 0)))
        except ValueError:
            raise ResultParseError(f"malformed stats line {header('stats')!r}") from None
    if verdict != "Realizable":
        reason = header("reason") if "reason" in heads else ""
        return ResultDoc(verdict, mu, nu, k, reason, (), None, None, stats)

    names = tuple(header("observations").split())
    zidx = {z: i for i, z in enumerate(names)}
    if len(zidx) != len(names):
        dup = next(z for i, z in enumerate(names) if zidx[z] != i)
        raise ResultParseError(f"header 'observations' repeats the name {dup!r}")
    n_new = header_int("new") if "new" in heads else 0
    n_obs = len(names) - n_new
    if not (0 <= n_new <= len(names)
            and names[n_obs:] == tuple(f"@{i}" for i in range(n_new))
            and not any(z.startswith("@") for z in names[:n_obs])):
        raise ResultParseError(f"header 'new' is {n_new}, but 'observations' does not end in "
                               f"exactly that many fresh names @0, @1, ...")
    if not _base_alphabet(names[:n_obs], p.observations):
        raise ResultParseError("header 'observations' does not start with the model's "
                               "observations, nor with a sensor alphabet over them")
    n_mem = header_int("memory")
    if n_mem < 1:
        raise ResultParseError(f"header 'memory' must be at least 1, got {n_mem}")
    if n_mem > len(lines["action"]):  # checked before any table is sized by it
        raise ResultParseError(f"header 'memory' is {n_mem}, but the document has "
                               f"{len(lines['action'])} action lines")
    aidx = {a: i for i, a in enumerate(p.actions)}
    sidx = {s: i for i, s in enumerate(p.states)}
    midx = {f"m{m}": m for m in range(n_mem)}

    act = [None] * n_mem
    for ln, (mname,), rest in lines["action"]:
        m = lookup(midx, mname, "memory element", ln)
        if act[m] is not None:
            raise ResultParseError(f"line {ln}: repeated action line for {mname}")
        act[m] = tuple(lookup(aidx, t, "action", ln) for t in rest.split())
        if not act[m]:
            raise ResultParseError(f"line {ln}: empty action support")
    if any(a is None for a in act):
        raise ResultParseError("missing action line for some memory element")

    upd = [[[None] * p.n_actions for _ in names] for _ in range(n_mem)]
    for ln, (mname, zname, aname), rest in lines["update"]:
        m = lookup(midx, mname, "memory element", ln)
        z = lookup(zidx, zname, "observation", ln)
        a = lookup(aidx, aname, "action", ln)
        if upd[m][z][a] is not None:
            raise ResultParseError(f"line {ln}: repeated update line for {mname} {zname} {aname}")
        upd[m][z][a] = tuple(lookup(midx, t, "memory element", ln) for t in rest.split())
        if not upd[m][z][a]:
            raise ResultParseError(f"line {ln}: empty memory support")
    for m in range(n_mem):
        for z in range(len(names)):
            for a in range(p.n_actions):
                if upd[m][z][a] is None:
                    if a in act[m]:
                        raise ResultParseError(
                            f"missing update line for m{m} {names[z]} {p.actions[a]}")
                    # cells of actions outside sigma_n(m) never fire; any value works
                    upd[m][z][a] = (0,)
    policy = Policy(n_mem=n_mem,
                    act=tuple(act),
                    update=tuple(tuple(tuple(zr) for zr in mr) for mr in upd))

    rows, read_obs = [None] * p.n_states, row_reader(zidx, "observation")
    for ln, (sname,), rest in lines["obs"]:
        s = lookup(sidx, sname, "state", ln)
        if rows[s] is not None:
            raise ResultParseError(f"line {ln}: repeated obs line for {sname}")
        rows[s] = read_obs(rest, sname, ln)
    if any(r is None for r in rows):
        raise ResultParseError("missing obs line for some state")
    completion = Completion(n_new=n_new, rows=tuple(rows))
    return ResultDoc(verdict, mu, nu, k, "", names, completion, policy, stats)
