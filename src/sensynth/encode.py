"""CNF encoding of almost-sure reachability for partially observed models:
does a completion of the observation function with at most nu fresh
symbols admit an almost-sure winning policy with at most mu memory elements?

Variable families (in fixed numbering order, auxiliaries last):
  A(m,a)        action a has positive probability in memory m
  M(m,z,a,m')   memory update m -z,a-> m' has positive probability, z in Z'
  O(s,z)        completed observation function puts mass on z at state s
  C(s,m)        state-memory pair reachable under the chosen supports
  P(s,m,j)      true only if the goal is reachable from (s,m) within j
                steps, 0 <= j <= k
Z' is the declared alphabet plus nu fresh symbols (or Z x Val(C) in
sensor-variable mode).  Every auxiliary is implied in one direction only
(Plaisted & Greenbaum 1986): those that bound P, with an edge literal per
product edge (m,a,s',m') shared by all layers (encode_path_predicate), and
the value-precedence and lexicographic chains of symmetry breaking
(encode_symmetry).  One rule, row_rule, says which symbols each row gives,
allows and must meet, in every mode; the modes differ only in what a row
allows.  It sets every observed state's O row (encode_observation_fn), with
a pairwise at-most-one over the allowed symbols in deterministic mode, and
the fixed fill of every other row (row_fills).  Each (mu, nu) cell that is
searched has its own formula.

synth always encodes with k None: no P and no edge literal, and it defines
an edge literal (edge_literal) the first time a trap cut names its product
edge.  P remains only for the traced replay and the tests.

The region comes from mdp_prepass(), one attractor computation on the fully
observable model, which is the encoder's only source of MDP facts: V, the
states reachable from the initial state through safe actions (those whose
successors all lie in the MDP's almost-sure winning region W), holds every
state a winning policy can visit.  C and P range over V only: a state
outside V gets no variable and no clause.  An action with a successor
outside V is forbidden at every reached pair by one clause -C(s,m) | -A(m,a)
(encode_reach_closure), and P unrolls the other actions only.

O, the deterministic at-most-one and the value-precedence chain cover the
observed set L only (row_fills): V, the states a side constraint names, and
the states whose rule has no fixed fill for every cell.  Every other row is
left to synth.decode_completion, which gives it its fill, a row that
satisfies all of its clauses; no clause outside its own row names it, since
the closure, P and the edge literals name only states of V.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from fractions import Fraction

from .model import (_NAME_RE, BOT, ModelSemanticError, PartialObsFn, Pomdp, lookup,
                    statements)


class Cnf:
    """Clause store over positive variable ids; negative literal = negation.

    Clauses live in one flat int arena (zero-terminated), which keeps
    multi-million-clause encodings affordable.  Construction rejects
    tautological clauses and drops duplicate literals, so every clause in the
    arena is non-tautological and free of repeated literals; the empty
    clause is allowed and makes the formula unsatisfiable.  It is the one
    clause store: sat.Solver loads the arena as it is, then what is added
    later, and relies on that invariant; whole clauses may repeat.
    """

    def __init__(self):
        self._lits = array("i")
        self._n = 0
        self.max_var = 0
        self.nvars = 0

    def __len__(self):
        return self._n

    def add(self, lits):
        seen = set()
        clause = []
        for l in lits:
            if l == 0:
                raise ValueError("literal 0 in clause")
            if -l in seen:
                raise ValueError(f"tautological clause {list(lits)}")
            if l not in seen:
                seen.add(l)
                clause.append(l)
        for l in clause:
            v = l if l > 0 else -l
            if v > self.max_var:
                self.max_var = v
        self._lits.extend(clause)
        self._lits.append(0)
        self._n += 1

    def __iter__(self):
        cur = []
        for l in self._lits:
            if l == 0:
                yield cur
                cur = []
            else:
                cur.append(l)

    def literal_array(self):
        """The raw zero-terminated literal arena (read-only use)."""
        return self._lits

    def finalize(self, nvars):
        if nvars < self.max_var:
            raise ValueError(f"literal {self.max_var} exceeds declared variable count {nvars}")
        self.nvars = nvars
        return self


class VarMap:
    """Deterministic numbering of the semantic variable families.

    Semantic ids occupy 1..n_semantic in block order A, M, O, C, P;
    auxiliaries are handed out past that.  The C and P blocks cover only the
    states of region (mdp_prepass), in ascending order; var_c and var_p of a
    state outside it raise TypeError.  The O block covers only the observed
    set L, the states without a fill in fills (row_fills), in ascending
    order; var_o of a state outside L raises TypeError.  region None means
    every state, fills None (or empty) an L of every state, and k None no P
    block.  safe maps each region state to its safe actions, ascending: those
    whose successors all lie in the region.  edges maps (m,a,s',m') to the
    edge literals edge_literal has defined so far; it starts empty.
    """

    def __init__(self, p, mu, nu, k, region=None, fills=None):
        if mu < 1:
            raise ValueError(f"mu must be >= 1, got {mu}")
        if nu < 0:
            raise ValueError(f"nu must be >= 0, got {nu}")
        if k is not None and k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.mu = mu
        self.nu = nu
        self.k = k
        self.ns = p.n_states
        self.na = p.n_actions
        self.znames = tuple(p.observations) + tuple(f"@{t}" for t in range(nu))
        self.nzp = len(self.znames)
        self.state_names = p.states
        self.action_names = p.actions
        self.region = frozenset(range(self.ns) if region is None else region)
        self._covered = sorted(self.region)  # the states with C and P variables
        self._pos = [None] * self.ns  # a state's index in _covered
        for i, s in enumerate(self._covered):
            self._pos[s] = i
        self.safe = {s: tuple(a for a in range(self.na) if self.region.issuperset(p.succ(s, a)))
                     for s in self._covered}
        self.fills = fills or {}
        self.observed = tuple(s for s in range(self.ns) if s not in self.fills)  # L
        self._opos = [None] * self.ns  # a state's index in observed
        for i, s in enumerate(self.observed):
            self._opos[s] = i
        na, mu_, nzp, nv = self.na, mu, self.nzp, len(self._covered)
        self._off_a = 0
        self._off_m = self._off_a + mu_ * na
        self._off_o = self._off_m + mu_ * nzp * na * mu_
        self._off_c = self._off_o + len(self.observed) * nzp
        self._off_p = self._off_c + nv * mu_
        self.n_semantic = self._off_p + (0 if k is None else nv * mu_ * (k + 1))
        if self.n_semantic >= 2**31:
            raise OverflowError(f"variable count {self.n_semantic} overflows the 31-bit literal space")
        self._next_aux = self.n_semantic + 1
        self.edges = {}

    # semantic ids are 1-based
    def var_a(self, m, a):
        return 1 + self._off_a + m * self.na + a

    def var_m(self, m, z, a, m2):
        return 1 + self._off_m + ((m * self.nzp + z) * self.na + a) * self.mu + m2

    def var_o(self, s, z):
        return 1 + self._off_o + self._opos[s] * self.nzp + z

    def var_c(self, s, m):
        return 1 + self._off_c + self._pos[s] * self.mu + m

    def var_p(self, s, m, j):
        return 1 + self._off_p + (self._pos[s] * self.mu + m) * (self.k + 1) + j

    def fresh_aux(self):
        v = self._next_aux
        if v >= 2**31:
            raise OverflowError("variable count overflows the 31-bit literal space")
        self._next_aux = v + 1
        return v

    @property
    def nvars(self):
        return self._next_aux - 1

    @property
    def n_aux(self):
        return self.nvars - self.n_semantic

    def var_name(self, v):
        """Readable name of a semantic id (auxiliaries are just aux<id>)."""
        if v > self.n_semantic:
            return f"aux{v}"
        i = v - 1
        if i < self._off_m:
            m, a = divmod(i - self._off_a, self.na)
            return f"A(m{m},{self.action_names[a]})"
        if i < self._off_o:
            rest, m2 = divmod(i - self._off_m, self.mu)
            rest, a = divmod(rest, self.na)
            m, z = divmod(rest, self.nzp)
            return f"M(m{m},{self.znames[z]},{self.action_names[a]},m{m2})"
        if i < self._off_c:
            s, z = divmod(i - self._off_o, self.nzp)
            return f"O({self.state_names[self.observed[s]]},{self.znames[z]})"
        if i < self._off_p:
            s, m = divmod(i - self._off_c, self.mu)
            return f"C({self.state_names[self._covered[s]]},m{m})"
        sm, j = divmod(i - self._off_p, self.k + 1)
        s, m = divmod(sm, self.mu)
        return f"P({self.state_names[self._covered[s]]},m{m},{j})"


@dataclass(frozen=True)
class SideConstraints:
    """Optional constraint extensions and encoding mode flags.

    same/diff hold state-index pairs (states forced to share / never share an
    observation); implies holds (state, z, z') dependency triples over the
    declared alphabet.  sensor_values switches to sensor-variable mode, where
    Z' becomes Z x Val(C); sensor_base then carries the per-state base
    supports the paired alphabet refines (filled by sensor_model).
    """

    same: tuple = ()
    diff: tuple = ()
    implies: tuple = ()
    sensor_name: str = ""
    sensor_values: tuple = None
    sensor_base: tuple = None
    deterministic: bool = False
    strict: bool = False


def parse_constraints(text, p):
    """Parse a constraints file (`same s s'`, `diff s s'`, `implies s z z'`,
    `sensor C c1 c2 ...`) against a model's state/observation names."""
    sidx = {n: i for i, n in enumerate(p.states)}
    zidx = {n: i for i, n in enumerate(p.observations)}
    same, diff, implies = [], [], []
    sensor_name, sensor_values = "", None
    for ln, stmt in statements(text):
        toks = stmt.split()
        kind = toks[0]
        if kind in ("same", "diff") and len(toks) == 3:
            a, b = (lookup(sidx, t, "state", ln) for t in toks[1:])
            if a == b:
                raise ModelSemanticError(toks[1], f"{kind} pair needs two distinct states (line {ln})")
            (same if kind == "same" else diff).append((a, b))
        elif kind == "implies" and len(toks) == 4:
            z, z2 = (lookup(zidx, t, "observation", ln) for t in toks[2:])
            if z == z2:
                raise ModelSemanticError(toks[2], f"dependency needs two distinct observations (line {ln})")
            implies.append((lookup(sidx, toks[1], "state", ln), z, z2))
        elif kind == "sensor" and len(toks) >= 3:
            if sensor_values is not None:
                raise ModelSemanticError(toks[1], f"second sensor line (line {ln})")
            bad = next((t for t in toks[1:] if not _NAME_RE.match(t)), None)
            if bad is not None:  # a result document could not name the pairs
                raise ModelSemanticError(bad, f"bad sensor name or value (line {ln})")
            if len(set(toks[2:])) != len(toks[2:]):
                raise ModelSemanticError(toks[1], f"duplicate sensor value (line {ln})")
            sensor_name, sensor_values = toks[1], tuple(toks[2:])
        else:
            raise ModelSemanticError("constraints", f"unrecognized line {ln}: {stmt!r}")
    return SideConstraints(
        same=tuple(same),
        diff=tuple(diff),
        implies=tuple(implies),
        sensor_name=sensor_name,
        sensor_values=sensor_values,
    )


def sensor_model(p, sc):
    """Rewrite a model for sensor-variable mode.

    The observation alphabet becomes Z x Val(C) (named "z:c"), every state is
    set fully undefined, and the original per-state supports are recorded in
    the returned SideConstraints so the encoder can emit the refinement
    clauses: a state that produced z must produce some (z, c), and never any
    (z', c) for unproduced z'.  Only the goal may lack a base symbol (say,
    the state reduce_targets appends); it then takes any pair.
    """
    vals = sc.sensor_values
    if not vals:
        raise ValueError("sensor mode requires a nonempty value set")
    names = tuple(f"{z}:{c}" for z in p.observations for c in vals)
    base = tuple(p.obs.support(s) for s in range(p.n_states))
    for s, supp in enumerate(base):
        if not supp and s != p.goal:
            # a state that never produces a base symbol would produce no
            # pair either, leaving the refined function non-total; the
            # goal's row cannot change a verdict, so it may take any pair
            raise ModelSemanticError(
                p.states[s], "sensor mode needs a base observation in every state but the goal")
    if sc.implies:
        raise ModelSemanticError(
            sc.sensor_name, "dependency constraints reference the original alphabet; not available in sensor mode")
    if sc.strict:
        raise ModelSemanticError(
            sc.sensor_name, "strict completion is meaningless in sensor mode (all states are reset to undefined)")
    bot_row = ((BOT, Fraction(1)),)
    p2 = Pomdp(
        states=p.states,
        actions=p.actions,
        observations=names,
        initial=p.initial,
        goal=p.goal,
        delta=p.delta,
        obs=PartialObsFn(tuple(bot_row for _ in range(p.n_states))),
    )
    return p2, replace(sc, sensor_base=base)


def mdp_prepass(p):
    """The region V a winning policy can visit, a frozenset of states.

    First the almost-sure winning region W of the underlying MDP: the states
    from which some strategy of the fully observable MDP reaches the goal
    with probability 1, the attractor fixpoint that repeatedly keeps only the
    states that can reach the goal using safe actions, those whose successors
    all stay in the set (Baier & Katoen, Principles of Model Checking,
    ch. 10).  Each iteration is one search backward from the goal.  V is the
    set of states reachable from the initial state through actions safe for
    W; it is empty when the initial state lies outside W.

    A finite-memory policy under any completion is one strategy of this MDP,
    and it still wins from each pair it reaches when it wins at all: so that
    pair's state is in W and every action it enables there is safe, which
    keeps every reached state in V.
    """
    ns, na, g = p.n_states, p.n_actions, p.goal
    pred = [[] for _ in range(ns)]  # pred[t]: the (s, a) with t in succ(s, a)
    for s in range(ns):
        for a in range(na):
            for t in p.succ(s, a):
                pred[t].append((s, a))

    win = set(range(ns))
    while True:
        reach, todo = {g}, [g]
        for t in todo:
            for s, a in pred[t]:
                if s not in reach and win.issuperset(p.succ(s, a)):
                    reach.add(s)
                    todo.append(s)
        if reach == win:
            break
        win = reach

    region = {p.initial} if p.initial in win else set()
    todo = list(region)
    while todo:
        s = todo.pop()
        for a in range(na):
            if win.issuperset(p.succ(s, a)):
                for t in p.succ(s, a):
                    if t not in region:
                        region.add(t)
                        todo.append(t)
    return frozenset(region)


def row_rule(p, sc, s, n_obs, nu):
    """The completion rule of state s's row over Z' = n_obs declared symbols
    and nu fresh ones, as (given, allowed, groups): a completed row holds
    every given symbol, only allowed symbols, and at least one symbol of each
    group.  given is the row's support in the model.

    Sensor mode allows the pairs (z, c) of the state's base symbols z, with
    one group per z (a state that produced z produces some (z, c)).
    Otherwise a row with no undefined mass allows its given symbols, strict
    mode (the literal completion definition) the given and the fresh ones,
    and permissive mode all of Z'; a row that gives no symbol gets one group
    over its allowed symbols.  So does the goal in sensor mode, which needs
    no base symbol (sensor_model).  The modes differ only in allowed.
    """
    given = p.obs.support(s)
    if sc.sensor_values is not None:
        if sc.sensor_base is None:
            raise ValueError("sensor mode needs base supports; build the model via sensor_model()")
        if sc.sensor_base[s]:
            nvals = len(sc.sensor_values)
            groups = [range(z * nvals, z * nvals + nvals) for z in sorted(sc.sensor_base[s])]
            return given, [z for grp in groups for z in grp], groups
    allowed = (given if p.obs.fully_defined(s) else given + tuple(range(n_obs, n_obs + nu))
               if sc.strict else range(n_obs + nu))
    return given, allowed, [] if given else [allowed]


def row_fills(p, sc, region):
    """The fixed rows of the states outside the observed set L, as a dict
    from each such state to its fill, a sorted tuple of symbols.

    A fill comes from the row's rule (row_rule): the given symbols, or for a
    row that gives none the first symbol of each group, so a blank row takes
    symbol 0.  The rule is read at the fewest symbols that any formula has:
    the declared ones, or @0 alone when the model declares none (a cell with
    no symbol at all needs no formula).  A formula with more symbols allows
    a superset, and each of its groups holds the same first symbol, so the
    fill satisfies the row's clauses at every cell.  In deterministic mode a
    fill has one symbol.

    L is region V, every state a same, diff or implies constraint names, and
    every state whose rule has no such fill: a strict-mode blank row over a
    declared alphabet, which allows only fresh symbols, and a deterministic
    row whose given (or, in sensor mode, base) symbols are two or more.
    Each keeps its clauses and so its verdict.  The rule reads only the
    state's row and base symbols, so each distinct pair of them is worked
    out once.
    """
    named = {s for pair in sc.same + sc.diff for s in pair} | {s for s, _, _ in sc.implies}
    n_obs, base = p.n_obs, sc.sensor_base or ()
    fills, memo = {}, {}
    for s in range(p.n_states):
        if s in region or s in named:
            continue
        key = (id(p.obs.rows[s]), base and base[s])  # p keeps its rows alive
        if key not in memo:
            given, _, groups = row_rule(p, sc, s, n_obs, 0 if n_obs else 1)
            fill = (tuple(sorted(given)) if given else
                    tuple(grp[0] for grp in groups) if all(groups) else ())  # () from an empty group
            memo[key] = fill if fill and not (sc.deterministic and len(fill) > 1) else None
        if memo[key] is not None:
            fills[s] = memo[key]
    return fills


def encode_action_selection(vm, out=None):
    """Every memory element chooses at least one action: mu clauses."""
    out = out if out is not None else Cnf()
    for m in range(vm.mu):
        out.add([vm.var_a(m, a) for a in range(vm.na)])
    return out


def encode_memory_update(vm, out=None):
    """sigma_u is well-defined: one clause per (m, z in Z', a)."""
    out = out if out is not None else Cnf()
    for m in range(vm.mu):
        for z in range(vm.nzp):
            for a in range(vm.na):
                out.add([vm.var_m(m, z, a, m2) for m2 in range(vm.mu)])
    return out


def at_most_one(lits, out):
    """Pairwise at-most-one: -x | -y for every two of lits."""
    for i, x in enumerate(lits):
        for y in lits[i + 1:]:
            out.add((-x, -y))
    return out


def encode_observation_fn(p, vm, sc, out=None):
    """Per-state clauses pinning the completed observation function, over
    the observed states (VarMap.observed), from each row's rule (row_rule):
    a true unit per given symbol, a clause per group, and a false unit per
    symbol the row does not allow.  An empty group admits no completion and
    is the empty clause.  Deterministic mode adds at_most_one over the
    allowed symbols; the units or groups are the at-least-one half.
    """
    out = out if out is not None else Cnf()
    nzp, n_obs = vm.nzp, vm.nzp - vm.nu
    for i in vm.observed:
        given, allowed, groups = row_rule(p, sc, i, n_obs, vm.nu)
        for grp in groups:
            out.add([vm.var_o(i, z) for z in grp])
        for z in given:
            out.add((vm.var_o(i, z),))
        if len(allowed) < nzp:  # a row that forbids nothing needs no per-state set
            for z in sorted(set(range(nzp)).difference(allowed)):
                out.add((-vm.var_o(i, z),))
        if sc.deterministic:
            at_most_one([vm.var_o(i, z) for z in allowed], out)
    return out


def encode_reach_closure(p, vm, out=None):
    """Reachability closure of state-memory pairs under the chosen supports.

    Anchor unit C(I,m0), then propagation along every positive-probability
    transition, observation symbol, and memory update of a safe action.
    Clauses that would be tautological (self-loop propagating a pair to
    itself) are vacuous and skipped.

    Only the states of vm.region V have C variables (mdp_prepass).  No
    clause starts from a state outside it.  An action a at a state i in V is
    safe when its successors all lie in V (vm.safe); an unsafe one gets no
    propagation clause, only -C(i,m) | -A(m,a) for each memory element m:
    it is never enabled at a reached pair.  Sound because a winning policy
    enables at each pair it reaches only actions whose successors all lie in
    W, and a state of V reaches only states of V through those.  An initial
    state outside V leaves no anchor, and the family is the empty clause.
    """
    out = out if out is not None else Cnf()
    mu, nzp, region = vm.mu, vm.nzp, vm.region
    if p.initial not in region:
        out.add(())
        return out
    out.add((vm.var_c(p.initial, 0),))
    for i, safe in vm.safe.items():
        for a in range(vm.na):
            av = [vm.var_a(m, a) for m in range(mu)]
            if a not in safe:
                for m in range(mu):
                    out.add((-vm.var_c(i, m), -av[m]))
                continue
            for j in p.succ(i, a):
                for z in range(nzp):
                    ov = vm.var_o(j, z)
                    for m in range(mu):
                        ci = vm.var_c(i, m)
                        for m2 in range(mu):
                            if i == j and m == m2:
                                continue
                            out.add((-ci, -av[m], -ov, -vm.var_m(m, z, a, m2), vm.var_c(j, m2)))
    return out


def encode_path_predicate(p, vm, out=None):
    """Bounded goal-reachability predicate P and its linkage to C.

    P(G,m,j) holds everywhere, nothing else is reachable in 0 steps, every
    reachable pair must reach the goal within k, and for i != G, j >= 1 the
    predicate is bounded by the one-step unrolling in one direction only

        P(i,m,j) -> OR_a [ A(m,a) & OR_{m',i' in succ(i,a)} (e & P(i',m',j-1)) ]
        e(m,a,i',m') -> OR_z (O(i',z) & M(m,z,a,m'))

    through auxiliaries t -> e & P(i',m',j-1) and u -> A & OR t, one per
    distinct conjunct and shared by every P that uses it (Plaisted &
    Greenbaum, J. Symbolic Computation 2(3), 1986).  The edge literal e
    (edge_literal, which also gives e -> A, implied here through u) names
    no layer and no source, so each product edge defines it once: an edge
    costs 2|Z'| + 2 + 2k clauses, not 3|Z'|k.  P and every auxiliary occur
    only positively elsewhere (C -> P(k)), so a true P(i,m,j) still implies
    a product path of at most j steps, exact values satisfy every clause,
    and the formula is equisatisfiable with the two-way definition at every
    k.  Sharing is sound since an auxiliary implies only its own conjunct.

    Only the states of vm.region have P variables, and only safe actions
    (vm.safe), those whose successors all lie in the region, are unrolled:
    the closure forbids every other action at every reached pair
    (encode_reach_closure), and a product path from a reached pair runs
    through reached pairs.
    """
    out = out if out is not None else Cnf()
    mu, nzp, k, g, region = vm.mu, vm.nzp, vm.k, p.goal, vm.region
    states = sorted(region)
    if g in region:
        for m in range(mu):
            for j in range(k + 1):
                out.add((vm.var_p(g, m, j),))
    for i in states:
        if i == g:
            continue
        for m in range(mu):
            out.add((-vm.var_p(i, m, 0),))
    for i in states:
        for m in range(mu):
            out.add((-vm.var_c(i, m), vm.var_p(i, m, k)))

    cons = {}
    for i in states:
        if i == g:
            continue
        for m in range(mu):
            for j in range(1, k + 1):
                disj = []
                for a in range(vm.na):
                    succ = p.succ(i, a)
                    dkey = (m, a, j, succ)
                    if dkey in cons:
                        u = cons[dkey]
                    else:
                        inner = []
                        # no symbol: no edge; an unsafe action is not unrolled
                        for i2 in succ if nzp and a in vm.safe[i] else ():
                            for m2 in range(mu):
                                tkey = (m, a, i2, m2, j)
                                t = cons.get(tkey)
                                if t is None:
                                    t = cons[tkey] = vm.fresh_aux()
                                    out.add((-t, edge_literal(vm, (m, a, i2, m2), out.add)))
                                    out.add((-t, vm.var_p(i2, m2, j - 1)))
                                inner.append(t)
                        u = None
                        if inner:
                            u = vm.fresh_aux()
                            out.add((-u, vm.var_a(m, a)))
                            out.add([-u] + inner)
                        cons[dkey] = u
                    if u is not None:
                        disj.append(u)
                out.add([-vm.var_p(i, m, j)] + disj)  # a unit when no disjunct is left
    return out


def edge_literal(vm, key, add):
    """vm.edges[key], key = (m,a,s',m'), defined on first use as a fresh
    e -> A(m,a) & OR_z (O(s',z) & M(m,z,a,m')), its clauses going to add:
    x -> O & M per symbol, e -> OR x and e -> A, or e -> O & M and e -> A
    directly when |Z'| = 1.  A true e is the edge (s,m) -> (s',m') at every
    s with s' in succ(s,a).  The trap cuts (synth) and P use e positively
    only, so e constrains nothing."""
    e = vm.edges.get(key)
    if e is None:
        m, a, s2, m2 = key
        e = vm.edges[key] = vm.fresh_aux()
        xs = [e] if vm.nzp == 1 else [vm.fresh_aux() for _ in range(vm.nzp)]
        for z, x in enumerate(xs):
            add((-x, vm.var_o(s2, z)))
            add((-x, vm.var_m(m, z, a, m2)))
        if vm.nzp != 1:
            add([-e] + xs)
        add((-e, vm.var_a(m, a)))
    return e


def encode_side_constraints(sc, vm, out=None):
    """Distinguishability and dependency clauses over the O family."""
    out = out if out is not None else Cnf()
    nzp = vm.nzp

    def check_state(s):
        if not (0 <= s < vm.ns):
            raise ModelSemanticError(str(s), "constraint references unknown state")

    for i, j in sc.same:
        check_state(i)
        check_state(j)
        if i == j:
            raise ModelSemanticError(vm.state_names[i], "same pair needs two distinct states")
        for z in range(nzp):
            out.add((-vm.var_o(i, z), vm.var_o(j, z)))
            out.add((vm.var_o(i, z), -vm.var_o(j, z)))
    for i, j in sc.diff:
        check_state(i)
        check_state(j)
        if i == j:
            raise ModelSemanticError(vm.state_names[i], "diff pair needs two distinct states")
        for z in range(nzp):
            out.add((-vm.var_o(i, z), -vm.var_o(j, z)))
    for i, z, z2 in sc.implies:
        check_state(i)
        if not (0 <= z < nzp and 0 <= z2 < nzp):
            raise ModelSemanticError(str((z, z2)), "constraint references unknown observation")
        if z == z2:
            raise ModelSemanticError(vm.znames[z], "dependency needs two distinct observations")
        out.add((-vm.var_o(i, z), vm.var_o(i, z2)))
    return out


def encode_symmetry(p, vm, out=None):
    """Symmetry-breaking predicates (Crawford, Ginsberg, Luks & Roy, KR 1996):
    they keep at least one assignment of every orbit under renaming fresh
    symbols and memory elements m1.., so satisfiability is unchanged.

    Fresh observation symbols are interchangeable, so @t may first be used
    only at an observed state strictly after the first use of @t-1 (value
    precedence over L = l_0 < l_1 < ..., VarMap.observed): -O(l_0,@t) and
    O(l_i,@t) -> used[t-1][i-1].  Memory elements other than m0 are
    interchangeable, so the action rows of m1.. are lexicographically
    nonincreasing, A(m,.) >= A(m+1,.) with true above false.

    The formula is equisatisfiable with the full-row one, whose O rows,
    at-most-one and chain cover every state (VarMap without fills):

    - A model of this formula, with each row outside L set to its fill
      (row_fills), satisfies the full-row formula.  Each fill satisfies its
      own row's clauses at the cell, and no closure, P, edge literal or side
      constraint names a state outside L.  A fill's only possible fresh
      symbol is @0, which precedence never forbids, so each @t with t >= 1
      is first used at the state where it is first used in L, and @0 no
      later than in L: the chain over every state holds.
    - A full-row model, with its fresh symbols renamed by first use within L
      (the unused ones last), satisfies this formula.  Renaming fresh
      symbols, M columns with them, maps models of every other family to
      models, and the renamed rows of L use the fresh symbols in order.
      That order is strict unless a state of L is the first in L to use two
      fresh symbols, which singleton rows (deterministic mode) never do.
      With set-valued rows a full-row model can first use two symbols at
      two states outside L and both next at one state of L; strict
      precedence over L excludes that.  It is the chain's gap over all
      states, where one state can also be the first to use two symbols,
      and it rests on the same evidence: the tests compare this formula
      with the full-row one and with brute_force_decide in set-valued mode.

    Each auxiliary is defined in one direction only, and each direction is
    sound for the same reason: the literal occurs in one polarity outside
    its own definition, so only the implied direction can matter.

    - used[t][i] -> used[t][i-1] | O(l_i,@t), with base used[t][0] ->
      O(l_0,@t).  By induction on i, a true used[t][i] has @t at some state
      l_0..l_i, so O(l_i,@t+1) -> used[t][i-1] still puts the first use of
      @t before that of @t+1.  Setting used to its exact meaning satisfies
      the chain, so no ordered completion is lost.  The last state's literal
      would occur in no precedence clause and is not made.
    - g, one per action a < |A|-1 of each pair of rows m, m+1, is a prefix
      literal: g_prev -> (x | -y), (g_prev & -x) -> g and (g_prev & y) -> g,
      with x = A(m,a), y = A(m+1,a) and no g_prev at a = 0.  Given the
      comparison at a, -x or y means x = y, so by induction g holds wherever
      the rows agree on actions 0..a, and the comparison is enforced up to
      the first difference.  Setting g to that prefix equality satisfies
      every clause of two ordered rows.
    """
    out = out if out is not None else Cnf()
    mu, na, states = vm.mu, vm.na, vm.observed
    fresh = range(vm.nzp - vm.nu, vm.nzp) if states else ()
    used = []  # used[t][i] -> some state l_0..l_i produces fresh symbol t
    for z in fresh[:-1]:
        chain = []
        for s in states[:-1]:
            u = vm.fresh_aux()
            out.add([-u, vm.var_o(s, z)] + chain[-1:])
            chain.append(u)
        used.append(chain)
    for t, z in enumerate(fresh[1:]):
        out.add((-vm.var_o(states[0], z),))
        for i in range(1, len(states)):
            out.add((-vm.var_o(states[i], z), used[t][i - 1]))
    for m in range(1, mu - 1):
        guard = []  # [-g_prev], empty at the first action
        for a in range(na):
            x, y = vm.var_a(m, a), vm.var_a(m + 1, a)
            out.add(guard + [x, -y])
            if a < na - 1:
                g = vm.fresh_aux()
                out.add(guard + [x, g])
                out.add(guard + [-y, g])
                guard = [-g]
    return out


def encode(p, mu, nu, k, sc=None, region=None):
    """Assemble the full formula; returns (Cnf, VarMap).

    Expects a model with an absorbing goal (parse_pomdp guarantees this; for
    programmatic models apply model.reduce_targets first).  In sensor mode
    pass the transformed model from sensor_model() and nu = 0.  region is
    mdp_prepass(p), computed here when not given: C and P range over it, and
    O over the observed set of row_fills.
    k None encodes no P and no edge literal (edge_literal defines those on
    demand).
    """
    sc = sc if sc is not None else SideConstraints()
    if not p.absorbing(p.goal):
        raise ValueError("goal must be absorbing; apply reduce_targets first")
    if sc.sensor_values is not None and nu != 0:
        raise ValueError("sensor mode replaces the fresh symbols; nu must be 0")
    region = mdp_prepass(p) if region is None else region
    vm = VarMap(p, mu, nu, k, region, row_fills(p, sc, region))
    out = Cnf()
    encode_action_selection(vm, out)
    encode_memory_update(vm, out)
    encode_observation_fn(p, vm, sc, out)
    encode_reach_closure(p, vm, out)
    if k is not None:
        encode_path_predicate(p, vm, out)
    encode_side_constraints(sc, vm, out)
    encode_symmetry(p, vm, out)
    return out.finalize(vm.nvars), vm
