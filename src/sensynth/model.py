"""POMDP data model: core types, text format, validation, target reduction,
and the line reader that constraint files and result documents share.

Probabilities are exact rationals throughout, so validation has no
float-tolerance questions.  Qualitative (almost-sure) analysis depends only on
distribution supports, so exact arithmetic stays off its path.  Models repeat
a few row texts on most lines, so each distinct row is read and tabulated
once: a document reads its rows through one memo per name table (row_reader),
read_row checks each distinct tuple of weight tokens once, and the support
tables of a model, completion or observation function have one entry per
distinct row object (_per_row).  Exact rationals are still used by row
validation, completed weights (synth.decode_completion), verify.simulate
and printing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

# Index used for the undefined-observation symbol in PartialObsFn rows.
BOT = -1


def _positive(w):
    """w > 0 for an exact weight, without Fraction's comparison protocol: a
    Fraction's denominator is positive, so its sign is its numerator's."""
    return w.numerator > 0


def _support(row):
    """The entries of a row of (entry, weight) pairs with positive weight."""
    return tuple(x for x, w in row if _positive(w))


def _per_row(f):
    """f, computed once per distinct row object (parsed rows of equal text
    are one object).  The rows outlive the memo, so no id is reused in it."""
    memo = {}

    def once(row):
        key = id(row)
        if key not in memo:
            memo[key] = f(row)
        return memo[key]
    return once


class ModelError(ValueError):
    """Base for everything the parser/validator can reject."""


class ModelSyntaxError(ModelError):
    def __init__(self, line, col, msg):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


class ModelSemanticError(ModelError):
    def __init__(self, entity, msg):
        super().__init__(f"{entity}: {msg}")
        self.entity = entity


@dataclass(frozen=True)
class PartialObsFn:
    """Per-state distribution over observations plus the undefined symbol.

    rows[s] is a tuple of (z, weight) pairs, z an observation index or BOT.
    """

    rows: tuple

    @cached_property
    def _supports(self):
        return tuple(map(_per_row(lambda row: tuple(z for z in _support(row) if z != BOT)),
                         self.rows))

    @cached_property
    def _bot_mass(self):  # exact sums, only decoding reads them
        return tuple(map(_per_row(lambda row: sum((w for z, w in row if z == BOT),
                                                  Fraction(0))), self.rows))

    @cached_property
    def _defined(self):  # no undefined mass: weights are not negative
        return tuple(map(_per_row(lambda row: not any(z == BOT and _positive(w)
                                                      for z, w in row)), self.rows))

    def support(self, s):
        """Observation indices with positive weight at state s (BOT excluded)."""
        return self._supports[s]

    def bot_mass(self, s):
        return self._bot_mass[s]

    def fully_defined(self, s):
        return self._defined[s]


@dataclass(frozen=True)
class Pomdp:
    states: tuple
    actions: tuple
    observations: tuple
    initial: int
    goal: int
    delta: tuple  # delta[s][a] = tuple of (successor, weight)
    obs: PartialObsFn

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_actions(self):
        return len(self.actions)

    @property
    def n_obs(self):
        return len(self.observations)

    @cached_property
    def _succ(self):  # one table per model; not a field, so == and hash ignore it
        once = _per_row(_support)
        return tuple(tuple(map(once, rows)) for rows in self.delta)

    def succ(self, s, a):
        """Successor state indices with positive probability under (s, a)."""
        return self._succ[s][a]

    def absorbing(self, s):
        return all(self.succ(s, a) == (s,) for a in range(self.n_actions))


@dataclass(frozen=True)
class Completion:
    """Fully defined observation function over Z' = Z + n_new fresh symbols.

    rows[s] is a tuple of (z', weight) pairs; indices >= |Z| are the fresh
    observations, canonically numbered by first state of use.
    """

    n_new: int
    rows: tuple

    @cached_property
    def _supports(self):
        return tuple(map(_per_row(_support), self.rows))

    def support(self, s):
        return self._supports[s]

    def symbol_name(self, p, z):
        return p.observations[z] if z < p.n_obs else f"@{z - p.n_obs}"


@dataclass(frozen=True)
class Policy:
    """Finite-memory policy given by supports (uniform weights implied).

    act[m] is a tuple of action indices; update[m][z][a] a tuple of memory
    indices, with z ranging over the completed alphabet Z'.  Initial memory
    is element 0.
    """

    n_mem: int
    act: tuple
    update: tuple


# reading sensynth's line formats: models, constraints and result documents

_NAME_RE = re.compile(r"[A-Za-z0-9_.+\-]+$")
_HEADER_RE = re.compile(r"(\w+):\s*(.*)$")
_HEADERS = ("states", "actions", "observations", "initial", "goal", "targets")


def statements(text):
    """Yield (line number, statement) for every line that holds one: `#`
    starts a comment and blank lines are skipped."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if stmt:
            yield ln, stmt


def sections(text, headers, arities):
    """Split a document into `key: value` headers and `keyword field ... -> rest`
    lines; returns (heads, lines).

    heads maps each header present to (line number, value).  lines[keyword]
    lists (line number, fields, rest) in document order, every line of that
    keyword having arities[keyword] fields.  A header outside headers, a
    repeated header and any other line raise ModelSyntaxError.
    """
    heads, lines = {}, {kw: [] for kw in arities}
    for ln, stmt in statements(text):
        # keyword lines, most of a document, first: a first token that is
        # exactly a keyword cannot run straight into the header's colon
        head, arrow, rest = stmt.partition("->")
        fields = head.split()
        if arrow and fields and arities.get(fields[0]) == len(fields) - 1:
            lines[fields[0]].append((ln, fields[1:], rest.strip()))
            continue
        m = _HEADER_RE.match(stmt)
        if not m:
            raise ModelSyntaxError(ln, 1, f"unrecognized line {stmt!r}")
        key = m.group(1)
        if key not in headers:
            raise ModelSyntaxError(ln, 1, f"unknown section {key!r}")
        if key in heads:
            raise ModelSyntaxError(ln, 1, f"duplicate section {key!r}")
        heads[key] = (ln, m.group(2))
    return heads, lines


def lookup(table, name, kind, ln):
    """table[name]; an unknown name raises ModelSemanticError naming line ln."""
    try:
        return table[name]
    except KeyError:
        raise ModelSemanticError(name, f"unknown {kind} (line {ln})") from None


@lru_cache(maxsize=1024)
def _weights(toks):
    """The weights of a row whose weight tokens are toks, or None when a token
    does not parse, a weight is not positive or they do not sum to 1.  Models
    repeat a few token tuples on every row, so each is checked once; a
    Fraction is immutable, so one tuple serves every row."""
    try:
        ws = tuple(Fraction(tok) for tok in toks)
    except (ValueError, ZeroDivisionError):
        return None
    return ws if all(w > 0 for w in ws) and sum(ws) == 1 else None


def read_row(text, table, kind, owner, ln):
    """Read the distribution `name weight, name weight, ...` at line ln into a
    tuple of (table[name], weight).

    Weights are exact positive rationals that sum to 1, and no name repeats;
    owner names the row in the errors.  A row whose weight tokens pass
    _weights and whose names are known and distinct is read at once; any
    other row goes through the loop below, which raises the first defect.
    Documents call this through row_reader, so it reads each distinct row
    text of a table once, and a defective text raises at its first line.
    """
    parts = [part.split() for part in text.split(",")]
    if all(len(toks) == 2 for toks in parts):
        names, toks = zip(*parts)
        ws, idx = _weights(toks), tuple(map(table.get, names))
        if ws is not None and None not in idx and len(set(idx)) == len(idx):
            return tuple(zip(idx, ws))
    row = []
    seen = set()
    for part in text.split(","):
        toks = part.split()
        if len(toks) != 2:
            raise ModelSyntaxError(ln, 1, f"expected 'name weight', got {part.strip()!r}")
        name, tok = toks
        try:
            w = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise ModelSyntaxError(ln, 1, f"bad weight {tok!r}") from None
        if w <= 0:
            raise ModelSyntaxError(ln, 1, f"weight must be positive, got {tok}")
        i = lookup(table, name, kind, ln)
        if i in seen:
            raise ModelSemanticError(owner, f"duplicate {kind} {name} (line {ln})")
        seen.add(i)
        row.append((i, w))
    if sum(w for _, w in row) != 1:
        raise ModelSemanticError(owner, f"distribution does not sum to 1 (line {ln})")
    return tuple(row)


def row_reader(table, kind):
    """One document's reader of rows against table: read(text, owner, ln) is
    read_row on the first line with a given text, errors included, and that
    line's tuple on every later line with the same text."""
    memo = {}

    def read(text, owner, ln):
        row = memo.get(text)
        if row is None:
            row = memo[text] = read_row(text, table, kind, owner, ln)
        return row
    return read


def parse_pomdp(text):
    """Parse the line-oriented model format into a valid Pomdp.

    Every condition validate() checks is checked here, with a line number
    where there is one.  Declared targets (or a non-absorbing goal) are
    reduced to a single absorbing goal state on the way in, so parsed models
    always satisfy the shape the encoder assumes.
    """
    heads, lines = sections(text, _HEADERS, {"delta": 2, "obs": 1})
    for key in ("states", "actions", "initial"):
        if key not in heads:
            raise ModelSemanticError(key, "missing required section")
    if ("goal" in heads) == ("targets" in heads):
        raise ModelSemanticError("goal", "exactly one of 'goal:'/'targets:' required")

    def names_of(key, kind, allow_empty=False):
        if key not in heads:
            return []
        ln, value = heads[key]
        names = value.split()
        if not names and not allow_empty:
            raise ModelSyntaxError(ln, 1, f"empty {key!r} section")
        seen = set()
        for n in names:
            if not _NAME_RE.match(n):
                raise ModelSyntaxError(ln, 1, f"bad {kind} name {n!r}")
            if n in seen:
                raise ModelSemanticError(n, f"duplicate {kind} name")
            seen.add(n)
        return names

    state_names = names_of("states", "state")
    action_names = names_of("actions", "action")
    obs_names = names_of("observations", "observation", allow_empty=True)
    if "bot" in obs_names:
        raise ModelSemanticError("bot", "reserved, cannot be an observation name")
    sidx = {n: i for i, n in enumerate(state_names)}
    aidx = {n: i for i, n in enumerate(action_names)}
    zidx = {n: i for i, n in enumerate(obs_names)}
    zidx["bot"] = BOT

    ln, value = heads["initial"]
    toks = value.split()
    if len(toks) != 1:
        raise ModelSyntaxError(ln, 1, "initial: wants exactly one state")
    initial = lookup(sidx, toks[0], "state", ln)

    tkey = "goal" if "goal" in heads else "targets"
    ln, value = heads[tkey]
    toks = value.split()
    if not toks:
        raise ModelSyntaxError(ln, 1, f"empty {tkey!r} section")
    targets = [lookup(sidx, t, "state", ln) for t in toks]
    if len(set(targets)) != len(targets):
        raise ModelSemanticError(tkey, "duplicate target state")

    read_delta, read_obs = row_reader(sidx, "state"), row_reader(zidx, "observation")
    delta = [[None] * len(action_names) for _ in state_names]
    for ln, (sname, aname), rest in lines["delta"]:
        s = lookup(sidx, sname, "state", ln)
        a = lookup(aidx, aname, "action", ln)
        if delta[s][a] is not None:
            raise ModelSemanticError(f"{sname}/{aname}", f"duplicate delta line (line {ln})")
        delta[s][a] = read_delta(rest, f"{sname}/{aname}", ln)
    for s, sname in enumerate(state_names):
        for a, aname in enumerate(action_names):
            if delta[s][a] is None:
                raise ModelSemanticError(f"{sname}/{aname}", "delta not total: missing entry")

    obs_rows = [None] * len(state_names)
    for ln, (sname,), rest in lines["obs"]:
        s = lookup(sidx, sname, "state", ln)
        if obs_rows[s] is not None:
            raise ModelSemanticError(sname, f"duplicate obs line (line {ln})")
        obs_rows[s] = read_obs(rest, sname, ln)
    undefined = ((BOT, Fraction(1)),)

    p = Pomdp(
        states=tuple(state_names),
        actions=tuple(action_names),
        observations=tuple(obs_names),
        initial=initial,
        goal=targets[0],
        delta=tuple(tuple(row) for row in delta),
        obs=PartialObsFn(tuple(undefined if row is None else row for row in obs_rows)),
    )
    return reduce_targets(p, targets)


def print_pomdp(p):
    """Serialize deterministically in the input format (exact weights)."""
    out = [
        "states: " + " ".join(p.states),
        "actions: " + " ".join(p.actions),
        "observations: " + " ".join(p.observations),
        f"initial: {p.states[p.initial]}",
        f"goal: {p.states[p.goal]}",
    ]
    for s in range(p.n_states):
        for a in range(p.n_actions):
            terms = ", ".join(f"{p.states[t]} {w}" for t, w in p.delta[s][a])
            out.append(f"delta {p.states[s]} {p.actions[a]} -> {terms}")
    for s in range(p.n_states):
        row = p.obs.rows[s]
        if row == ((BOT, Fraction(1)),):
            continue
        terms = ", ".join(f"{'bot' if z == BOT else p.observations[z]} {w}" for z, w in row)
        out.append(f"obs {p.states[s]} -> {terms}")
    return "\n".join(out) + "\n"


def validate(p):
    """Return a list of invariant violations (empty = valid)."""
    problems = []
    ns, na = p.n_states, p.n_actions
    if not (0 <= p.initial < ns):
        problems.append(f"initial state index {p.initial} out of range")
    if not (0 <= p.goal < ns):
        problems.append(f"goal state index {p.goal} out of range")
    if len(p.delta) != ns:
        problems.append("delta not total: wrong number of state rows")
        return problems
    for s in range(ns):
        if len(p.delta[s]) != na:
            problems.append(f"delta not total: state {p.states[s]} missing action rows")
            continue
        for a in range(na):
            row = p.delta[s][a]
            if not row:
                problems.append(f"delta({p.states[s]},{p.actions[a]}): empty support")
                continue
            if any(w < 0 for _, w in row):
                problems.append(f"delta({p.states[s]},{p.actions[a]}): negative weight")
            if any(not (0 <= t < ns) for t, _ in row):
                problems.append(f"delta({p.states[s]},{p.actions[a]}): successor out of range")
            elif sum(w for _, w in row) != 1:
                problems.append(f"delta({p.states[s]},{p.actions[a]}): weights do not sum to 1")
    if len(p.obs.rows) != ns:
        problems.append("obs not total over states")
        return problems
    for s in range(ns):
        row = p.obs.rows[s]
        if not row:
            problems.append(f"obs({p.states[s]}): empty support")
            continue
        if any(w < 0 for _, w in row):
            problems.append(f"obs({p.states[s]}): negative weight")
        if any(z != BOT and not (0 <= z < p.n_obs) for z, _ in row):
            problems.append(f"obs({p.states[s]}): observation index out of range")
        elif sum(w for _, w in row) != 1:
            problems.append(f"obs({p.states[s]}): weights do not sum to 1")
    return problems


def _fresh_name(base, taken):
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def reduce_targets(p, targets=None):
    """Reduce a target set to a single absorbing goal state.

    Identity when the goal is already a singleton absorbing state; otherwise
    a fresh state G is appended, every target's outgoing transitions are
    redirected to G under every action (a play that enters a target has won,
    its further behavior is irrelevant), and G self-loops.  Reaching the
    target set in the original model and reaching G here coincide
    play-by-play.
    """
    if targets is None:
        targets = (p.goal,)
    targets = tuple(dict.fromkeys(targets))
    if not targets:
        raise ModelSemanticError("targets", "empty target set")
    for t in targets:
        if not (0 <= t < p.n_states):
            raise ModelSemanticError("targets", f"state index {t} out of range")
    if len(targets) == 1 and p.absorbing(targets[0]):
        if p.goal == targets[0]:
            return p
        return Pomdp(p.states, p.actions, p.observations, p.initial, targets[0], p.delta, p.obs)

    g = p.n_states
    gname = _fresh_name("G", set(p.states))
    tset = set(targets)
    to_g = tuple(((g, Fraction(1)),) for _ in range(p.n_actions))
    delta = tuple(to_g if s in tset else p.delta[s] for s in range(p.n_states)) + (to_g,)
    obs_rows = p.obs.rows + (((BOT, Fraction(1)),),)
    return Pomdp(
        states=p.states + (gname,),
        actions=p.actions,
        observations=p.observations,
        initial=p.initial,
        goal=g,
        delta=delta,
        obs=PartialObsFn(obs_rows),
    )
