"""Deterministic benchmark model generators.

All generators produce goal-reduced, validate-clean models; identical
parameters give identical (hashable) models.  The grid families follow the
usual conventions of their namesakes, but the fine dynamics (state counts,
sensing) are our own and are documented per generator, so absolute sizes are
not comparable with other implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import BOT, PartialObsFn, Pomdp, reduce_targets, validate

_DIRS = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
_LEFT = {"N": "W", "W": "S", "S": "E", "E": "N"}
_RIGHT = {"N": "E", "E": "S", "S": "W", "W": "N"}


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid world: walls block, traps kill, goals win.

    Coordinates are (x, y) with y = 0 the bottom row.  When oriented is set,
    states carry a heading and the actions are forward / turn-left /
    turn-right; otherwise the actions are the four compass moves.  p_fail is
    the probability that an action has no effect.
    """

    width: int
    height: int
    walls: frozenset = frozenset()
    traps: frozenset = frozenset()
    starts: tuple = ()
    goals: tuple = ()
    p_fail: Fraction = Fraction(0)
    oriented: bool = False
    heading: str = "N"

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be >= 1")
        if not self.starts:
            raise ValueError("at least one start cell required")
        if not self.goals:
            raise ValueError("at least one goal cell required")
        if not 0 <= self.p_fail < 1:
            raise ValueError("p_fail must be in [0, 1)")
        if self.heading not in _DIRS:
            raise ValueError(f"bad heading {self.heading!r}")
        blocked = self.walls | self.traps
        for cell in tuple(self.starts) + tuple(self.goals):
            if not self._in_grid(cell):
                raise ValueError(f"cell {cell} outside the grid")
            if cell in blocked:
                raise ValueError(f"cell {cell} is both special and wall/trap")

    def _in_grid(self, cell):
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def free(self, cell):
        return self._in_grid(cell) and cell not in self.walls and cell not in self.traps

    @classmethod
    def from_ascii(cls, art, p_fail=Fraction(0), oriented=False, heading="N"):
        """Rows top to bottom; '#' wall, '.' free, '+' start, 'g' goal, 'x' trap."""
        rows = art.strip("\n").splitlines()
        if not rows:
            raise ValueError("the grid layout is empty")
        height = len(rows)
        width = max(len(r) for r in rows)
        walls, traps, starts, goals = set(), set(), [], []
        for ry, row in enumerate(rows):
            y = height - 1 - ry
            for x in range(width):
                ch = row[x] if x < len(row) else "#"
                if ch == "#":
                    walls.add((x, y))
                elif ch == "+":
                    starts.append((x, y))
                elif ch == "g":
                    goals.append((x, y))
                elif ch == "x":
                    traps.add((x, y))
                elif ch != ".":
                    raise ValueError(f"unknown grid character {ch!r}")
        return cls(width, height, frozenset(walls), frozenset(traps),
                   tuple(sorted(starts)), tuple(sorted(goals)),
                   Fraction(p_fail), oriented, heading)


def _obs_rows(n_states, n_obs):
    """All-undefined rows, or half z0 / half undefined when an alphabet exists."""
    if n_obs == 0:
        row = ((BOT, Fraction(1)),)
    else:
        row = ((0, Fraction(1, 2)), (BOT, Fraction(1, 2)))
    return PartialObsFn(tuple(row for _ in range(n_states)))


def _merge(pairs):
    acc = {}
    for t, w in pairs:
        acc[t] = acc.get(t, Fraction(0)) + w
    return tuple(sorted(acc.items()))


def _finish(states, actions, observations, initial, targets, delta):
    p = Pomdp(states=tuple(states), actions=tuple(actions),
              observations=tuple(observations), initial=initial,
              goal=targets[0] if len(targets) == 1 else 0,
              delta=tuple(delta), obs=_obs_rows(len(states), len(observations)))
    p = reduce_targets(p, targets)
    problems = validate(p)
    if problems:
        raise AssertionError(f"generator produced an invalid model: {problems}")
    return p


def _grid(spec, observations, wall_fatal=False):
    """Grid over (cell, heading) states, heading None unless spec.oriented.

    Compass grids move in the action's direction.  Oriented grids move
    forward along the heading or turn in place, and start with spec.heading.
    Walking into a trap is fatal; into a wall or off the grid it is fatal
    when wall_fatal is set, otherwise a no-op.  Any action fails silently
    with probability p_fail.  Several starts get an "init" state that enters
    one of them uniformly.
    """
    if spec.oriented:
        heads, h0, actions = tuple(_DIRS), spec.heading, ("forward", "turn-left", "turn-right")

        def step(h, a):  # (direction to move or None, heading afterwards)
            if a == "forward":
                return h, h
            return None, (_LEFT if a == "turn-left" else _RIGHT)[h]
    else:
        heads, h0, actions = (None,), None, tuple(_DIRS)

        def step(h, a):
            return a, None
    cells = sorted((x, y) for x in range(spec.width) for y in range(spec.height)
                   if spec.free((x, y)))
    keys = [(c, h) for c in cells for h in heads]
    multi = len(spec.starts) > 1
    states = (["init"] if multi else []) \
        + [f"c{x}_{y}" + (f"_{h}" if h else "") for (x, y), h in keys] + ["lose"]
    sidx = {key: i for i, key in enumerate(keys, int(multi))}
    lose = len(states) - 1
    delta = [None] * len(states)
    if multi:
        share = Fraction(1, len(spec.starts))
        row = _merge((sidx[(c, h0)], share) for c in spec.starts)
        delta[0] = tuple(row for _ in actions)
    delta[lose] = tuple(((lose, Fraction(1)),) for _ in actions)
    for (x, y), h in keys:
        me = sidx[((x, y), h)]
        rows = []
        for a in actions:
            d, h2 = step(h, a)
            dest = (x, y) if d is None else (x + _DIRS[d][0], y + _DIRS[d][1])
            if dest in spec.traps or (wall_fatal and not spec.free(dest)):
                tgt = lose
            else:
                tgt = sidx[(dest if spec.free(dest) else (x, y), h2)]
            move = [(tgt, Fraction(1) - spec.p_fail)]
            if spec.p_fail:
                move.append((me, spec.p_fail))
            rows.append(_merge(move))
        delta[me] = tuple(rows)
    initial = 0 if multi else sidx[(spec.starts[0], h0)]
    targets = sorted(sidx[(g, h)] for g in spec.goals for h in heads)
    return _finish(states, actions, observations, initial, targets, delta)


def gen_fig1():
    """Three-cell corridor with a treasure at the right end.

    move-left / move-right walk the corridor (walking off either end loses),
    grab-treasure wins only in the rightmost cell and loses elsewhere.  No
    observation is defined anywhere, so all classes must be synthesized.
    """
    states = ("cell0", "cell1", "cell2", "win", "lose")
    actions = ("move-left", "move-right", "grab-treasure")
    one = Fraction(1)
    d = {
        "cell0": ("lose", "cell1", "lose"),
        "cell1": ("cell0", "cell2", "lose"),
        "cell2": ("cell1", "lose", "win"),
        "win": ("win", "win", "win"),
        "lose": ("lose", "lose", "lose"),
    }
    idx = {s: i for i, s in enumerate(states)}
    delta = tuple(tuple(((idx[t], one),) for t in d[s]) for s in states)
    return _finish(states, actions, (), 0, [idx["win"]], delta)


_DET_HALLWAY = """
#+#+#
#.#.#
#.#.#
g.x.g
"""


def gen_det_hallway():
    """5x4 grid with two corridors: starts at the corridor tops, goals in the
    bottom corners, a trap between them.  Movement is deterministic and
    hitting a wall is fatal; no observation is defined anywhere.  13 states
    (10 cells + uniform-start initial + lose + goal sink)."""
    spec = GridSpec.from_ascii(_DET_HALLWAY)
    return _grid(spec, (), wall_fatal=True)


def gen_hallway(spec):
    """Grid robot with noisy actions (p_fail keeps the state unchanged).

    Oriented specs give (cell, heading) states with forward/turn actions and
    non-fatal wall bumps; unoriented specs give compass moves.  A single
    half-defined observation z0 (every state emits z0 or undefined, 1/2
    each) keeps nu=0 instances meaningful.
    """
    return _grid(spec, ("z0",))


def gen_escape(n):
    """Pursuit on an n x n grid, n >= 2: n^3 + 2 states.

    The robot slides under N/E/S/W until it hits the boundary; a patroller
    walks the top row, stepping left or right uniformly (clipped at the
    edges).  Both move together and ending on the patroller's cell is fatal.
    The robot starts in the top-right corner, the patroller at top-left, and
    the robot escapes by reaching the bottom-left corner.  No observation is
    defined anywhere.
    """
    if n < 2:
        raise ValueError("grid size must be >= 2")
    top = n - 1
    cells = [(x, y) for x in range(n) for y in range(n)]
    states = [f"r{x}_{y}_p{p}" for x, y in cells for p in range(n)] + ["lose"]
    sidx = {(c, p): i for i, (c, p) in
            enumerate((c, p) for c in cells for p in range(n))}
    lose = len(states) - 1
    actions = ("N", "E", "S", "W")

    def slide(cell, d):
        x, y = cell
        dx, dy = _DIRS[d]
        while 0 <= x + dx < n and 0 <= y + dy < n:
            x, y = x + dx, y + dy
        return (x, y)

    delta = []
    for c in cells:
        for p in range(n):
            rows = []
            for a in actions:
                dest = slide(c, a)
                moves = [q for q in (p - 1, p + 1) if 0 <= q < n]
                share = Fraction(1, len(moves))
                pairs = []
                for q in moves:
                    if dest == (q, top):
                        pairs.append((lose, share))
                    else:
                        pairs.append((sidx[(dest, q)], share))
                rows.append(_merge(pairs))
            delta.append(tuple(rows))
    delta.append(tuple(((lose, Fraction(1)),) for _ in actions))
    initial = sidx[((top, top), 0)]
    targets = sorted(sidx[((0, 0), p)] for p in range(n))
    return _finish(states, actions, (), initial, targets, delta)


def gen_rocksample(n):
    """3x3 grid with n rocks (rock i on cell i, good iff i is even): 9*2^n + 2
    states of the form (cell, set of banked rocks).

    Compass moves are deterministic (wall bumps are no-ops).  sample on a
    rock cell: a bad rock is fatal; a good unbanked rock is banked with
    probability 1/2 (no effect otherwise); anything else is a no-op.
    Banking a second good rock wins.  The win sink exists even when n < 2
    makes it unreachable.  No observation is defined anywhere.
    """
    if not 1 <= n <= 9:
        raise ValueError("rock count must be in 1..9")
    masks = list(range(1 << n))
    states = [f"c{c}_m{m}" for c in range(9) for m in masks] + ["lose", "G"]
    sidx = {(c, m): c * len(masks) + m for c in range(9) for m in masks}
    lose, gstate = len(states) - 2, len(states) - 1
    actions = ("N", "E", "S", "W", "sample")
    half = Fraction(1, 2)
    delta = []
    for c in range(9):
        x, y = c % 3, c // 3
        for m in masks:
            me = sidx[(c, m)]
            rows = []
            for a in actions[:4]:
                dx, dy = _DIRS[a]
                nx, ny = x + dx, y + dy
                tgt = sidx[((nx + ny * 3), m)] if 0 <= nx < 3 and 0 <= ny < 3 else me
                rows.append(((tgt, Fraction(1)),))
            if c >= n:
                rows.append(((me, Fraction(1)),))  # no rock here
            elif c % 2 == 1:
                rows.append(((lose, Fraction(1)),))  # bad rock
            elif m >> c & 1:
                rows.append(((me, Fraction(1)),))  # already banked
            else:
                m2 = m | 1 << c
                tgt = gstate if bin(m2).count("1") >= 2 else sidx[(c, m2)]
                rows.append(_merge([(tgt, half), (me, half)]))
            delta.append(tuple(rows))
    for sink in (lose, gstate):
        delta.append(tuple(((sink, Fraction(1)),) for _ in actions))
    return _finish(states, actions, (), sidx[(4, 0)], [gstate], delta)
