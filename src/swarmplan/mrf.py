"""Swarm energy model over the interaction graph's maximal cliques and its
coordinate-descent (ICM) minimization into discrete multi-robot paths.

Robots sit on integer cells, so the ICM sweep reads exact lookup tables
instead of calling the scalar geometry: pair energies by cell offset (one
growable table per `InteractionParams`, each entry filled by
`interaction_energy`) and blocked-move conflicts by block and candidate
offset (one tuple of ints per disk radius, one bit per conflicting move set
by the point-clearance and crossing predicate `_conflicts`), so a robot
update ORs the rows of the blocks near it and tests one bit per candidate.
`swarm_energy` and each robot update add clique energies through one
helper, `_clique_sum`, in `clique_energy`'s order, so results are
bit-for-bit those of the scalar functions, which stay the reference.

A sweep does its per-robot work once. One pass over the start positions
gives every robot's candidate cells: the free cells of its disk, less the
other robots' cells, each contested cell given to the nearest robot (by
the exact square of the offset, then the lowest id), less the backward
moves when trimming. A per-robot block table then stands in for the list
of blocked moves: each robot blocks from its start, as a point until its
update and as its move after it. The per-robot and per-update functions
`local_search_space`, `apply_heuristics`, `_blocked_moves` and
`icm_update` compute the same one robot at a time, and are the reference
the sweep is tested against.

Two one-slot caches serve the sweep: the static field's values as Python
floats, and the map's free mask as Python bools. Each is keyed by the
identity of the last field or grid it saw and holds only that one, so a
process that plans on many scenarios keeps one map's worth, not one per
scenario; holding the object also keeps its id from being reused. Nothing
is cached by robot position, so a sweep costs the same whether or not ICM
has visited its state before.

A sweep is a function of the positions it starts from (and of the map,
fields and config), so the sweeps from one start form one stream:
`sweeps` yields them in order, each computed once, and is the one place
that stops ICM: the states are finitely many, so a stream reaches a fixed
point or returns to an earlier state, and it ends there (Besag, JRSS-B
1986). `optimize` reads at most `max_sweeps` of the stream from its start
and reports how it ended; the receding horizon reads one stream per run and
carries the sweeps a lookahead computed and did not execute into the next
one, so no sweep is computed twice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations, count, islice
from typing import Callable, Iterator, Sequence

from .fields import InteractionParams, ScalarField, interaction_energy
from .graph import InteractionGraph, build_interaction_graph, check_connectivity_condition
from .grid import Cell, OccupancyGrid, _disk, disk_cells
from .paths import point_segment_distance, segments_intersect


class ConnectivityError(ValueError):
    """Initial interaction graph has an isolated robot."""


@dataclass(frozen=True)
class OptimizeConfig:
    """Knobs for one ICM optimization run."""

    k: int = 3
    search_order: int = 4
    r_comm: float = math.inf
    goal: tuple[float, float] | None = None
    trim_backward: bool = False
    max_sweeps: int = 500


@dataclass(frozen=True)
class SwarmState:
    """Robot cell positions plus their interaction graph."""

    positions: tuple[Cell, ...]
    graph: InteractionGraph


def make_state(
    positions: Sequence[Cell],
    grid: OccupancyGrid,
    k: int,
    r_comm: float = math.inf,
) -> SwarmState:
    """Validate positions (free, distinct, in bounds) and build the state."""
    cells = tuple(Cell(int(p[0]), int(p[1])) for p in positions)
    if len(set(cells)) != len(cells):
        raise ValueError("robot positions must be pairwise distinct")
    for c in cells:
        if not grid.in_bounds(c):
            raise ValueError(f"robot position {tuple(c)} outside grid")
        if not grid.is_free(c):
            raise ValueError(f"robot position {tuple(c)} is occupied")
    return SwarmState(positions=cells, graph=build_interaction_graph(cells, k, r_comm))


@dataclass(frozen=True)
class Sweep:
    """One ICM sweep: the positions after it, the swarm energy there on the
    graph the sweep froze, how many robots it moved, the seconds its graph
    build and robot updates took, and whether it ends its stream. No energy
    is computed for a sweep that moves no robot (None)."""

    positions: tuple[Cell, ...]
    energy: float | None
    moved: int
    seconds: float
    last: bool = False


@dataclass
class EnergyTrace:
    """Per-sweep swarm energies (index 0 is the initial energy)."""

    energies: list[float]
    moved_counts: list[int]
    status: str  # 'converged' (a fixed point) | 'cycle' | 'max-sweeps' (the cap)
    sweep_seconds: list[float] = field(default_factory=list)  # a zero-move sweep's too

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def iterations(self) -> int:
        """Sweeps that moved a robot (a final zero-move sweep is not counted)."""
        return len(self.energies) - 1


@dataclass(frozen=True)
class DiscretePath:
    """Ordered cells visited by one robot, one entry per optimization step."""

    robot: int
    cells: tuple[Cell, ...]


class _LastSeen:
    """Cache of `build(obj)` for the last object it was asked about, matched
    by identity. It keeps that one object alive, so its id cannot be reused,
    and lets it go as soon as another object is asked about."""

    def __init__(self, build: Callable):
        self._build = build
        self._slot: tuple = (self, None)  # a key no caller passes

    def __call__(self, obj):
        key, value = self._slot
        if key is not obj:
            value = self._build(obj)
            self._slot = (obj, value)
        return value


# Static-field values as nested lists of Python floats ([y][x]): the same
# floats `ScalarField.at` returns, without a numpy scalar per read.
_static_values = _LastSeen(lambda static: static.value.tolist())
# The grid's free mask as nested lists of bools ([y][x]).
_free_mask = _LastSeen(lambda grid: grid.free_mask().tolist())


def local_search_space(
    grid: OccupancyGrid, state: SwarmState, i: int, order: int
) -> list[Cell]:
    """Free cells of the order-n disk around robot i; always contains the
    robot's own (free) cell."""
    free = _free_mask(grid)  # disk cells are in bounds, so read it directly
    return [c for c in disk_cells(state.positions[i], order, grid) if free[c[1]][c[0]]]


def apply_heuristics(
    spaces: Sequence[Sequence[Cell]],
    state: SwarmState,
    goal: tuple[float, float] | None = None,
    trim_backward: bool = False,
) -> list[list[Cell]]:
    """Collision heuristics on the candidate spaces.

    (a) other robots' current cells are removed everywhere; (b) a cell
    claimed by several robots is kept only for the robot whose current
    position is nearest (ties: lower id); (c) optionally, candidates with a
    negative scalar projection onto the robot-to-goal direction are dropped.
    Each robot's own current cell always survives, which keeps ICM
    well-defined.
    """
    positions = state.positions
    occupied_now = set(positions)

    claimed: dict[Cell, int] = {}
    for i, space in enumerate(spaces):
        for c in space:
            if c in occupied_now:
                continue
            if c not in claimed:
                claimed[c] = i
                continue
            j = claimed[c]
            d = math.hypot(c[0] - positions[i][0], c[1] - positions[i][1])
            dj = math.hypot(c[0] - positions[j][0], c[1] - positions[j][1])
            if d < dj:
                claimed[c] = i

    out: list[list[Cell]] = []
    for i, space in enumerate(spaces):
        own = positions[i]
        cells = [c for c in space if c == own or (c not in occupied_now and claimed.get(c) == i)]
        if trim_backward and goal is not None:
            gx, gy = goal[0] - own[0], goal[1] - own[1]
            norm = math.hypot(gx, gy)
            if norm > 0:
                cells = [
                    c
                    for c in cells
                    if c == own or (c[0] - own[0]) * gx + (c[1] - own[1]) * gy >= 0
                ]
        out.append(cells)
    return out


def clique_energy(
    clique: Sequence[int],
    positions: Sequence[Cell],
    static: ScalarField | None,
    iparams: InteractionParams,
) -> float:
    """Static energy of each member plus pair interaction over all member pairs."""
    e = 0.0
    for i in clique:
        if static is not None:
            e += static.at(positions[i])
    for a in range(len(clique)):
        for b in range(a + 1, len(clique)):
            e += interaction_energy(positions[clique[a]], positions[clique[b]], iparams)
    return e


# Robots sit on integer cells, so a pair energy depends only on the offset
# between the two cells and a blocked-move test only on the offsets of the
# block and the candidate from the mover. The tables below hold exactly the
# floats and booleans the scalar functions return for those offsets.

_PAIR_TABLES: dict[InteractionParams, list[list[float]]] = {}


class _PastTableEdge(Exception):
    """A pair offset fell past the edge of the pair-energy table."""


def _pair_energies(iparams: InteractionParams, extent: int = 0) -> list[list[float]]:
    """Square table with table[|dy|][|dx|] ==
    interaction_energy((0, 0), (dx, dy), iparams) for |dx|, |dy| < extent.

    `math.hypot` ignores signs, so the entry serves all four quadrants. The
    table grows to the largest extent asked for (existing rows are copied),
    and an offset past its edge raises IndexError instead of reading another
    entry; `_clique_sum` turns that into `_PastTableEdge`.
    """
    table = _PAIR_TABLES.get(iparams, [])
    if extent <= len(table):
        return table
    grown = []
    for dy in range(extent):
        row = list(table[dy]) if dy < len(table) else []
        row.extend(interaction_energy((0, 0), (dx, dy), iparams) for dx in range(len(row), extent))
        grown.append(row)
    _PAIR_TABLES[iparams] = grown
    return grown


def _span(cells) -> int:
    """Largest |dx| or |dy| between any two of `cells`, plus one."""
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    return max(max(xs) - min(xs), max(ys) - min(ys)) + 1


def _clique_sum(
    cells: Sequence[Cell], values: list[list[float]] | None, table: list[list[float]]
) -> float:
    """`clique_energy` of a clique whose members sit on `cells`, from the
    lookup tables and added in its order: the members' static values
    (`_static_values`, or None without a static field), then the pair
    energies for a < b. Raises `_PastTableEdge` when a pair offset lies
    past the edge of `table`."""
    e = 0.0
    if values is not None:
        for x, y in cells:
            e += values[y][x]
    try:
        for (ax, ay), (bx, by) in combinations(cells, 2):
            e += table[abs(ay - by)][abs(ax - bx)]
    except IndexError:
        raise _PastTableEdge from None
    return e


def _conflicts(own: Cell, c: Cell, s0: Cell, s1: Cell) -> bool:
    """Whether the move own -> c conflicts with the block s0 -> s1: a point
    block (a held robot) needs clearance 1.0 along the whole move, a segment
    must not be crossed."""
    if s0 == s1:
        return point_segment_distance(s0, own, c) < 1.0
    return segments_intersect(own, c, s0, s1)


# Beyond this Chebyshev radius a candidate disk holds Pythagorean moves such
# as (3, 4); a held robot can sit at exactly distance 1 from them, and the
# float clearance test then depends on the absolute coordinates.
_MAX_CONFLICT_RADIUS = 3


@lru_cache(maxsize=None)
def _conflict_rows(r: int) -> tuple[int, ...]:
    """Blocked-move conflicts for candidate moves of Chebyshev radius <= r.

    Row ((wy + 2r) * m + wx + 2r) * n^2 + (uy + r) * n + ux + r stands for
    the block from w to w + u, with n = 2r + 1 and m = 4r + 1. Its bit
    (vy + r) * n + vx + r is set iff the move from (0, 0) to v conflicts
    with that block by `_conflicts`: clearance below 1.0 from a point block
    (u = (0, 0)), crossing for a segment. w spans [-2r, 2r]^2, u and v span
    [-r, r]^2. Only blocks whose bounding box meets the move's are
    evaluated: any other block is at least 1 away along one axis, so it
    neither crosses the move nor comes closer than 1.0 (rounding in the
    projection is monotonic and keeps the computed gap at 1 or more).
    """
    n, m = 2 * r + 1, 4 * r + 1
    rows = [0] * (m * m * n * n)
    span = range(-r, r + 1)
    for vy in span:
        for vx in span:
            bit = 1 << (vy + r) * n + vx + r
            for uy in span:
                for ux in span:
                    u_idx = (uy + r) * n + ux + r
                    for wy in range(min(0, vy) - max(0, uy), max(0, vy) - min(0, uy) + 1):
                        for wx in range(min(0, vx) - max(0, ux), max(0, vx) - min(0, ux) + 1):
                            if _conflicts((0, 0), (vx, vy), (wx, wy), (wx + ux, wy + uy)):
                                rows[((wy + 2 * r) * m + wx + 2 * r) * n * n + u_idx] |= bit
    return tuple(rows)


def _blocked_moves(
    own: Cell, candidates: Sequence[Cell], blocked_segments: Sequence[tuple[Cell, Cell]]
) -> list[bool]:
    """For each candidate, whether the move from `own` to it conflicts with
    any blocked segment, by `_conflicts`."""
    ox, oy = own
    offsets = [(c[0] - ox, c[1] - oy) for c in candidates]
    r = max(max(abs(dx), abs(dy)) for dx, dy in offsets)
    if r > _MAX_CONFLICT_RADIUS:
        return [
            any(_conflicts(own, c, s0, s1) for s0, s1 in blocked_segments) for c in candidates
        ]
    hit = [False] * len(candidates)
    if r == 0:
        return hit
    n, m = 2 * r + 1, 4 * r + 1
    rows = _conflict_rows(r)
    mask = 0  # bit v: the move to offset v conflicts with a windowed block
    for s0, s1 in blocked_segments:
        ux, uy = s1[0] - s0[0], s1[1] - s0[1]
        if -r <= ux <= r and -r <= uy <= r:
            wx, wy = s0[0] - ox + 2 * r, s0[1] - oy + 2 * r
            # a block starting outside the window lies more than r from
            # every point of the move
            if 0 <= wx < m and 0 <= wy < m:
                mask |= rows[(wy * m + wx) * n * n + (uy + r) * n + ux + r]
        else:
            hit = [h or _conflicts(own, c, s0, s1) for h, c in zip(hit, candidates)]
    if mask:
        hit = [h or mask >> (dy + r) * n + dx + r & 1 == 1 for h, (dx, dy) in zip(hit, offsets)]
    return hit


def swarm_energy(
    state: SwarmState, static: ScalarField | None, iparams: InteractionParams
) -> float:
    """Sum of clique energies over all maximal cliques (shared members count
    once per clique, by definition), added left to right from 0.0: Python
    3.12's `sum()` of floats compensates and can differ in the last bit."""
    positions = state.positions
    table = _pair_energies(iparams, _span(positions))
    values = None if static is None else _static_values(static)
    total = 0.0
    for c in state.graph.cliques:
        total += _clique_sum([positions[m] for m in c], values, table)
    return total


def _candidate_energies(
    i: int,
    candidates: Sequence[Cell],
    positions: Sequence[Cell],
    cliques: Sequence[tuple[int, ...]],
    values: list[list[float]] | None,
    table: list[list[float]],
) -> list[float]:
    """Summed energy of `cliques`, the cliques containing robot i, for each
    candidate cell, with i moved there: each `clique_energy`, bit for bit,
    added in clique order from 0.0, as `swarm_energy` adds them. Raises
    `_PastTableEdge` when an offset lies past the edge of `table`."""
    totals = [0.0] * len(candidates)
    for cl in cliques:
        cells = [positions[m] for m in cl]
        k = cl.index(i)
        for n, c in enumerate(candidates):
            cells[k] = c
            totals[n] += _clique_sum(cells, values, table)
    return totals


def _best_cell(
    i: int,
    candidates: Sequence[Cell],
    positions: Sequence[Cell],
    cliques: Sequence[tuple[int, ...]],
    values: list[list[float]] | None,
    iparams: InteractionParams,
    goal: tuple[float, float] | None,
) -> Cell:
    """The candidate of lowest (energy, goal distance, y, x) for robot i,
    the energy summed over `cliques`, the cliques containing i, with the
    other robots on `positions`; without a goal, of lowest (energy, y, x)."""
    try:
        table = _pair_energies(iparams)
        energies = _candidate_energies(i, candidates, positions, cliques, values, table)
    except _PastTableEdge:  # grow the table to cover this update
        members = {m for cl in cliques for m in cl}
        table = _pair_energies(iparams, _span([*candidates, *(positions[m] for m in members)]))
        energies = _candidate_energies(i, candidates, positions, cliques, values, table)

    low = min(energies)
    ties = [c for c, e in zip(candidates, energies) if e == low]
    if goal is None:
        return min(ties, key=lambda c: (c[1], c[0]))
    gx, gy = goal
    return min(ties, key=lambda c: (math.hypot(c[0] - gx, c[1] - gy), c[1], c[0]))


def icm_update(
    state: SwarmState,
    i: int,
    spaces: Sequence[Sequence[Cell]],
    static: ScalarField | None,
    iparams: InteractionParams,
    goal: tuple[float, float] | None = None,
    blocked_segments: Sequence[tuple[Cell, Cell]] | None = None,
) -> Cell:
    """Best candidate cell for robot i with all other robots held fixed.

    Minimizes the summed energy of the cliques containing i over the robot's
    candidate space; ties go to the candidate nearest the goal, then
    row-major order. Candidates whose move segment would cross a blocked
    segment are skipped (the current cell is exempt), so the result never
    increases the frozen-graph swarm energy. Held robots (point blocks) need
    full clearance along the whole move, not just non-crossing:
    `trajopt.repair` needs an execution order for every step, and a move
    that passes within 1.0 of a held robot has none. The held cell is that
    robot's start, so it would go before the move, and its end, so it would
    go after it.
    """
    own = state.positions[i]
    candidates = spaces[i]
    if blocked_segments:
        hit = _blocked_moves(own, candidates, blocked_segments)
        candidates = [c for c, h in zip(candidates, hit) if c == own or not h]
    values = None if static is None else _static_values(static)
    cliques = state.graph.cliques_of[i]
    return _best_cell(i, candidates, state.positions, cliques, values, iparams, goal)


UpdateHook = Callable[[int, int, SwarmState], None]


@lru_cache(maxsize=None)
def _disk_moves(order: int) -> tuple[tuple[int, int, int, int], ...]:
    """The order-n disk's offsets (dx, dy) in row-major order, each with
    dx^2 + dy^2 and its bit (dy + r) * (2r + 1) + dx + r in the
    `_conflict_rows(r)` rows, r the disk's Chebyshev radius."""
    offsets, r = _disk(order)
    side = 2 * r + 1
    return tuple((dx, dy, dx * dx + dy * dy, (dy + r) * side + dx + r) for dx, dy in offsets)


def _candidate_spaces(
    start: Sequence[Cell], grid: OccupancyGrid, config: OptimizeConfig
) -> list[list[tuple[tuple[int, int], int]]]:
    """Each robot's candidate cells from `start`, as (x, y) tuples, each
    with its `_disk_moves` bit: `apply_heuristics` over the
    `local_search_space`s, in one pass.

    A free cell in several robots' disks goes to the lowest (dx^2 + dy^2,
    id): the exact square orders robots as `math.hypot` does. A robot's own
    cell is at 0, so the robot keeps it and no other robot gets it.
    """
    n = len(start)
    height, width = grid.prob.shape
    free = _free_mask(grid)
    moves = _disk_moves(config.search_order)
    disks = []
    owner: dict[tuple[int, int], int] = {}  # cell -> the lowest d2 * n + id that claims it
    for i, (cx, cy) in enumerate(start):
        if not (0 <= cx < width and 0 <= cy < height):
            raise ValueError(f"cell {(cx, cy)} outside grid")
        disk = []
        for dx, dy, d2, bit in moves:
            x, y = cx + dx, cy + dy
            if 0 <= x < width and 0 <= y < height and free[y][x]:
                c = (x, y)
                claim = d2 * n + i
                if claim < owner.setdefault(c, claim):
                    owner[c] = claim
                disk.append((c, bit, claim))
        disks.append(disk)

    spaces = []
    goal = config.goal if config.trim_backward else None
    for own, disk in zip(start, disks):
        space = [(c, bit) for c, bit, claim in disk if owner[c] == claim]
        if goal is not None:
            gx, gy = goal[0] - own[0], goal[1] - own[1]
            if math.hypot(gx, gy) > 0:
                space = [
                    (c, bit)
                    for c, bit in space
                    if c == own or (c[0] - own[0]) * gx + (c[1] - own[1]) * gy >= 0
                ]
        spaces.append(space)
    return spaces


def _sweep(
    sweep: int,
    start: tuple[Cell, ...],
    grid: OccupancyGrid,
    static: ScalarField | None,
    iparams: InteractionParams,
    config: OptimizeConfig,
    update_hook: UpdateHook | None,
) -> Sweep:
    """Sweep all robots once from `start` in ascending id, on the graph and
    candidate spaces of `start`: each update is `icm_update` with the
    blocks of the other robots. Its seconds leave out the energy after the
    sweep. A stream's first sweep checks that its graph isolates no robot.

    Every robot blocks from its start: as a point until its update, then
    as its move. Up to `_MAX_CONFLICT_RADIUS`, a block is its start and the
    row offset of its move, and an update ORs the `_conflict_rows` rows of
    the blocks that start within twice the disk's radius of the robot;
    beyond it, each candidate is tested against each block by `_conflicts`."""
    tic = time.perf_counter()
    n = len(start)
    positions = list(start)
    graph = build_interaction_graph(start, config.k, config.r_comm)
    if sweep == 1 and not check_connectivity_condition(graph):
        raise ConnectivityError("initial interaction graph has an isolated robot")
    spaces = _candidate_spaces(start, grid, config)
    values = None if static is None else _static_values(static)
    cliques_of = graph.cliques_of

    r = _disk(config.search_order)[1]
    side, m = 2 * r + 1, 4 * r + 1
    stride = side * side
    still = r * side + r  # the row offset, and the bit, of a point block or a stay
    rows = _conflict_rows(r) if r <= _MAX_CONFLICT_RADIUS else None
    blocks = [still] * n  # each robot's row offset

    moved = 0
    for i, (own, space) in enumerate(zip(start, spaces)):
        if rows is None:
            held = [(start[j], positions[j]) for j in range(n) if j != i]
            candidates = [
                c
                for c, _ in space
                if c == own or not any(_conflicts(own, c, s0, s1) for s0, s1 in held)
            ]
        else:
            x0, y0 = own[0] - 2 * r, own[1] - 2 * r
            mask = 0  # bit b: the move to bit b's offset conflicts with a block
            for j, (sx, sy) in enumerate(start):
                wx, wy = sx - x0, sy - y0
                if 0 <= wx < m and 0 <= wy < m and j != i:
                    mask |= rows[(wy * m + wx) * stride + blocks[j]]
            mask &= ~(1 << still)  # staying put is always allowed
            candidates = [c for c, bit in space if not mask >> bit & 1]
        new = _best_cell(i, candidates, positions, cliques_of[i], values, iparams, config.goal)
        if new != own:
            moved += 1
            positions[i] = new = Cell._make(new)  # candidates are plain tuples
            blocks[i] = (new[1] - own[1] + r) * side + new[0] - own[0] + r
        if update_hook is not None:
            update_hook(sweep, i, SwarmState(positions=tuple(positions), graph=graph))
    seconds = time.perf_counter() - tic

    after = tuple(positions)
    energy = swarm_energy(SwarmState(after, graph), static, iparams) if moved else None
    return Sweep(after, energy, moved, seconds)


def sweeps(
    start: Sequence[Cell],
    grid: OccupancyGrid,
    static: ScalarField | None,
    iparams: InteractionParams,
    config: OptimizeConfig,
    update_hook: UpdateHook | None = None,
) -> Iterator[Sweep]:
    """The ICM sweeps from `start`, each from where the last one ended, up
    to the first that ends in a state the stream has been in, its start
    included: that one is marked `last`. It moved no robot at a fixed point
    (period 1) and some at a longer cycle. `config.max_sweeps` does not
    apply here: the reader stops."""
    positions = tuple(start)
    visited = {positions}
    for sweep in count(1):
        step = _sweep(sweep, positions, grid, static, iparams, config, update_hook)
        positions = step.positions
        if positions in visited:
            yield replace(step, last=True)
            return
        visited.add(positions)
        yield step


def optimize(
    initial: SwarmState,
    grid: OccupancyGrid,
    static: ScalarField | None,
    iparams: InteractionParams,
    config: OptimizeConfig,
    update_hook: UpdateHook | None = None,
) -> tuple[list[DiscretePath], EnergyTrace]:
    """ICM loop: rebuild graph, build and filter candidate spaces, sweep all
    robots in ascending id, until the stream of `sweeps` from
    `initial.positions` ends ('converged' at a fixed point, 'cycle' at a
    longer one) or the sweep cap ('max-sweeps').

    `update_hook(sweep, robot, state)` is called after every single-robot
    update with the frozen-sweep graph, for instrumentation. The first sweep
    raises ConnectivityError if the start isolates a robot.
    """
    stream = sweeps(initial.positions, grid, static, iparams, config, update_hook)
    path_cells: list[list[Cell]] = [[p] for p in initial.positions]
    energies = [swarm_energy(initial, static, iparams)]
    moved_counts: list[int] = []
    sweep_seconds: list[float] = []
    status = "max-sweeps"

    for step in islice(stream, config.max_sweeps):
        sweep_seconds.append(step.seconds)
        if step.moved:
            for cells, c in zip(path_cells, step.positions):
                cells.append(c)
            energies.append(step.energy)
            moved_counts.append(step.moved)
        if step.last:
            status = "cycle" if step.moved else "converged"

    trace = EnergyTrace(
        energies=energies,
        moved_counts=moved_counts,
        status=status,
        sweep_seconds=sweep_seconds,
    )
    paths = [DiscretePath(robot=i, cells=tuple(cells)) for i, cells in enumerate(path_cells)]
    return paths, trace


def paths_noncrossing_check(paths: Sequence[DiscretePath], step: int) -> bool:
    """True iff no two robots' move segments between `step` and `step + 1`
    intersect (position swaps included)."""
    n = len(paths)
    for i in range(n):
        a1, a2 = paths[i].cells[step], paths[i].cells[step + 1]
        for j in range(i + 1, n):
            b1, b2 = paths[j].cells[step], paths[j].cells[step + 1]
            if segments_intersect(a1, a2, b1, b2):
                return False
    return True
