"""Swarm energy model over the interaction graph's maximal cliques and its
coordinate-descent (ICM) minimization into discrete multi-robot paths.

Robots sit on integer cells, so the ICM sweep reads pair energies from an
exact lookup table by cell offset: one growable table per
`InteractionParams`, each entry filled by `interaction_energy`.
`swarm_energy` and the reference update `icm_update` add clique energies
through one helper, `_clique_sum`, in `clique_energy`'s order, so results
are bit-for-bit those of the scalar functions, which stay the reference.
The sweep picks each robot's cell from a one-pass estimate of every
candidate's energy with a proven float error bound (filter lemma, below),
and adds the clique sums in that order only for the candidates the bound
cannot tell apart, so it picks the cell the reference picks.

A sweep does its per-robot work once. One pass over the start positions
gives every robot's candidate cells: the free cells of its disk, less the
other robots' cells, each contested cell given to the nearest robot (by
the exact square of the offset, then the lowest id), less the cells it has
no line of sight to (`paths.line_of_sight`), less the backward moves when
trimming. The per-robot and per-update functions `local_search_space`,
`apply_heuristics` (then `line_of_sight`) and `icm_update` compute the
same one robot at a time, and are the reference the sweep is tested
against.

Separation lemma. Let robot i start a sweep at s_i and take a candidate a.
Heuristics (a) and (b) give, for every other robot j at its start s_j,

    |a - s_i|^2 <= |a - s_j|^2, strictly when j < i.                 (P)

A cell outside j's disk is farther from s_j than the disk's order allows,
so farther than a is from s_i; map edges, obstacles, line of sight and
trimming only remove candidates. A cell hidden from i still claims, so it
is kept from j. Then for the moves s_i -> a and s_j -> b of robots i != j:

(S1) the move s_i -> a keeps a distance of at least 1.0 from s_j;
(S2) when j < i, the moves s_i -> a and s_j -> b do not meet.

Proof. Put s_i at the origin and write s = s_j, an integer vector with
|s| >= 1; (P) reads 2 a.s <= |s|^2, so a != s. (S1) with a = 0 is
|s| >= 1. Otherwise: if a.s <= 0, the nearest point of the move to s is
the origin, at |s| >= 1. If a.s >= |a|^2, it is a, at |s - a| >= 1, both
being distinct integer points. In between, 0 < a.s < |a|^2 and
a.s <= |s|^2 / 2, so (a.s)^2 < |a|^2 |s|^2 / 2, and the squared distance
is (a x s)^2 / |a|^2 = (|a|^2 |s|^2 - (a.s)^2) / |a|^2 > |s|^2 / 2 >= 1;
|s|^2 = 1 cannot occur here, as a.s would be an integer in (0, 1/2].
(S2): f(p) = |p - s_j|^2 - |p - s_i|^2 is affine in p. f(s_i) > 0, and
f(a) > 0 by (P) for robot i, so f > 0 all along s_i -> a. f(s_j) < 0, and
f(b) <= 0 by (P) for robot j, so f <= 0 all along s_j -> b.

In a sweep, robot i moves while the robots after it hold their starts and
those before it have moved, so by (S1) and (S2), at any disk order, no
move passes within 1.0 of a held robot or crosses an earlier move: the
sweep checks no move against the others. The middle case of (S1) has
margin, so float geometry on cells agrees. `tests/test_mrf.py` pins (S1),
(S2) and the synchronous bound (two robots moving at once, on one timing,
stay 1.0 apart; checked, not proven) exhaustively in integer arithmetic.
`trajopt.repair` relies on (S1).

Filter lemma. Every energy term is a finite float >= 0: `ScalarField`
holds only such values, and `_pair_energies` refuses an entry that is not
one. Let u = 2^-53 and g(n) = n u / (1 - n u). Terms >= 0 added in any
order, each passing through at most n - 1 rounded additions, give a float
within g(n) of their real sum, relative (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, sec. 4.2); an integer times a float is rounded
once, and is exact where it underflows. For robot i and candidate c, the
reference `_candidate_energies` adds L terms, clique by clique: each
member's static value and each member pair's energy. Their real sum is
S(c) = K + T(c), where K, the terms without i, does not depend on c, and

    T(c) = n_i s(c) + sum_j w_ij p(c, j)

over the M robots j that share one of i's n_i cliques, w_ij of them; s is
the static value and p the pair energy. `_estimates` adds K^, the terms
without i, once, and t(c), T(c)'s M + 1 products, per candidate. So the
reference's float E(c) is within g(L) S(c) of S(c), t(c) is within
g(M+1) T(c) of T(c), K <= K^ / (1 - g(L)), and every T(c) <= t_max /
(1 - g(M+1)), t_max the largest estimate. For c* of least estimate t*:

    E(c) - E(c*) >= T(c) - T(c*) - g(L) (2K + T(c) + T(c*))
                 >= t(c) - t* - 2 (g(L) + g(M+1)) (K + max T)
                 >= t(c) - t* - 2 (L + M + 1) u (1 + 2^-30) (K^ + t_max)

while L + M + 1 <= 2^20. The cut drops c when t(c) > fl(t* + tol), with
tol = fl((L + M + 2) 2^-51 fl(K^ + t_max)) + 2^-1074 (the last term covers
the product's rounding where it underflows), so tol >= 4 (L + M + 2) u
(K^ + t_max) (1 - u)^2 and t(c) - t* > tol (1 - u) - u t_max. These make
E(c) > E(c*): a dropped candidate is not among the reference's lowest.
While K^ + t_max < 2^1000 no sum overflows; past either limit tol is
infinite and no candidate is dropped. If one candidate is left, it is the
reference's unique lowest and its choice; otherwise `_best_cell` on those
left finds the same lowest energy and the same ties, so the same cell.
Exact ties, such as mirror-image cells about one neighbour, are always
left to it.

Two one-slot caches serve the sweep: the static field's values as Python
floats, here, and the map's free mask as Python bools, in `grid`, where
`paths.line_of_sight` reads it too. Each is keyed by the identity of the
last field or grid it saw and holds only that one, so a process that plans
on many scenarios keeps one map's worth, not one per scenario; holding the
object also keeps its id from being reused. Nothing is cached by robot
position, so a sweep costs the same whether or not ICM has visited its
state before.

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
from .grid import Cell, OccupancyGrid, _disk, _free_mask, _LastSeen, disk_cells
from .paths import segments_intersect, supercover_cells


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
    cells = _checked_cells(positions, grid)
    return SwarmState(positions=cells, graph=build_interaction_graph(cells, k, r_comm))


def _checked_cells(positions: Sequence[Cell], grid: OccupancyGrid) -> tuple[Cell, ...]:
    """`positions` as Cells, or ValueError naming the first one that is
    outside the grid or occupied, or that two robots share."""
    cells = tuple(Cell(int(p[0]), int(p[1])) for p in positions)
    if len(set(cells)) != len(cells):
        raise ValueError("robot positions must be pairwise distinct")
    for c in cells:
        if not grid.in_bounds(c):
            raise ValueError(f"robot position {tuple(c)} outside grid")
        if not grid.is_free(c):
            raise ValueError(f"robot position {tuple(c)} is occupied")
    return cells


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


# Static-field values as nested lists of Python floats ([y][x]): the same
# floats `ScalarField.at` returns, without a numpy scalar per read.
_static_values = _LastSeen(lambda static: static.value.tolist())


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
# between the two cells. The table below holds exactly the floats the
# scalar function returns for those offsets.

_PAIR_TABLES: dict[InteractionParams, list[list[float]]] = {}


def _pair_energies(iparams: InteractionParams, extent: int = 0) -> list[list[float]]:
    """Square table with table[|dy|][|dx|] ==
    interaction_energy((0, 0), (dx, dy), iparams) for |dx|, |dy| < extent.

    `math.hypot` ignores signs, so the entry serves all four quadrants. The
    table grows to the largest extent asked for (existing rows are copied),
    and an offset past its edge raises IndexError instead of reading another
    entry. Callers size it for every offset they read. An entry that is not
    a finite float >= 0 raises ValueError: the filter lemma (module
    docstring) needs every energy term to be one.
    """
    table = _PAIR_TABLES.get(iparams, [])
    if extent <= len(table):
        return table
    grown = []
    for dy in range(extent):
        row = list(table[dy]) if dy < len(table) else []
        new = [interaction_energy((0, 0), (dx, dy), iparams) for dx in range(len(row), extent)]
        for e in new:
            if not 0.0 <= e < math.inf:
                raise ValueError(f"pair energies must be finite and nonnegative; {iparams} gives {e}")
        row.extend(new)
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
    energies for a < b."""
    e = 0.0
    if values is not None:
        for x, y in cells:
            e += values[y][x]
    for (ax, ay), (bx, by) in combinations(cells, 2):
        e += table[abs(ay - by)][abs(ax - bx)]
    return e


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
    added in clique order from 0.0, as `swarm_energy` adds them."""
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
    table: list[list[float]],
    goal: tuple[float, float] | None,
) -> Cell:
    """The candidate of lowest (energy, goal distance, y, x) for robot i,
    the energy summed over `cliques`, the cliques containing i, with the
    other robots on `positions`; without a goal, of lowest (energy, y, x).
    `table` is a pair table that covers every offset of the update."""
    energies = _candidate_energies(i, candidates, positions, cliques, values, table)
    low = min(energies)
    ties = [c for c, e in zip(candidates, energies) if e == low]
    if goal is None:
        return min(ties, key=lambda c: (c[1], c[0]))
    gx, gy = goal
    return min(ties, key=lambda c: (math.hypot(c[0] - gx, c[1] - gy), c[1], c[0]))


def _estimates(
    i: int,
    candidates: Sequence[Cell],
    positions: Sequence[Cell],
    cliques: Sequence[tuple[int, ...]],
    values: list[list[float]] | None,
    table: list[list[float]],
) -> tuple[list[float], float]:
    """Each candidate's estimate t(c) = n_i s(c) + sum_j w_ij p(c, j) of the
    energy that `_candidate_energies` adds exactly, and the tolerance past
    which an estimate above the least one proves its candidate loses
    (module docstring, "Filter lemma"). One pass over `cliques` counts the
    reference terms L and robot i's clique count n_i, weighs each other
    member j by w_ij, the cliques it shares with i, and adds K^, the terms
    without i, in any order."""
    terms = 0
    rest = 0.0  # K^
    weights: dict[int, int] = {}
    for cl in cliques:
        m = len(cl)
        cells = []
        for j in cl:
            if j != i:
                weights[j] = weights.get(j, 0) + 1
                cells.append(positions[j])
        if values is not None:
            terms += m
            for x, y in cells:
                rest += values[y][x]
        terms += m * (m - 1) // 2
        for (ax, ay), (bx, by) in combinations(cells, 2):
            rest += table[abs(ay - by)][abs(ax - bx)]
    n = len(cliques)
    others = [(*positions[j], w) for j, w in weights.items()]
    estimates = []
    for x, y in candidates:
        t = 0.0 if values is None else n * values[y][x]
        for jx, jy, w in others:
            t += w * table[abs(y - jy)][abs(x - jx)]
        estimates.append(t)
    scale = rest + max(estimates)
    if scale < 2.0**1000 and terms < 2**20:
        return estimates, (terms + len(others) + 2) * 2.0**-51 * scale + 2.0**-1074
    return estimates, math.inf


def _filtered_best_cell(
    i: int,
    candidates: Sequence[Cell],
    positions: Sequence[Cell],
    cliques: Sequence[tuple[int, ...]],
    values: list[list[float]] | None,
    table: list[list[float]],
    goal: tuple[float, float] | None,
) -> Cell:
    """`_best_cell`'s choice, from the estimates where they decide it: a
    candidate whose estimate exceeds the least by more than the tolerance
    is not among the reference's lowest (filter lemma), so `_best_cell`
    runs only when several candidates are left, and only on them."""
    if len(candidates) == 1:
        return candidates[0]
    estimates, tol = _estimates(i, candidates, positions, cliques, values, table)
    cut = min(estimates) + tol
    left = [c for c, t in zip(candidates, estimates) if t <= cut]
    if len(left) == 1:
        return left[0]
    return _best_cell(i, left, positions, cliques, values, table, goal)


def icm_update(
    state: SwarmState,
    i: int,
    spaces: Sequence[Sequence[Cell]],
    static: ScalarField | None,
    iparams: InteractionParams,
    goal: tuple[float, float] | None = None,
) -> Cell:
    """Best candidate cell for robot i with all other robots held fixed.

    Minimizes the summed energy of the cliques containing i over the robot's
    candidate space; ties go to the candidate nearest the goal, then
    row-major order. The robot's own cell is a candidate, so the result
    never increases the frozen-graph swarm energy. On the spaces that
    `apply_heuristics` gives at a sweep's start, no candidate needs a check
    against the other robots: by the separation lemma (module docstring),
    the move keeps 1.0 from every robot still at its start and does not
    cross the move of any robot updated before it.
    """
    values = None if static is None else _static_values(static)
    cliques = state.graph.cliques_of[i]
    table = _pair_energies(iparams, _span([*spaces[i], *state.positions]))
    return _best_cell(i, spaces[i], state.positions, cliques, values, table, goal)


UpdateHook = Callable[[int, int, SwarmState], None]


@lru_cache(maxsize=None)
def _disk_moves(order: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """The order-n disk's offsets (dx, dy) in row-major order, each with
    dx^2 + dy^2, its bit in a mask over the offsets, and its occlusion row:
    the mask of the offsets whose supercover from the origin passes through
    it (a supercover lies in its ends' bounding box, so in the disk)."""
    offsets = _disk(order)[0]
    rows = dict.fromkeys(offsets, 0)
    for k, o in enumerate(offsets):
        for c in supercover_cells(Cell(0, 0), Cell(*o)):
            rows[c] |= 1 << k
    return tuple((dx, dy, dx * dx + dy * dy, 1 << k, rows[dx, dy]) for k, (dx, dy) in enumerate(offsets))


def _candidate_spaces(
    start: Sequence[Cell], grid: OccupancyGrid, config: OptimizeConfig
) -> list[list[tuple[int, int]]]:
    """Each robot's candidate cells from `start`, as (x, y) tuples:
    `apply_heuristics` over the `local_search_space`s, less the cells with
    no line of sight, in one pass. The start cells are in bounds, free and
    distinct (`sweeps` checks them).

    A free cell in several robots' disks goes to the lowest (dx^2 + dy^2,
    id): the exact square orders robots as `math.hypot` does. A robot's own
    cell is at 0, so the robot keeps it and no other robot gets it. An
    occupied disk cell ORs its occlusion row into its robot's blocked mask
    (what an out-of-bounds one occludes is out of bounds), and a blocked
    cell leaves only its own robot's space, after the claims.
    """
    n = len(start)
    height, width = grid.prob.shape
    free = _free_mask(grid)
    moves = _disk_moves(config.search_order)
    disks = []
    owner: dict[tuple[int, int], int] = {}  # cell -> the lowest d2 * n + id that claims it
    for i, (cx, cy) in enumerate(start):
        disk = []
        blocked = 0
        for dx, dy, d2, bit, row in moves:
            x, y = cx + dx, cy + dy
            if 0 <= x < width and 0 <= y < height:
                if free[y][x]:
                    c = (x, y)
                    claim = d2 * n + i
                    if claim < owner.setdefault(c, claim):
                        owner[c] = claim
                    disk.append((c, claim, bit))
                else:
                    blocked |= row
        disks.append((disk, blocked))

    spaces = []
    goal = config.goal if config.trim_backward else None
    for own, (disk, blocked) in zip(start, disks):
        space = [c for c, claim, bit in disk if owner[c] == claim and not blocked & bit]
        if goal is not None:
            gx, gy = goal[0] - own[0], goal[1] - own[1]
            if math.hypot(gx, gy) > 0:
                space = [
                    c
                    for c in space
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
    candidate spaces of `start`: each update picks `icm_update`'s cell, with
    the robots before it moved and the robots after it at their starts,
    through the filter (`_filtered_best_cell`, filter lemma in the module
    docstring), which runs the clique-order sums only on near-ties. By the
    separation lemma (module docstring) no move comes within 1.0 of a robot
    at its start or crosses an earlier move, so no candidate is tested
    against the others. Its seconds leave out the energy after the sweep. A
    stream's first sweep checks that its graph isolates no robot."""
    tic = time.perf_counter()
    positions = list(start)
    graph = build_interaction_graph(start, config.k, config.r_comm)
    if sweep == 1 and not check_connectivity_condition(graph):
        raise ConnectivityError("initial interaction graph has an isolated robot")
    spaces = _candidate_spaces(start, grid, config)
    values = None if static is None else _static_values(static)
    cliques_of = graph.cliques_of
    # every cell of an update lies within the disk's radius of its robot's start
    table = _pair_energies(iparams, _span(start) + 2 * math.isqrt(config.search_order))

    moved = 0
    for i, (own, space) in enumerate(zip(start, spaces)):
        new = _filtered_best_cell(i, space, positions, cliques_of[i], values, table, config.goal)
        if new != own:
            moved += 1
            positions[i] = Cell._make(new)  # candidates are plain tuples
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
    apply here: the reader stops. The first read raises ValueError when
    `start` is not in bounds, free and distinct, as `make_state` does: the
    separation lemma needs every robot's own cell to be a candidate."""
    positions = _checked_cells(start, grid)
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
