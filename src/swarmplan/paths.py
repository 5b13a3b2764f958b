"""Grid-line geometry (supercover traversal, segment intersection) and
waypoint pruning of discrete paths. The supercover traversal is one
error-term walk along the segment's major axis, for every octant."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .grid import Cell, OccupancyGrid

if TYPE_CHECKING:
    from .mrf import DiscretePath


def supercover_cells(a: Cell, b: Cell) -> list[Cell]:
    """Every cell the closed segment between the centers of `a` and `b`
    touches, including cells met only at a corner. Conservative superset of
    Bresenham.

    One walk for every octant: step along the major axis u (x on ties) and
    advance the minor axis v when the error term passes the major length;
    `cell` maps (u, v) back to (x, y)."""
    x0, y0 = int(a[0]), int(a[1])
    dx, dy = int(b[0]) - x0, int(b[1]) - y0
    if abs(dx) >= abs(dy):
        u, v, du, dv, cell = x0, y0, dx, dy, Cell
    else:
        u, v, du, dv, cell = y0, x0, dy, dx, lambda u, v: Cell(v, u)
    ustep = 1 if du > 0 else -1
    vstep = 1 if dv > 0 else -1
    du, dv = abs(du), abs(dv)
    ddu, ddv = 2 * du, 2 * dv
    cells = [Cell(x0, y0)]
    errorprev = error = du
    for _ in range(du):
        u += ustep
        error += ddv
        if error > ddu:
            v += vstep
            error -= ddu
            # the segment reached the new major column before the new minor
            # row (cell (u, v - vstep)), after it (cell (u - ustep, v)), or
            # exactly at their corner, where it touches both
            if error + errorprev <= ddu:
                cells.append(cell(u, v - vstep))
            if error + errorprev >= ddu:
                cells.append(cell(u - ustep, v))
        cells.append(cell(u, v))
        errorprev = error
    return cells


def line_of_sight(grid: OccupancyGrid, a: Cell, b: Cell) -> bool:
    """True iff every supercover cell of the segment a->b is in bounds and free."""
    for c in supercover_cells(a, b):
        if not grid.in_bounds(c) or not grid.is_free(c):
            return False
    return True


def _orient(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _within_bbox(p, a, b) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def point_segment_distance(p, a, b) -> float:
    """Euclidean distance from point p to the closed segment a-b."""
    ax, ay = a
    bx, by = b
    px, py = p
    vx, vy = bx - ax, by - ay
    norm2 = vx * vx + vy * vy
    if norm2 == 0:
        return math.hypot(px - ax, py - ay)
    u = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / norm2))
    return math.hypot(px - (ax + u * vx), py - (ay + u * vy))


def segments_intersect(a1, a2, b1, b2) -> bool:
    """Closed-segment intersection test (shared endpoints count).

    Handles degenerate (point) segments and collinear overlap.
    """
    o1 = _orient(a1, a2, b1)
    o2 = _orient(a1, a2, b2)
    o3 = _orient(b1, b2, a1)
    o4 = _orient(b1, b2, a2)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    if o1 == 0 and _within_bbox(b1, a1, a2):
        return True
    if o2 == 0 and _within_bbox(b2, a1, a2):
        return True
    if o3 == 0 and _within_bbox(a1, b1, b2):
        return True
    if o4 == 0 and _within_bbox(a2, b1, b2):
        return True
    return False


@dataclass(frozen=True)
class PrunedPath:
    """Waypoint subsequence of a discrete path; `source_steps` indexes each
    retained waypoint back into the original step sequence."""

    robot: int
    waypoints: tuple[Cell, ...]
    source_steps: tuple[int, ...]


def prune(paths: Sequence["DiscretePath"], grid: OccupancyGrid) -> list[PrunedPath]:
    """Greedy line-of-sight pruning, each robot's path on its own.

    From each anchor, extend the chord to the farthest later waypoint with
    line of sight. The single step to the next waypoint is kept even without
    line of sight, so the result never gains waypoints; an ICM step always
    has it, as ICM's candidates do. A robot that never moves keeps a
    two-point path.

    A robot's chords do not depend on any other robot, so `plan` does not
    prune: it merges steps into transitions of the whole swarm, which take
    the other robots into account (`rhp.execute_fraction`).
    """
    results: list[PrunedPath] = []
    for p in paths:
        keep = [0]  # retained indices
        last = len(p.cells) - 1
        while keep[-1] != last:
            a = keep[-1]
            chosen = a + 1  # the single step, with or without line of sight
            for j in range(last, a + 1, -1):
                if line_of_sight(grid, p.cells[a], p.cells[j]):
                    chosen = j
                    break
            keep.append(chosen)
        if len(keep) == 1:
            # stationary robot: keep a degenerate two-point path
            keep = [0, 0]
        results.append(
            PrunedPath(
                robot=p.robot,
                waypoints=tuple(p.cells[k] for k in keep),
                source_steps=tuple(keep),
            )
        )
    return results
