"""Grid-line geometry (supercover traversal, segment intersection) and
waypoint pruning of discrete paths."""

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
    Bresenham."""
    x0, y0 = int(a[0]), int(a[1])
    x1, y1 = int(b[0]), int(b[1])
    dx, dy = x1 - x0, y1 - y0
    xstep = 1 if dx > 0 else -1
    ystep = 1 if dy > 0 else -1
    dx, dy = abs(dx), abs(dy)
    cells = [Cell(x0, y0)]
    ddx, ddy = 2 * dx, 2 * dy
    x, y = x0, y0
    if dx >= dy:
        errorprev = error = dx
        for _ in range(dx):
            x += xstep
            error += ddy
            if error > ddx:
                y += ystep
                error -= ddx
                if error + errorprev < ddx:
                    cells.append(Cell(x, y - ystep))
                elif error + errorprev > ddx:
                    cells.append(Cell(x - xstep, y))
                else:
                    # exact corner crossing: take both adjacent cells
                    cells.append(Cell(x, y - ystep))
                    cells.append(Cell(x - xstep, y))
            cells.append(Cell(x, y))
            errorprev = error
    else:
        errorprev = error = dy
        for _ in range(dy):
            y += ystep
            error += ddx
            if error > ddy:
                x += xstep
                error -= ddy
                if error + errorprev < ddy:
                    cells.append(Cell(x - xstep, y))
                elif error + errorprev > ddy:
                    cells.append(Cell(x, y - ystep))
                else:
                    cells.append(Cell(x - xstep, y))
                    cells.append(Cell(x, y - ystep))
            cells.append(Cell(x, y))
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


def prune(
    paths: Sequence["DiscretePath"],
    grid: OccupancyGrid,
    source_steps: Sequence[Sequence[int]] | None = None,
) -> list[PrunedPath]:
    """Greedy line-of-sight pruning, each robot's path on its own.

    From each anchor, extend the chord to the farthest later waypoint with
    line of sight. The single step to the next waypoint is kept even without
    line of sight (ICM's candidate disk does not require it), so the result
    never gains waypoints. A robot that never moves keeps a two-point path.

    A robot's chords do not depend on any other robot: separation is the
    job of `trajopt.validate`, and of the execution schedule
    (`trajopt.repair`) that replaces smoothed paths which fail it.

    `source_steps` lets an already pruned path be re-pruned against the
    original step numbering (defaults to 0..T).
    """
    if source_steps is None:
        source_steps = [list(range(len(p.cells))) for p in paths]

    results: list[PrunedPath] = []
    for p, steps in zip(paths, source_steps):
        keep = [0]  # retained indices
        last = len(steps) - 1
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
                source_steps=tuple(steps[k] for k in keep),
            )
        )
    return results
