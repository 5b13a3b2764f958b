"""Geometry and pruning tests: supercover traversal against a dense-sampling
oracle, segment intersection, point-segment distance, and line-of-sight
pruning."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmplan.grid import Cell, OccupancyGrid
from swarmplan.mrf import DiscretePath
from swarmplan.paths import (
    line_of_sight,
    point_segment_distance,
    prune,
    segments_intersect,
    supercover_cells,
)


def sampled_cells(a, b, step=1e-3):
    """[DERIVED] oracle: walk the segment in tiny steps and round to cells;
    at ties (coordinate exactly halfway) include both neighbors."""
    ax, ay = a
    bx, by = b
    length = math.hypot(bx - ax, by - ay)
    n = max(1, int(length / step))
    out = set()
    for t in np.linspace(0.0, 1.0, n + 1):
        x = ax + t * (bx - ax)
        y = ay + t * (by - ay)
        xs = {round(x)} if abs(x - round(x)) > 1e-9 or abs(x - math.floor(x) - 0.5) > 1e-9 else {math.floor(x), math.ceil(x)}
        if abs(x - math.floor(x) - 0.5) < 1e-9:
            xs = {math.floor(x), math.ceil(x)}
        ys = {round(y)}
        if abs(y - math.floor(y) - 0.5) < 1e-9:
            ys = {math.floor(y), math.ceil(y)}
        for cx in xs:
            for cy in ys:
                out.add((int(cx), int(cy)))
    return out


CASES = [
    ((0, 0), (5, 0)),    # axis-aligned
    ((0, 0), (0, -4)),   # vertical, negative direction
    ((0, 0), (3, 3)),    # exact diagonal (corner touches)
    ((0, 0), (5, 2)),    # shallow slope
    ((0, 0), (2, 5)),    # steep slope
    ((4, 1), (-1, -2)),  # both deltas negative-ish
    ((2, 2), (2, 2)),    # degenerate point
    ((0, 0), (6, 4)),    # slope 2/3, hits corners at (3, 2)
]


@pytest.mark.parametrize("a,b", CASES)
def test_supercover_matches_dense_sampling(a, b):
    got = set(supercover_cells(Cell(*a), Cell(*b)))
    assert got == sampled_cells(a, b)


@pytest.mark.parametrize("a,b", CASES)
def test_supercover_symmetric(a, b):
    assert set(supercover_cells(Cell(*a), Cell(*b))) == set(
        supercover_cells(Cell(*b), Cell(*a))
    )


def test_supercover_diagonal_includes_corner_neighbors():
    # [DERIVED] the segment (0,0)-(2,2) passes through the corner shared by
    # (0,1)/(1,0) and by (1,2)/(2,1); the supercover takes all of them.
    got = set(supercover_cells(Cell(0, 0), Cell(2, 2)))
    assert got == {(0, 0), (1, 1), (2, 2), (1, 0), (0, 1), (2, 1), (1, 2)}


def test_supercover_endpoints_present():
    cells = supercover_cells(Cell(-3, 7), Cell(4, -2))
    assert cells[0] == (-3, 7)
    assert cells[-1] == (4, -2)


# SHA-256 over the cell lists of every segment from three origins to each
# offset in [-15, 15]^2, recorded before the traversal became one walk for
# every octant: it pins the order of the cells, not only the set
SUPERCOVER_DIGEST = "f08c05a05c6b089ac1abff17c33ff7ed4c6185d9abaea75786c9d1f752d70b4b"


def test_supercover_cells_golden_digest():
    h = hashlib.sha256()
    for ox, oy in ((0, 0), (5, 7), (37, 53)):
        for dx in range(-15, 16):
            for dy in range(-15, 16):
                cells = supercover_cells(Cell(ox, oy), Cell(ox + dx, oy + dy))
                h.update(repr([(int(x), int(y)) for x, y in cells]).encode())
    assert h.hexdigest() == SUPERCOVER_DIGEST


@given(
    ax=st.integers(-8, 8), ay=st.integers(-8, 8),
    bx=st.integers(-8, 8), by=st.integers(-8, 8),
)
@settings(max_examples=80, deadline=None)
def test_supercover_is_connected_superset_property(ax, ay, bx, by):
    cells = supercover_cells(Cell(ax, ay), Cell(bx, by))
    got = set(cells)
    # contains the sampled cells (superset direction of the oracle is enough
    # here; parametrized cases pin exact equality)
    assert sampled_cells((ax, ay), (bx, by)) <= got
    # every cell is within half a step (Chebyshev) of the segment
    for c in got:
        assert point_segment_distance(c, (ax, ay), (bx, by)) <= math.sqrt(0.5) + 1e-9


def test_line_of_sight_free_and_blocked():
    prob = np.zeros((5, 7))
    prob[2, 3] = 1.0  # cell (3, 2) occupied
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    assert line_of_sight(grid, Cell(0, 2), Cell(2, 2))
    assert not line_of_sight(grid, Cell(0, 2), Cell(6, 2))  # passes (3,2)
    assert line_of_sight(grid, Cell(0, 0), Cell(6, 0))


def test_line_of_sight_out_of_bounds_is_false():
    grid = OccupancyGrid(prob=np.zeros((3, 3)), resolution=1.0)
    assert not line_of_sight(grid, Cell(0, 0), Cell(4, 0))


def test_segments_intersect_proper_crossing():
    assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))


def test_segments_intersect_shared_endpoint_counts():
    assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))


def test_segments_intersect_t_junction():
    assert segments_intersect((0, 0), (4, 0), (2, -1), (2, 0))


def test_segments_disjoint():
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))
    assert not segments_intersect((0, 0), (1, 1), (2, 2), (3, 3))  # collinear, gap


def test_segments_collinear_overlap():
    assert segments_intersect((0, 0), (3, 0), (2, 0), (5, 0))


def test_segments_degenerate_points():
    assert segments_intersect((1, 1), (1, 1), (0, 0), (2, 2))  # point on segment
    assert not segments_intersect((1, 2), (1, 2), (0, 0), (2, 0))
    assert segments_intersect((1, 1), (1, 1), (1, 1), (1, 1))  # identical points


def test_point_segment_distance_cases():
    # interior projection
    assert point_segment_distance((1, 1), (0, 0), (2, 0)) == pytest.approx(1.0)
    # clamped to endpoint
    assert point_segment_distance((-3, 4), (0, 0), (2, 0)) == pytest.approx(5.0)
    # degenerate segment
    assert point_segment_distance((3, 4), (0, 0), (0, 0)) == pytest.approx(5.0)
    # point on segment
    assert point_segment_distance((1, 0), (0, 0), (2, 0)) == 0.0


def free_grid(w=20, h=20):
    return OccupancyGrid(prob=np.zeros((h, w)), resolution=1.0)


def test_prune_collinear_run_collapses_to_two_waypoints():
    path = DiscretePath(robot=0, cells=tuple(Cell(x, 3) for x in range(5)))
    out = prune([path], free_grid())
    assert out[0].waypoints == (Cell(0, 3), Cell(4, 3))
    assert out[0].source_steps == (0, 4)


def test_prune_idempotent():
    path = DiscretePath(
        robot=0, cells=(Cell(0, 0), Cell(1, 1), Cell(2, 2), Cell(3, 2), Cell(4, 2))
    )
    first = prune([path], free_grid())
    again = prune([DiscretePath(robot=0, cells=first[0].waypoints)], free_grid())
    assert again[0].waypoints == first[0].waypoints
    assert again[0].source_steps == tuple(range(len(first[0].waypoints)))


def test_prune_respects_obstacles():
    # A wall with one gap forces the dog-leg to survive pruning.
    prob = np.zeros((7, 7))
    prob[:, 3] = 1.0
    prob[0, 3] = 0.0  # gap at (3, 0)
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    cells = (Cell(0, 2), Cell(1, 1), Cell(2, 0), Cell(3, 0), Cell(4, 0), Cell(5, 1), Cell(6, 2))
    out = prune([DiscretePath(robot=0, cells=cells)], grid)
    for a, b in zip(out[0].waypoints, out[0].waypoints[1:]):
        assert line_of_sight(grid, a, b)
    assert len(out[0].waypoints) >= 3


def test_prune_stationary_robot_gets_degenerate_path():
    path = DiscretePath(robot=0, cells=(Cell(2, 2), Cell(2, 2), Cell(2, 2)))
    out = prune([path], free_grid())
    assert out[0].waypoints == (Cell(2, 2), Cell(2, 2))
    assert out[0].source_steps[0] == 0
    assert len(out[0].waypoints) == 2


def test_prune_preserves_endpoints_and_step_order():
    rngcells = (Cell(1, 1), Cell(2, 2), Cell(3, 2), Cell(4, 3), Cell(5, 3))
    out = prune([DiscretePath(robot=0, cells=rngcells)], free_grid())
    wp, steps = out[0].waypoints, out[0].source_steps
    assert wp[0] == rngcells[0] and wp[-1] == rngcells[-1]
    assert steps[0] == 0 and steps[-1] == 4
    assert list(steps) == sorted(steps)


def random_walks(rng):
    """A random map (some cells occupied) and 2-6 robots, each on a random
    walk of king moves and holds that stays on the map."""
    w, h = int(rng.integers(6, 16)), int(rng.integers(6, 16))
    grid = OccupancyGrid(prob=np.where(rng.random((h, w)) < 0.15, 1.0, 0.0), resolution=1.0)
    steps = int(rng.integers(1, 9))
    paths = []
    for r in range(int(rng.integers(2, 7))):
        cells = [Cell(int(rng.integers(w)), int(rng.integers(h)))]
        for _ in range(steps):
            x, y = cells[-1] + rng.integers(-1, 2, 2)
            cells.append(Cell(int(np.clip(x, 0, w - 1)), int(np.clip(y, 0, h - 1))))
        paths.append(DiscretePath(robot=r, cells=tuple(cells)))
    return paths, grid


@pytest.mark.parametrize("seed", range(40))
def test_prune_treats_each_robot_alone(seed):
    paths, grid = random_walks(np.random.default_rng(seed))
    assert prune(paths, grid) == [prune([p], grid)[0] for p in paths]


def test_prune_empty_input():
    assert prune([], free_grid()) == []
