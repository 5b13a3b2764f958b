"""Occupancy-grid parsing, thresholding and lattice-disk neighborhoods."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swarmplan.grid import (
    Cell,
    MapParseError,
    OccupancyGrid,
    disk_cells,
    disk_offsets,
    dump_map,
    load_map,
    threshold_map,
)

MAP_3X2 = "gridmap 3 2 1.0\n0.0 0.5 1.0\n0.2 0.0 0.9\n"


def test_load_map_round_trip():
    grid = load_map(MAP_3X2)
    assert grid.width == 3
    assert grid.height == 2
    assert grid.resolution == 1.0
    again = load_map(dump_map(grid))
    assert np.array_equal(again.prob, grid.prob)
    assert again.resolution == grid.resolution
    # dump is a fixed point of the format
    assert dump_map(again) == dump_map(grid)


def test_load_map_values_indexed_row_major():
    grid = load_map(MAP_3X2)
    # prob array is [row][col]; first text row is y = 0
    assert grid.prob[0, 1] == 0.5
    assert grid.prob[1, 2] == 0.9


@pytest.mark.parametrize(
    "text",
    [
        "notamap 3 2 1.0\n",
        "gridmap 3 2\n",
        "gridmap 3 2 1.0\n0.0 0.5\n0.2 0.0 0.9\n",  # short row
        "gridmap 3 2 1.0\n0.0 0.5 1.0\n",  # missing row
        "gridmap 3 2 1.0\n0.0 0.5 1.5\n0.2 0.0 0.9\n",  # out-of-range prob
        "gridmap 3 2 1.0\n0.0 0.5 x\n0.2 0.0 0.9\n",  # non-numeric
    ],
)
def test_load_map_rejects_malformed_input(text):
    with pytest.raises(MapParseError):
        load_map(text)


def test_parse_error_reports_line_number():
    try:
        load_map("gridmap 3 2 1.0\n0.0 0.5 1.0\n0.2 bad 0.9\n")
    except MapParseError as err:
        assert err.line == 3
    else:  # pragma: no cover
        pytest.fail("expected MapParseError")


def test_is_free_and_bounds():
    grid = load_map(MAP_3X2)
    assert grid.is_free(Cell(0, 0))
    assert not grid.is_free(Cell(2, 0))  # P = 1.0
    assert not grid.in_bounds(Cell(3, 0))
    with pytest.raises(ValueError):
        grid.is_free(Cell(3, 0))


def test_threshold_at_one_half_is_occupied():
    # cells with P >= 0.5 count as obstacles, strictly-below stays free
    grid = load_map(MAP_3X2)
    m = threshold_map(grid, occupied_value=5.0)
    assert m.value[0, 1] == 5.0
    assert m.value[0, 0] == 0.0
    assert m.value[1, 2] == 5.0


def test_free_mask_matches_threshold():
    grid = load_map(MAP_3X2)
    assert grid.free_mask().tolist() == [[True, False, False], [True, True, False]]


def brute_disk(order: int) -> set[tuple[int, int]]:
    r = int(order**0.5) + 1
    return {
        (dx, dy)
        for dx in range(-r, r + 1)
        for dy in range(-r, r + 1)
        if dx * dx + dy * dy <= order
    }


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8, 9])
def test_disk_offsets_match_brute_force(order):
    assert set(disk_offsets(order)) == brute_disk(order)


def test_disk_offsets_order_four_has_13_cells():
    # dx^2 + dy^2 <= 4: center, 4 rook moves, 4 diagonals, 4 at distance 2
    assert len(disk_offsets(4)) == 13


@given(st.integers(min_value=1, max_value=12))
def test_disk_offsets_symmetric(order):
    offs = set(disk_offsets(order))
    assert {(-dx, -dy) for dx, dy in offs} == offs
    assert (0, 0) in offs


def test_disk_cells_clip_to_bounds():
    grid = load_map(MAP_3X2)
    cells = disk_cells(Cell(0, 0), 4, grid)
    assert Cell(0, 0) in cells
    assert all(grid.in_bounds(c) for c in cells)
    # row-major deterministic ordering
    assert cells == sorted(cells, key=lambda c: (c.y, c.x))


def test_disk_cells_equal_bounds_checked_comprehension():
    # [DERIVED] reference: every disk offset added to the center, kept when
    # in bounds, in disk_offsets' row-major order.
    grid = OccupancyGrid(prob=np.zeros((7, 9)), resolution=1.0)
    for order in range(1, 13):
        for y in range(grid.height):
            for x in range(grid.width):
                expected = [
                    Cell(x + dx, y + dy)
                    for dx, dy in disk_offsets(order)
                    if grid.in_bounds(Cell(x + dx, y + dy))
                ]
                got = disk_cells(Cell(x, y), order, grid)
                assert got == expected
                assert all(type(c) is Cell and type(c.x) is int and type(c.y) is int for c in got)


def test_disk_cells_rejects_out_of_bounds_center():
    grid = load_map(MAP_3X2)
    with pytest.raises(ValueError):
        disk_cells(Cell(9, 9), 4, grid)


def test_grid_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        OccupancyGrid(prob=np.array([[0.0, 2.0]]), resolution=1.0)
    with pytest.raises(ValueError):
        OccupancyGrid(prob=np.zeros((2, 2)), resolution=0.0)
