"""Occupancy grid maps, obstacle thresholding and lattice geometry."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

OCCUPIED_THRESHOLD = 0.5


class MapParseError(ValueError):
    """Raised when a map file cannot be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Cell(NamedTuple):
    """Integer grid coordinates (column x, row y)."""

    x: int
    y: int


@dataclass(frozen=True)
class OccupancyGrid:
    """2D grid of occupancy probabilities.

    `prob` is indexed [y, x] and holds values in [0, 1]. `resolution` is
    meters per cell; all geometry elsewhere works in cell units and converts
    only for reporting.
    """

    prob: np.ndarray
    resolution: float = 1.0

    def __post_init__(self):
        prob = np.asarray(self.prob, dtype=float)
        if prob.ndim != 2 or prob.shape[0] < 1 or prob.shape[1] < 1:
            raise ValueError("occupancy grid must be a 2D array with at least one cell")
        if np.any(prob < 0.0) or np.any(prob > 1.0):
            raise ValueError("occupancy probabilities must lie in [0, 1]")
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")
        prob.setflags(write=False)
        object.__setattr__(self, "prob", prob)

    @property
    def width(self) -> int:
        return self.prob.shape[1]

    @property
    def height(self) -> int:
        return self.prob.shape[0]

    def in_bounds(self, c: Cell) -> bool:
        return 0 <= c[0] < self.width and 0 <= c[1] < self.height

    def is_free(self, c: Cell) -> bool:
        """True iff the cell's occupancy probability is below the threshold.

        Out-of-bounds cells are an error; callers must bounds-check first.
        """
        if not self.in_bounds(c):
            raise ValueError(f"cell {tuple(c)} outside {self.width}x{self.height} grid")
        return self.prob[c[1], c[0]] < OCCUPIED_THRESHOLD

    def free_mask(self) -> np.ndarray:
        """Boolean [y, x] mask of free cells."""
        return self.prob < OCCUPIED_THRESHOLD


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


# The grid's free mask as nested lists of bools ([y][x]).
_free_mask = _LastSeen(lambda grid: grid.free_mask().tolist())


@dataclass(frozen=True)
class BinaryObstacleMap:
    """High-pass filtered obstacle map: every cell is 0 (free) or `occupied_value`."""

    value: np.ndarray
    occupied_value: float

    def __post_init__(self):
        value = np.asarray(self.value, dtype=float)
        if not self.occupied_value > 0:
            raise ValueError("occupied_value must be positive")
        if not np.all((value == 0.0) | (value == self.occupied_value)):
            raise ValueError("binary obstacle map may only hold 0 or occupied_value")
        value.setflags(write=False)
        object.__setattr__(self, "value", value)

    @property
    def width(self) -> int:
        return self.value.shape[1]

    @property
    def height(self) -> int:
        return self.value.shape[0]


def load_map(source: str) -> OccupancyGrid:
    """Parse the plain-text map format.

    Line 1: ``gridmap <width> <height> <resolution>``; then `height` rows of
    `width` probabilities each. Row 0 of the file is y = 0.
    """
    lines = source.splitlines()
    if not lines:
        raise MapParseError("empty map file", line=1)
    header = lines[0].split()
    if len(header) != 4 or header[0] != "gridmap":
        raise MapParseError("expected header 'gridmap <width> <height> <resolution>'", line=1)
    try:
        width, height = int(header[1]), int(header[2])
        resolution = float(header[3])
    except ValueError:
        raise MapParseError("non-numeric header field", line=1) from None
    if width < 1 or height < 1:
        raise MapParseError("width and height must be at least 1", line=1)
    if not resolution > 0:
        raise MapParseError("resolution must be positive", line=1)

    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != height:
        raise MapParseError(
            f"row count mismatch: header says {height}, found {len(body)}",
            line=len(lines),
        )
    prob = np.empty((height, width), dtype=float)
    for y, ln in enumerate(body):
        fields = ln.split()
        lineno = y + 2
        if len(fields) != width:
            raise MapParseError(
                f"row length mismatch: expected {width} values, found {len(fields)}",
                line=lineno,
            )
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise MapParseError("non-numeric probability", line=lineno) from None
        for v in row:
            if not 0.0 <= v <= 1.0:
                raise MapParseError(f"probability out of range: {v}", line=lineno)
        prob[y] = row
    return OccupancyGrid(prob=prob, resolution=resolution)


def dump_map(grid: OccupancyGrid) -> str:
    """Inverse of load_map."""
    lines = [f"gridmap {grid.width} {grid.height} {grid.resolution:g}"]
    for y in range(grid.height):
        lines.append(" ".join(f"{v:g}" for v in grid.prob[y]))
    return "\n".join(lines) + "\n"


def threshold_map(grid: OccupancyGrid, occupied_value: float) -> BinaryObstacleMap:
    """High-pass filter: cells with P >= 0.5 get `occupied_value`, the rest 0."""
    if not occupied_value > 0:
        raise ValueError("occupied_value must be positive")
    value = np.where(grid.prob >= OCCUPIED_THRESHOLD, float(occupied_value), 0.0)
    return BinaryObstacleMap(value=value, occupied_value=float(occupied_value))


def disk_offsets(order: int) -> list[tuple[int, int]]:
    """Lattice offsets (dx, dy) with dx^2 + dy^2 <= order, row-major order."""
    if order < 1:
        raise ValueError("neighborhood order must be at least 1")
    r = math.isqrt(order)
    out = []
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dx * dx + dy * dy <= order:
                out.append((dx, dy))
    return out


@functools.lru_cache(maxsize=None)
def _disk(order: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """`disk_offsets(order)` and the disk's Chebyshev radius."""
    return tuple(disk_offsets(order)), math.isqrt(order)


def disk_cells(center: Cell, order: int, grid: OccupancyGrid) -> list[Cell]:
    """In-bounds cells of the order-n lattice disk around `center` (row-major)."""
    if not grid.in_bounds(center):
        raise ValueError(f"cell {tuple(center)} outside grid")
    offsets, r = _disk(order)
    cx, cy = center
    height, width = grid.prob.shape
    make = Cell._make
    if r <= cx < width - r and r <= cy < height - r:  # the whole disk is on the map
        return [make((cx + dx, cy + dy)) for dx, dy in offsets]
    return [
        make((cx + dx, cy + dy))
        for dx, dy in offsets
        if 0 <= cx + dx < width and 0 <= cy + dy < height
    ]
