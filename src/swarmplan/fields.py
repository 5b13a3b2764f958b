"""Artificial potential functions: pairwise Morse interaction, goal attractor,
Gaussian-smoothed obstacle field, and their compositions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .grid import BinaryObstacleMap, OccupancyGrid


def morse_potential(dist, attract_amp, repulse_amp, attract_len, repulse_len):
    """Raw Morse pair potential (no positivity offset) at distance `dist`.

    Attractive well at long range, repulsive core at short range. Accepts
    scalars or arrays.
    """
    dist = np.asarray(dist, dtype=float)
    val = -attract_amp * np.exp(-dist / attract_len) + repulse_amp * np.exp(-dist / repulse_len)
    return val if val.ndim else float(val)


def equilibrium_distance_of(attract_amp, repulse_amp, attract_len, repulse_len) -> float:
    """Distance minimizing the Morse pair potential (stationary point)."""
    return math.log(
        (repulse_amp * attract_len) / (attract_amp * repulse_len)
    ) * (repulse_len * attract_len / (attract_len - repulse_len))


def min_offset(attract_amp, repulse_amp, attract_len, repulse_len) -> float:
    """Depth of the Morse well: any strictly larger offset makes the pair
    potential strictly positive everywhere."""
    d_min = equilibrium_distance_of(attract_amp, repulse_amp, attract_len, repulse_len)
    return abs(morse_potential(d_min, attract_amp, repulse_amp, attract_len, repulse_len))


@dataclass(frozen=True)
class InteractionParams:
    """Morse pair-interaction parameters.

    Constraints: amplitudes and length scales positive, repulse_amp >=
    attract_amp, attract_len > repulse_len, and
    (repulse_amp * repulse_len) / (attract_amp * attract_len) < 1, which
    together guarantee a unique positive equilibrium distance. `offset` shifts
    the potential strictly positive; when omitted it defaults to 1.1x the
    well depth.
    """

    attract_amp: float = 0.7
    repulse_amp: float = 0.9
    attract_len: float = 14.0
    repulse_len: float = 4.0
    offset: float | None = None

    def __post_init__(self):
        a, b = self.attract_amp, self.repulse_amp
        la, lr = self.attract_len, self.repulse_len
        if not all(math.isfinite(v) for v in (a, b, la, lr)):
            raise ValueError("interaction amplitudes and length scales must be finite")
        if min(a, b, la, lr) <= 0:
            raise ValueError("interaction amplitudes and length scales must be positive")
        if b < a:
            raise ValueError("repulse_amp must be >= attract_amp")
        if not la > lr:
            raise ValueError("attract_len must exceed repulse_len")
        if not (b * lr) / (a * la) < 1:
            raise ValueError("(repulse_amp*repulse_len)/(attract_amp*attract_len) must be < 1")
        depth = min_offset(a, b, la, lr)
        if self.offset is None:
            object.__setattr__(self, "offset", 1.1 * depth)
        elif not self.offset > depth:
            raise ValueError(f"offset must exceed the well depth {depth:.6g}")
        elif not math.isfinite(self.offset):
            raise ValueError("interaction offset must be finite")


def interaction_energy(p_i, p_j, params: InteractionParams) -> float:
    """Strictly positive pair interaction energy between two positions."""
    d = math.hypot(p_i[0] - p_j[0], p_i[1] - p_j[1])
    return (
        morse_potential(d, params.attract_amp, params.repulse_amp,
                        params.attract_len, params.repulse_len)
        + params.offset
    )


def equilibrium_distance(params: InteractionParams) -> float:
    """Pair separation with minimum interaction energy."""
    return equilibrium_distance_of(
        params.attract_amp, params.repulse_amp, params.attract_len, params.repulse_len
    )


@dataclass(frozen=True)
class GoalParams:
    """Exponential attractor toward `goal` (real-valued cell coordinates)."""

    goal: tuple[float, float]
    amp: float = 3.0
    length_scale: float = 20.0

    def __post_init__(self):
        if not (self.amp > 0 and self.length_scale > 0):
            raise ValueError("goal amplitude and length scale must be positive")
        if not all(math.isfinite(v) for v in (self.amp, self.length_scale, *self.goal)):
            raise ValueError("goal position, amplitude and length scale must be finite")


def goal_energy(p, params: GoalParams) -> float:
    """Strictly positive goal energy; global minimum `amp` exactly at the goal."""
    d = math.hypot(p[0] - params.goal[0], p[1] - params.goal[1])
    return params.amp * math.exp(d / params.length_scale)


@dataclass(frozen=True)
class ObstacleParams:
    """Gaussian smoothing parameters for the obstacle field."""

    sigma: float = 1.0
    occupied_value: float = 5.0

    def __post_init__(self):
        if not (self.sigma > 0 and self.occupied_value > 0):
            raise ValueError("sigma and occupied_value must be positive")


@dataclass(frozen=True)
class ScalarField:
    """Per-cell finite, nonnegative energy values, indexed [y, x]."""

    value: np.ndarray

    def __post_init__(self):
        value = np.asarray(self.value, dtype=float)
        if value.ndim != 2 or not value.size:
            raise ValueError("scalar field must be a 2D array with at least one cell")
        if not (value.min() >= 0 and value.max() < math.inf):  # NaN fails both
            raise ValueError("scalar field values must be finite and nonnegative")
        value.setflags(write=False)
        object.__setattr__(self, "value", value)

    @property
    def width(self) -> int:
        return self.value.shape[1]

    @property
    def height(self) -> int:
        return self.value.shape[0]

    def at(self, c) -> float:
        return float(self.value[c[1], c[0]])


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 2D Gaussian kernel truncated at radius ceil(3*sigma)."""
    r = math.ceil(3 * sigma)
    ax = np.arange(-r, r + 1, dtype=float)
    g1 = np.exp(-(ax**2) / (2 * sigma**2))
    k = np.outer(g1, g1)
    return k / k.sum()


def build_obstacle_field(m_hat: BinaryObstacleMap, params: ObstacleParams) -> ScalarField:
    """Convolve the binary obstacle map with a Gaussian kernel.

    Out-of-map cells are padded with the occupied value so the map border
    repels like an obstacle.
    """
    kernel = gaussian_kernel(params.sigma)
    value = ndimage.convolve(
        m_hat.value, kernel, mode="constant", cval=m_hat.occupied_value
    )
    # Convolution of nonnegative inputs; clip away negative rounding noise.
    return ScalarField(value=np.maximum(value, 0.0))


def build_goal_field(grid: OccupancyGrid, params: GoalParams) -> ScalarField:
    """Rasterize the goal energy at cell centers; ValueError if a cell's
    energy overflows the float range."""
    ys, xs = np.mgrid[0 : grid.height, 0 : grid.width]
    d = np.hypot(xs - params.goal[0], ys - params.goal[1])
    try:
        with np.errstate(over="raise"):
            value = params.amp * np.exp(d / params.length_scale)
    except FloatingPointError:
        raise ValueError(
            f"goal field overflows: amplitude {params.amp:g} with length scale "
            f"{params.length_scale:g} on a {grid.width}x{grid.height} map"
        ) from None
    return ScalarField(value=value)


def static_field(goal: ScalarField, obstacle: ScalarField) -> ScalarField:
    """Cellwise sum of the goal and obstacle fields."""
    if goal.value.shape != obstacle.value.shape:
        raise ValueError("field dimensions do not match")
    return ScalarField(value=goal.value + obstacle.value)


def zero_field(grid: OccupancyGrid) -> ScalarField:
    """All-zero field matching the grid (free-space scenarios)."""
    return ScalarField(value=np.zeros((grid.height, grid.width)))


def render_combined_field(
    static: ScalarField, positions, iparams: InteractionParams
) -> ScalarField:
    """Static field plus the summed pair interaction of every robot, evaluated
    per cell. Diagnostic output only; never used inside optimization."""
    ys, xs = np.mgrid[0 : static.height, 0 : static.width]
    total = static.value.copy()
    for p in positions:
        d = np.hypot(xs - p[0], ys - p[1])
        total += (
            morse_potential(d, iparams.attract_amp, iparams.repulse_amp,
                            iparams.attract_len, iparams.repulse_len)
            + iparams.offset
        )
    return ScalarField(value=np.maximum(total, 0.0))


def dump_field(field_: ScalarField) -> str:
    """Text dump consumed by external plotting tools."""
    lines = [f"field {field_.width} {field_.height}"]
    for y in range(field_.height):
        lines.append(" ".join(f"{v:.9e}" for v in field_.value[y]))
    return "\n".join(lines) + "\n"
