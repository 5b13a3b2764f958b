"""Minimum-snap piecewise polynomial smoothing of pruned waypoint paths:
the closed-form rest-to-rest segment, equality-constrained QP assembly and
KKT solve, time allocation, sampling, validation, and the execution
schedule that replaces a horizon's smoothed paths when they fail
validation.

The problem is fixed: every segment is a polynomial of degree `DEGREE` (7)
and the cost is the integral of the squared `SNAP_ORDER`-th (4th)
derivative, snap (Mellinger & Kumar, ICRA 2011).

`solve_problems` splits every robot's problem at its rests into
rest-to-rest pieces and `min_snap` solves each one. A piece of one segment,
most of the pipeline's, is the septic smoothstep, written in closed form. A
piece of more segments is a QP whose KKT matrix
[[2 cost, eq_mat^T], [eq_mat, 0]] is nonsingular for any positive segment
durations, so it is solved as it is, with no ridge and no least-squares
fallback. The constraint rows have full rank. The cost is positive definite
on their null space: a piece of zero snap is cubic on every segment, and if
it meets all-zero constraints, its first segment has value and derivatives
1-3 zero at t = 0, so it vanishes, and C^3 continuity carries that into
each next segment.

`sample_common` evaluates all robots in one pass: one segment lookup per
trajectory, then one Horner recurrence over every order, robot and sample.
`validate` checks those samples for obstacles, corridors and pair
separation on whole arrays, so a horizon that passes is evaluated once and
its samples are what the caller records.

Every array path keeps the scalar arithmetic's operation order, so results
are bit-identical to a per-sample loop. These look equivalent but differ in
the last bit on some inputs (x86-64, AVX-512, numpy 2.4 with OpenBLAS), so
they are not used: `np.power(tau, k)` for Python `tau ** k` in the QP rows;
one `np.linalg.solve` with several right-hand-side columns for one solve
per column; and `np.hypot` for `math.hypot`. A stacked batch of
single-column systems, matrices (k, n, n) against right-hand sides
(k, n, 1), is solved matrix by matrix and matches k separate solves
exactly. The corridor, precedence and slot tests share one kernel,
`_point_segment_distances`, in `paths.point_segment_distance`'s order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import OccupancyGrid
from .paths import segments_intersect

DEGREE = 7
SNAP_ORDER = 4
T_FLOOR = 0.1
# largest normwise backward error of a QP solve's constraints (see
# `solve_qp`), so it bounds multi-segment pieces only. Solves of chords on
# maps up to 60000 cells at v_nominal 0.1 to 1e5 stay below 3e-16; adding
# 1e-6 to every coefficient of a 2-6 segment piece with waypoints within
# 20 gives 5e-10 or more.
RESIDUAL_TOL = 1e-12


class TrajectoryError(RuntimeError):
    """Solve failure: a singular KKT system, a residual over `solve_qp`'s
    backward-error bound, or closed-form coefficients that are not finite."""


class UnrepairableError(TrajectoryError):
    """A horizon has no feasible trajectories: a step of the execution
    schedule has no order, or the schedule still fails validation.

    `violations` is the final report; the message names each one.
    """

    def __init__(self, violations: Sequence["Violation"], cause: str = "remain after repair"):
        self.violations = list(violations)
        detail = "; ".join(v.describe() for v in self.violations)
        super().__init__(f"{len(self.violations)} violation(s) {cause}: {detail}")


@dataclass(frozen=True)
class TimeAllocation:
    """Per-segment durations; `knots` prepends t = 0 and accumulates, and
    `total` is their sum. Both are computed once, read-only."""

    durations: np.ndarray
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    # np.sum, not knots[-1]: from 8 elements on numpy sums in 8 partial
    # accumulators, which can differ from the running cumsum in the last bit
    total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.asarray(self.durations, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("need at least one segment duration")
        if not np.all((d > 0) & np.isfinite(d)):
            raise ValueError("segment durations must be positive and finite")
        d.setflags(write=False)
        knots = np.concatenate([[0.0], np.cumsum(d)])
        knots.setflags(write=False)
        object.__setattr__(self, "durations", d)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "total", float(np.sum(d)))


@functools.lru_cache(maxsize=256)
def _time_allocation(durations: tuple[float, ...]) -> TimeAllocation:
    # shared by every caller with these durations; TimeAllocation is frozen
    # and its arrays read-only
    return TimeAllocation(np.array(durations))


def allocate_times(waypoints, v_nominal: float = 1.0, resolution: float = 1.0) -> TimeAllocation:
    """Constant-velocity traversal times between planar waypoints, floored
    at `T_FLOOR` for degenerate segments. The allocation is cached by its
    durations and shared."""
    wp = np.asarray(waypoints, dtype=float)
    if wp.ndim != 2 or wp.shape[1] != 2:
        raise ValueError("waypoints must be (x, y) pairs")
    if wp.shape[0] < 2:
        raise ValueError("need at least two waypoints")
    if not 0 < v_nominal < math.inf:
        raise ValueError("v_nominal must be positive and finite")
    scale, v = float(resolution), float(v_nominal)
    pts = wp.tolist()
    durations = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        # np.linalg.norm's sqrt(x*x + y*y), in Python floats
        dx, dy = x1 - x0, y1 - y0
        durations.append(max(math.sqrt(dx * dx + dy * dy) * scale / v, T_FLOOR))
    return _time_allocation(tuple(durations))


@dataclass(frozen=True)
class QuadraticProgram:
    """min x^T cost x subject to eq_mat x = eq_vec (the paired-inequality
    form collapses to this equality block)."""

    cost: np.ndarray
    eq_mat: np.ndarray
    eq_vec: np.ndarray


def _perm(j: int, q: int) -> float:
    # falling factorial j! / (j-q)!
    out = 1.0
    for r in range(q):
        out *= j - r
    return out


# `_perm(j, q)` for 0 <= j, q <= DEGREE, indexed [j][q], as Python floats
# (scalar arithmetic on numpy floats is several times slower)
_PERM = tuple(tuple(_perm(j, q) for q in range(DEGREE + 1)) for j in range(DEGREE + 1))


def _deriv_row(tau: float, order: int) -> np.ndarray:
    # Python `**`, not np.power: the two differ in the last bit
    row = np.zeros(DEGREE + 1)
    row[order:] = [_PERM[j][order] * tau ** (j - order) for j in range(order, DEGREE + 1)]
    return row


@functools.lru_cache(maxsize=1024)
def _snap_gram(duration: float) -> np.ndarray:
    """Closed-form integral of products of snap monomials over one segment
    (read-only: the array is shared by every caller with this duration)."""
    q = SNAP_ORDER
    g = np.zeros((DEGREE + 1, DEGREE + 1))
    for j in range(q, DEGREE + 1):
        for l in range(q, DEGREE + 1):
            p = j + l - 2 * q
            g[j, l] = _PERM[j][q] * _PERM[l][q] * duration ** (p + 1) / (p + 1)
    g.setflags(write=False)
    return g


def build_qp(waypoints, times: TimeAllocation) -> QuadraticProgram:
    """Assemble the minimum-snap QP.

    Decision vector: per-segment monomial coefficients in local time.
    Constraints: waypoint interpolation at both ends of every segment, rest
    boundaries (derivatives 1..3 zero at the trajectory ends), and
    derivative continuity of orders 1..3 at interior knots. Snap continuity
    is not imposed; it emerges at the optimum.

    Cost and constraint matrix do not depend on the waypoint values, so one
    QP serves every dimension: waypoints of shape (n,) give an `eq_vec` of
    shape (m,), waypoints of shape (n, dims) one column per dimension.
    """
    wp = np.asarray(waypoints, dtype=float)
    n_seg = len(times.durations)
    if wp.shape[0] != n_seg + 1:
        raise ValueError("waypoint count must be segment count + 1")

    ncoef = DEGREE + 1
    nvar = ncoef * n_seg
    durations = [float(T) for T in times.durations]
    cost = np.zeros((nvar, nvar))
    for s, T in enumerate(durations):
        i = s * ncoef
        cost[i : i + ncoef, i : i + ncoef] = _snap_gram(T)

    # (segment, local time, derivative order, value or None, next segment)
    cons = []
    for s, T in enumerate(durations):
        cons.append((s, 0.0, 0, wp[s], None))
        cons.append((s, T, 0, wp[s + 1], None))
    for order in range(1, SNAP_ORDER):
        cons.append((0, 0.0, order, 0.0, None))
        cons.append((n_seg - 1, durations[-1], order, 0.0, None))
    for s in range(n_seg - 1):
        for order in range(1, SNAP_ORDER):
            cons.append((s, durations[s], order, None, s + 1))

    at_zero = [_deriv_row(0.0, order) for order in range(SNAP_ORDER)]
    eq_mat = np.zeros((len(cons), nvar))
    eq_vec = np.zeros((len(cons),) + wp.shape[1:])
    for k, (seg, tau, order, value, other) in enumerate(cons):
        row = at_zero[order] if tau == 0.0 else _deriv_row(tau, order)
        eq_mat[k, seg * ncoef : (seg + 1) * ncoef] = row
        if other is not None:
            eq_mat[k, other * ncoef : (other + 1) * ncoef] -= at_zero[order]
        if value is not None:
            eq_vec[k] = value

    return QuadraticProgram(cost=cost, eq_mat=eq_mat, eq_vec=eq_vec)


def solve_qp(qp: QuadraticProgram) -> np.ndarray:
    """Exact equality-constrained minimizer via the KKT linear system
    [[2 cost, eq_mat^T], [eq_mat, 0]], nonsingular (module docstring).

    A 2-D `eq_vec` is solved as one single-column system per column, stacked
    in one `np.linalg.solve` and bit-identical to solving them one by one;
    the result has one column per `eq_vec` column. Raises TrajectoryError
    when the system is singular, or when a column's solution x is not finite
    or misses the constraints A x = b by more than a backward-error bound:

        max |A x - b| <= RESIDUAL_TOL * (||A||_inf * max |x| + max |b|)

    Then x solves (A + dA) x = b + db exactly for some dA, db with
    ||dA||_inf <= RESIDUAL_TOL * ||A||_inf and max |db| <= RESIDUAL_TOL *
    max |b| (Rigal and Gaches), so the bound holds however large the
    coefficients of a fast or long piece grow. The message gives the
    largest absolute residual.
    """
    n, m = qp.cost.shape[0], qp.eq_mat.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = 2 * qp.cost
    kkt[:n, n:] = qp.eq_mat.T
    kkt[n:, :n] = qp.eq_mat
    eq_vec = qp.eq_vec.reshape(m, -1)  # (m, columns)
    rhs = np.zeros((eq_vec.shape[1], n + m, 1))
    rhs[:, n:, 0] = eq_vec.T
    try:
        sol = np.linalg.solve(kkt[None], rhs)
    except np.linalg.LinAlgError as exc:
        raise TrajectoryError(f"KKT system singular ({exc})") from None
    x = sol[:, :n, 0].T  # (n, columns)
    residual = np.max(np.abs(qp.eq_mat @ x - eq_vec), axis=0)
    norm_a = np.abs(qp.eq_mat).sum(axis=1).max()
    bound = RESIDUAL_TOL * (norm_a * np.abs(x).max(axis=0) + np.abs(eq_vec).max(axis=0))
    # a NaN fails the first test; an infinite solution the second
    if not (np.all(residual <= bound) and np.isfinite(bound).all()):
        raise TrajectoryError(f"constraints inconsistent (residual {np.max(residual):.3g})")
    return x[:, 0] if qp.eq_vec.ndim == 1 else x


@dataclass(frozen=True)
class PolynomialTrajectory:
    """Per-dimension piecewise polynomials in local segment time."""

    coeffs: np.ndarray  # (dims, segments, DEGREE+1)
    times: TimeAllocation

    @property
    def dims(self) -> int:
        return self.coeffs.shape[0]

    @property
    def total_time(self) -> float:
        return self.times.total

    def segments(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Segment index and local time of each sample time, with times
        clamped to [0, T]."""
        t = np.asarray(ts, dtype=float).clip(0.0, self.total_time)
        knots = self.times.knots
        # the last knot at or before t, never the final one: with t >= 0 this
        # is searchsorted(knots, t, "right") - 1 capped at the last segment
        idx = knots[1:-1].searchsorted(t, side="right")
        return idx, t - knots[idx]

    def eval_many(self, ts, order: int = 0) -> np.ndarray:
        """Values of the `order`-th derivative at each time, (len(ts), dims);
        times are clamped to [0, T]."""
        return _eval_common([self], ts, (order,))[1][0][0]

    def eval(self, t: float, order: int = 0) -> np.ndarray:
        """Value of the `order`-th derivative at time t (clamped to [0, T])."""
        return self.eval_many([t], order)[0]


def min_snap(waypoints, times: TimeAllocation) -> PolynomialTrajectory:
    """The minimum-snap trajectory through `waypoints`, (n,) or (n, dims),
    for every dimension, at rest at both ends: one rest-to-rest piece.

    One segment of duration T has a closed form: its 8 constraints fix the 8
    coefficients, so it is p0 + Δ (35 s^4 - 84 s^5 + 70 s^6 - 20 s^7) with
    s = t / T, and its velocity, acceleration and jerk are exactly zero at
    t = 0. A hold (Δ = 0) is exactly constant. More segments are solved by
    `solve_qp(build_qp(...))`. Raises TrajectoryError when the closed form's
    coefficients are not finite, or as `solve_qp` does.
    """
    wp = np.asarray(waypoints, dtype=float)
    if wp.ndim == 1:
        wp = wp[:, None]
    if wp.shape[0] != len(times.durations) + 1:
        raise ValueError("waypoint count must be segment count + 1")
    if wp.shape[0] > 2:
        x = solve_qp(build_qp(wp, times))  # (segments * (DEGREE+1), dims)
        return PolynomialTrajectory(x.T.reshape(wp.shape[1], -1, DEGREE + 1), times)
    # Python floats: an overflow gives inf or NaN, with no warning or error
    inv = 1.0 / times.total
    inv4 = inv * inv * inv * inv
    scale = (35.0 * inv4, -84.0 * inv4 * inv, 70.0 * inv4 * inv * inv, -20.0 * inv4 * inv * inv * inv)
    coeffs = np.array([[[p0, 0.0, 0.0, 0.0, *((p1 - p0) * k for k in scale)]] for p0, p1 in zip(*wp.tolist())])
    if not np.isfinite(coeffs).all():
        raise TrajectoryError("closed-form coefficients not finite")
    return PolynomialTrajectory(coeffs, times)


def qp_objective(traj: PolynomialTrajectory) -> float:
    """Integral of the squared snap over the trajectory."""
    total = 0.0
    for d in range(traj.dims):
        for s, T in enumerate(traj.times.durations):
            g = _snap_gram(float(T))
            c = traj.coeffs[d, s]
            total += float(c @ g @ c)
    return total


@dataclass(frozen=True)
class TrajectorySamples:
    """Equally spaced samples of position, velocity and acceleration, and
    the segment each sample lies in."""

    t: np.ndarray
    pos: np.ndarray  # (n, dims), or (robots, n, dims) from sample_common
    vel: np.ndarray
    acc: np.ndarray
    seg: np.ndarray  # (n,), or (robots, n) from sample_common


def _eval_common(
    trajs: Sequence[PolynomialTrajectory], ts: np.ndarray, orders: Sequence[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every trajectory at every time, in one pass: one segment lookup per
    trajectory, then one Horner recurrence over (orders, dims, robots,
    samples), samples on the contiguous axis.

    Each order's derivative coefficients c_j * j!/(j-order)! are padded with
    leading zeros, so its accumulator stays exactly 0 until the order's first
    real coefficient, and each value is bit for bit that order's own
    recurrence. Coefficients are gathered per sample only when some
    trajectory has more than one segment; otherwise each robot's single row
    is broadcast over the samples.

    Returns the segment index of each sample, (robots, samples), and per
    requested order the values, (robots, samples, dims).
    """
    segs, taus = zip(*(tr.segments(ts) for tr in trajs))
    seg, tau = np.array(segs), np.array(taus)
    if any(tr.coeffs.shape[1] > 1 for tr in trajs):
        rows = np.array([tr.coeffs[:, s] for tr, s in zip(trajs, seg)])  # (robots, dims, samples, DEGREE+1)
    else:
        rows = np.array([tr.coeffs[:, :1] for tr in trajs])  # (robots, dims, 1, DEGREE+1)
    coeffs = rows.transpose(3, 1, 0, 2)  # (DEGREE+1, dims, robots, samples or 1)
    padded = np.zeros((DEGREE + 1, len(orders), *coeffs.shape[1:]))
    for n, order in enumerate(orders):
        factors = np.array([_PERM[j][order] for j in range(order, DEGREE + 1)])
        padded[: DEGREE + 1 - order, n] = coeffs[order:] * factors[:, None, None, None]
    acc = np.zeros((len(orders), *coeffs.shape[1:3], tau.shape[1]))
    for j in range(DEGREE, -1, -1):
        acc *= tau
        acc += padded[j]
    return seg, [a.transpose(1, 2, 0) for a in acc]


def sample_common(trajs: Sequence[PolynomialTrajectory], dt: float) -> TrajectorySamples:
    """Sample every trajectory at t = 0, dt, ... and at the latest final
    time; a robot past its own final time holds its final position at rest."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    t_max = max(tr.total_time for tr in trajs)
    ts = np.arange(0.0, t_max, dt)
    if len(ts) == 0 or ts[-1] < t_max:
        ts = np.append(ts, t_max)
    seg, (pos, vel, acc) = _eval_common(trajs, ts, (0, 1, 2))
    done = ts > np.array([tr.total_time for tr in trajs])[:, None]
    vel[done] = 0.0
    acc[done] = 0.0
    return TrajectorySamples(t=ts, pos=pos, vel=vel, acc=acc, seg=seg)


def sample(traj: PolynomialTrajectory, dt: float) -> TrajectorySamples:
    """Sample at t = 0, dt, ..., including the final time."""
    s = sample_common([traj], dt)
    return TrajectorySamples(t=s.t, pos=s.pos[0], vel=s.vel[0], acc=s.acc[0], seg=s.seg[0])


@dataclass(frozen=True)
class Violation:
    """One feasibility failure found while sampling planned trajectories."""

    kind: str  # 'obstacle' | 'separation' | 'corridor'
    robot: int
    time: float
    other: int | None = None

    def describe(self) -> str:
        who = f"robots {self.robot}-{self.other}" if self.other is not None else f"robot {self.robot}"
        return f"{self.kind} {who} at t={self.time:.3f}"


@dataclass
class SmoothingProblem:
    """One robot's smoothing input; `repair` rewrites it into the execution
    schedule. Each segment's straight chord between its two waypoints is
    the reference for the corridor check."""

    robot: int
    waypoints: list[tuple[float, float]]
    durations: list[float]
    rest_indices: set[int] = field(default_factory=set)

    @classmethod
    def from_waypoints(cls, robot: int, waypoints, times: TimeAllocation) -> "SmoothingProblem":
        return cls(
            robot=robot,
            waypoints=[tuple(map(float, w)) for w in waypoints],
            durations=[float(d) for d in times.durations],
        )

    def solve(self) -> PolynomialTrajectory:
        return solve_problems([self])[0]


def solve_problems(problems: Sequence[SmoothingProblem]) -> list[PolynomialTrajectory]:
    """The minimum-snap trajectory of every problem.

    Interior rest waypoints split a problem into independent rest-to-rest
    pieces; `min_snap` solves each piece and their coefficients are joined.
    A non-finite waypoint raises ValueError naming its robot before any
    piece is solved; then the first piece, in problem order, that fails
    raises TrajectoryError.
    """
    checked = []
    for p in problems:
        durations = tuple(map(float, p.durations))
        wp = np.asarray(p.waypoints, dtype=float)
        if wp.shape[0] != len(durations) + 1:
            raise ValueError("waypoint count must be segment count + 1")
        if not np.isfinite(wp).all():
            raise ValueError(f"robot {p.robot}: waypoints must be finite")
        rests = sorted(r for r in p.rest_indices if 0 < r < len(wp) - 1)
        checked.append((wp, durations, [0, *rests, len(wp) - 1]))

    trajs = []
    for wp, durations, bounds in checked:
        coeffs = [
            min_snap(wp[lo : hi + 1], _time_allocation(durations[lo:hi])).coeffs
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        trajs.append(PolynomialTrajectory(np.concatenate(coeffs, axis=1), _time_allocation(durations)))
    return trajs


def _point_segment_distances(p, a, b) -> np.ndarray:
    """`paths.point_segment_distance` on arrays (..., 2) that broadcast, in
    the scalar's operation order with `math.hypot` per entry, so each
    distance equals the scalar's bit for bit."""
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    px, py, ax, ay, bx, by = p[..., 0], p[..., 1], a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    vx, vy = bx - ax, by - ay
    norm2 = vx * vx + vy * vy
    dot = (px - ax) * vx + (py - ay) * vy  # the broadcast shape of all three
    proj = np.divide(dot, norm2, out=np.zeros_like(dot), where=norm2 != 0)
    u = np.maximum(np.minimum(proj, 1.0), 0.0)  # max(0, min(1, proj))
    dx, dy = px - (ax + u * vx), py - (ay + u * vy)
    dist = np.fromiter(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()), float, dx.size)
    return dist.reshape(dx.shape)


def validate(
    samples: TrajectorySamples,
    grid: OccupancyGrid,
    problems: Sequence[SmoothingProblem],
    d_safe: float = 1.0,
    corridor_halfwidth: float = 1.0,
) -> list[Violation]:
    """Report the obstacle hits, separation losses and corridor departures
    of the problems' trajectories, sampled on a common grid by
    `sample_common`. Empty report = feasible.

    Distances are in meters (cell units times grid resolution); robots past
    their final time hold their final position.
    """
    res = grid.resolution
    pos = samples.pos

    # obstacle: the rounded cell is off the map or occupied (np.rint rounds
    # half to even, as round() does)
    cx, cy = np.rint(pos[..., 0]), np.rint(pos[..., 1])  # (robots, samples)
    hit = ~((cx >= 0) & (cx < grid.width) & (cy >= 0) & (cy < grid.height))
    inside = ~hit
    hit[inside] = ~grid.free_mask()[cy[inside].astype(np.intp), cx[inside].astype(np.intp)]

    # corridor: distance to the sample's own segment
    wps = [np.array(p.waypoints, dtype=float) for p in problems]
    ends = np.array([w[seg[:, None] + [0, 1]] for w, seg in zip(wps, samples.seg)])  # (robots, samples, 2 ends, 2)
    dist = _point_segment_distances(pos, ends[..., 0, :], ends[..., 1, :])
    off = ~hit & (dist * res > corridor_halfwidth + DIST_TOL)

    # per robot, by sample; an obstacle hit hides a corridor departure
    violations: list[Violation] = []
    times = samples.t.tolist()
    for r, n in zip(*(idx.tolist() for idx in np.nonzero(hit | off))):
        violations.append(Violation("obstacle" if hit[r, n] else "corridor", r, times[n]))

    # then each pair i < j at its deepest encroachment, not the first
    # crossing
    first, second = np.triu_indices(len(pos), 1)
    d = np.linalg.norm(pos[first] - pos[second], axis=2) * res  # (pairs, samples)
    bad = d < d_safe - DIST_TOL
    for k in np.flatnonzero(bad.any(axis=1)).tolist():
        worst = int(np.argmin(np.where(bad[k], d[k], np.inf)))
        violations.append(Violation("separation", int(first[k]), times[worst], other=int(second[k])))
    return violations


# slack for boundary-exact clearances: solver round-off must not flag a
# configuration that sits exactly on the safety limit
DIST_TOL = 1e-9


def _step_slots(a, b, d_safe: float, res: float) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Execution slots for one discrete step, each robot r moving a[r] -> b[r].

    Robots move one slot at a time, everyone else at rest at their start or
    end cell. r's segment within d_safe of q's start means q goes first; of
    q's end, r goes first. A topological sort (ties to the lower id) orders
    the moves, and each move takes the first slot after every earlier move
    it comes within d_safe of, so moves in one slot stay d_safe apart at any
    timing. A robot that holds its cell takes no slot, but its cell
    constrains the others like any start and end.

    Two segments come within d_safe when one does of an end of the other,
    or when they intersect.

    Returns the slots, or no slots and the pairs of a precedence cycle when
    no order exists (a swap, or a move past a held robot).
    """
    n = len(a)
    limit = d_safe - DIST_TOL
    cells = np.array([*a, *b], dtype=float)  # the starts, then the ends
    near = _point_segment_distances(cells, cells[:n, None], cells[n:, None]) * res < limit
    # near_start[r, q]: r's segment within d_safe of q's start; near_end, of q's end
    near_start, near_end = near[:, :n], near[:, n:]
    waits = near_start | near_end.T  # waits[r, q]: r waits for q
    np.fill_diagonal(waits, False)
    before = [{q for q, w in enumerate(row) if w} for row in waits.tolist()]  # before[r]: robots r waits for
    close = (near_start | near_end | near_start.T | near_end.T).tolist()  # an end of one within d_safe of the other

    order: list[int] = []
    left = set(range(n))
    while left:
        ready = [r for r in left if not before[r] & left]
        if not ready:
            # every robot left waits for another one left: walk back along
            # those waits until a robot repeats
            walk = [min(left)]
            while walk.count(walk[-1]) < 2:
                walk.append(min(before[walk[-1]] & left))
            cycle = walk[walk.index(walk[-1]) :]
            return [], sorted({(min(p), max(p)) for p in zip(cycle, cycle[1:])})
        order.append(min(ready))
        left.remove(order[-1])

    slot: dict[int, int] = {}
    for r in order:
        if a[r] != b[r]:
            slot[r] = 1 + max(
                (s for q, s in slot.items() if close[q][r] or segments_intersect(a[q], b[q], a[r], b[r])),
                default=-1,
            )
    slots: list[list[int]] = [[] for _ in range(max(slot.values(), default=-1) + 1)]
    for r, s in slot.items():
        slots[s].append(r)
    return slots, []


def repair(
    problems: Sequence[SmoothingProblem],
    steps: Sequence[Sequence[tuple[float, float]]],
    d_safe: float = 1.0,
    v_nominal: float = 1.0,
    resolution: float = 1.0,
) -> None:
    """Rewrite every problem in place into one schedule of the discrete
    `steps` (per robot, its cell at each step; all the same length).

    Each step's moves run rest-to-rest along their straight segments, slot
    by slot in the order `_step_slots` gives. A slot lasts as long as its
    longest move at `v_nominal` (at least `T_FLOOR`); a robot not moving
    holds its cell at rest. Every piece is then a lone rest-to-rest segment,
    which `min_snap` writes in closed form as p0 + Δ σ(t / T), one
    smoothstep σ for both coordinates: it is its chord by construction, and
    a hold is exactly constant. So every robot is, at every moment, on its
    own segment or at rest at a step's start or end cell.

    Guarantee: whenever every step has an order, each moving robot keeps
    d_safe from every other robot's position, and robots at rest sit on
    distinct cells. Precondition: d_safe <= resolution, so that distinct
    cells are d_safe apart. ICM keeps every move 1.0 cell from the robots it
    holds, so its steps satisfy it. When a step has no order, raises
    UnrepairableError naming the pairs that have none, at the time the step
    would start.
    """
    cells = [[tuple(map(float, c)) for c in s] for s in steps]
    waypoints = [s[:1] for s in cells]
    durations: list[list[float]] = [[] for _ in cells]
    held_since = [0.0] * len(cells)  # when each robot came to rest where it is
    t = 0.0
    for k in range(len(cells[0]) - 1):
        a = [s[k] for s in cells]
        b = [s[k + 1] for s in cells]
        slots, stuck = _step_slots(a, b, d_safe, resolution)
        if stuck:
            raise UnrepairableError(
                [Violation("separation", lo, t, other=hi) for lo, hi in stuck],
                "have no execution order",
            )
        for movers in slots:
            longest = max(math.hypot(b[r][0] - a[r][0], b[r][1] - a[r][1]) for r in movers)
            end = t + max(longest * resolution / v_nominal, T_FLOOR)
            for r in movers:
                if t > held_since[r]:
                    waypoints[r].append(a[r])
                    durations[r].append(t - held_since[r])
                waypoints[r].append(b[r])
                durations[r].append(end - t)
                held_since[r] = end
            t = end
    for r, prob in enumerate(problems):
        if not durations[r]:  # never moves: holds its cell for the whole schedule
            waypoints[r].append(waypoints[r][0])
            durations[r].append(max(t, T_FLOOR))
        prob.waypoints = waypoints[r]
        prob.durations = durations[r]
        prob.rest_indices = set(range(1, len(waypoints[r]) - 1))


def smooth_and_validate(
    problems: Sequence[SmoothingProblem],
    grid: OccupancyGrid,
    steps: Sequence[Sequence[tuple[float, float]]],
    d_safe: float = 1.0,
    corridor_halfwidth: float = 1.0,
    dt: float = 0.05,
    v_nominal: float = 1.0,
) -> tuple[TrajectorySamples, bool]:
    """Solve the problems, sample them every `dt` and validate the samples;
    if validation fails, `repair` rewrites the problems into the execution
    schedule of the discrete `steps`, which is solved, sampled and validated
    once more. Returns the validated samples and whether the schedule
    replaced the smoothed paths; violations that remain raise
    UnrepairableError."""
    samples = sample_common(solve_problems(problems), dt)
    if not validate(samples, grid, problems, d_safe, corridor_halfwidth):
        return samples, False
    repair(problems, steps, d_safe, v_nominal, grid.resolution)
    samples = sample_common(solve_problems(problems), dt)
    report = validate(samples, grid, problems, d_safe, corridor_halfwidth)
    if report:
        raise UnrepairableError(report)
    return samples, True
