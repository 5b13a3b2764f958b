"""Minimum-snap piecewise polynomial smoothing of pruned waypoint paths:
equality-constrained QP assembly and KKT solve, time allocation, sampling,
validation, and the execution schedule that replaces a horizon's smoothed
paths when they fail validation.

The problem is fixed: every segment is a polynomial of degree `DEGREE` (7)
and the cost is the integral of the squared `SNAP_ORDER`-th (4th)
derivative, snap (Mellinger & Kumar, ICRA 2011).

The executed-fraction work runs on arrays. `solve_problems` splits every
robot's problem at its rests into rest-to-rest pieces. A piece's cost and
constraints depend only on its segment durations, not on the waypoint
values or the dimension, so `_kkt_system` builds its KKT matrix once per
duration tuple and caches it. Every piece of one system size is then solved
in one stacked `np.linalg.solve`, one single-column system per piece and
dimension. `sample_common` and `validate` evaluate all robots in one pass:
one segment lookup per trajectory, then the Horner recurrence over every
robot's samples for each derivative order. `validate` then checks
obstacles, corridors and pair separation on whole arrays.

Every array path keeps the scalar arithmetic's operation order, so results
are bit-identical to a per-sample loop. These look equivalent but differ in
the last bit on some inputs (x86-64, AVX-512, numpy 2.4 with OpenBLAS), so
they are not used: `np.power(tau, k)` for Python `tau ** k`; one
`np.linalg.solve` with several right-hand-side columns for one solve per
column; `scipy.linalg.lu_factor`/`lu_solve` per column; and `np.hypot` for
`math.hypot`. A stacked batch of single-column systems, matrices
(k, n, n) against right-hand sides (k, n, 1), is solved matrix by matrix
and matches k separate solves exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import OccupancyGrid
from .paths import point_segment_distance, segments_intersect

DEGREE = 7
SNAP_ORDER = 4
T_FLOOR = 0.1
# largest equality-constraint residual `solve_qp` accepts
RESIDUAL_TOL = 1e-8


class TrajectoryError(RuntimeError):
    """QP assembly or solve failure (inconsistent or rank-deficient system)."""


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
        if np.any(d <= 0):
            raise ValueError("segment durations must be positive")
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
    if v_nominal <= 0:
        raise ValueError("v_nominal must be positive")
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


def _kkt_matrix(qp: QuadraticProgram, reg: float) -> np.ndarray:
    """[[2 cost + reg I, eq_mat^T], [eq_mat, 0]]"""
    n = qp.cost.shape[0]
    m = qp.eq_mat.shape[0]
    mat = np.zeros((n + m, n + m))
    mat[:n, :n] = 2 * qp.cost + reg * np.eye(n)
    mat[:n, n:] = qp.eq_mat.T
    mat[n:, :n] = qp.eq_mat
    return mat


@functools.lru_cache(maxsize=128)
def _kkt_system(durations: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """`build_qp`'s constraint matrix and `solve_qp`'s unregularised KKT
    matrix for these segment durations; neither depends on the waypoint
    values (read-only: shared by every piece with these durations)."""
    qp = build_qp(np.zeros(len(durations) + 1), _time_allocation(durations))
    kkt = _kkt_matrix(qp, 0.0)
    qp.eq_mat.setflags(write=False)
    kkt.setflags(write=False)
    return qp.eq_mat, kkt


def solve_qp(qp: QuadraticProgram) -> np.ndarray:
    """Exact equality-constrained minimizer via the KKT linear system.

    A tiny ridge (1e-9) is added to the cost's null directions when the
    plain system is singular. A 2-D `eq_vec` is solved column by column
    against one KKT matrix; the result has one column per `eq_vec` column.
    """
    n = qp.cost.shape[0]
    m = qp.eq_mat.shape[0]
    kkts: dict[float, np.ndarray] = {}

    def kkt(reg: float) -> np.ndarray:
        if reg not in kkts:
            kkts[reg] = _kkt_matrix(qp, reg)
        return kkts[reg]

    def solve_column(eq_vec: np.ndarray) -> np.ndarray:
        # one np.linalg.solve per column: a multi-column solve is not
        # bit-identical to single ones
        rhs = np.concatenate([np.zeros(n), eq_vec])
        sol = None
        for reg in (0.0, 1e-9):
            try:
                cand = np.linalg.solve(kkt(reg), rhs)
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(cand)):
                sol = cand
                break
        if sol is None:
            sol, *_ = np.linalg.lstsq(kkt(1e-9), rhs, rcond=None)
            if not np.all(np.isfinite(sol)):
                raise TrajectoryError("KKT system rank-deficient beyond regularization")
        x = sol[:n]
        residual = np.max(np.abs(qp.eq_mat @ x - eq_vec)) if m else 0.0
        if residual > RESIDUAL_TOL:
            raise TrajectoryError(f"constraints inconsistent (residual {residual:.3g})")
        return x

    if qp.eq_vec.ndim == 1:
        return solve_column(qp.eq_vec)
    return np.stack([solve_column(qp.eq_vec[:, c]) for c in range(qp.eq_vec.shape[1])], axis=1)


def _horner(coeffs: np.ndarray, tau, order: int) -> np.ndarray:
    """The `order`-th derivative of polynomials with monomial coefficients
    `coeffs` (..., DEGREE+1) at local times `tau`, which broadcast against
    `coeffs[..., 0]`: Horner's recurrence on the derivative coefficients."""
    # derivative coefficients c_j * j!/(j-order)!, all in one multiplication
    deriv = coeffs[..., order:] * np.array([_PERM[j][order] for j in range(order, DEGREE + 1)])
    acc = np.zeros(coeffs.shape[:-1])
    for j in range(DEGREE - order, -1, -1):
        acc *= tau
        acc += deriv[..., j]
    return acc


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
    for every dimension: one problem without rests for `solve_problems`."""
    wp = np.asarray(waypoints, dtype=float)
    if wp.ndim == 1:
        wp = wp[:, None]
    if wp.shape[0] < 2:
        raise ValueError("need at least two waypoints")
    problem = SmoothingProblem(0, list(map(tuple, wp.tolist())), times.durations.tolist())
    return solve_problems([problem])[0]


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
    """Equally spaced samples of position, velocity and acceleration."""

    t: np.ndarray
    pos: np.ndarray  # (n, dims), or (robots, n, dims) from sample_common
    vel: np.ndarray
    acc: np.ndarray


def _time_grid(trajs: Sequence[PolynomialTrajectory], dt: float) -> np.ndarray:
    """t = 0, dt, ... up to the latest final time, which is always included."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    t_max = max(tr.total_time for tr in trajs)
    ts = np.arange(0.0, t_max, dt)
    if len(ts) == 0 or ts[-1] < t_max:
        ts = np.append(ts, t_max)
    return ts


def _eval_common(
    trajs: Sequence[PolynomialTrajectory], ts: np.ndarray, orders: Sequence[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every trajectory at every time, in one pass: one segment lookup per
    trajectory, then the Horner recurrence over all robots for each order.

    Returns the segment index of each sample, (robots, samples), and per
    requested order the values, (robots, samples, dims).
    """
    segs, taus, coeffs = [], [], []
    for tr in trajs:
        seg, tau = tr.segments(ts)
        segs.append(seg)
        taus.append(tau)
        coeffs.append(tr.coeffs.transpose(1, 0, 2)[seg])  # (samples, dims, DEGREE+1)
    tau = np.array(taus)[:, :, None]
    coeffs = np.array(coeffs)
    return np.array(segs), [_horner(coeffs, tau, order) for order in orders]


def sample_common(trajs: Sequence[PolynomialTrajectory], dt: float) -> TrajectorySamples:
    """Sample every trajectory on one grid up to the latest final time; a
    robot past its own final time holds its final position at rest."""
    ts = _time_grid(trajs, dt)
    _, (pos, vel, acc) = _eval_common(trajs, ts, (0, 1, 2))
    done = ts > np.array([tr.total_time for tr in trajs])[:, None]
    vel[done] = 0.0
    acc[done] = 0.0
    return TrajectorySamples(t=ts, pos=pos, vel=vel, acc=acc)


def sample(traj: PolynomialTrajectory, dt: float) -> TrajectorySamples:
    """Sample at t = 0, dt, ..., including the final time."""
    s = sample_common([traj], dt)
    return TrajectorySamples(t=s.t, pos=s.pos[0], vel=s.vel[0], acc=s.acc[0])


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
    pieces; a lone rest-to-rest segment is its chord. A piece of k segments
    has a KKT system of size 13k + 3, cached by `_kkt_system` per duration
    tuple. Each size is solved in one stacked `np.linalg.solve`: one
    single-column system per piece and dimension, bit-identical to solving
    them one by one. A piece whose stack raises LinAlgError, or whose
    solution is not finite or misses a constraint by more than
    `RESIDUAL_TOL`, is solved again by `solve_qp(build_qp(...))`, which
    regularises the system or raises TrajectoryError.
    """
    ncoef = DEGREE + 1
    times: list[TimeAllocation] = []
    pieces: list[tuple[np.ndarray, tuple[float, ...]]] = []  # (waypoints, durations)
    first_piece = []  # index of each problem's first piece
    for p in problems:
        durations = tuple(map(float, p.durations))
        times.append(_time_allocation(durations))
        wp = np.asarray(p.waypoints, dtype=float)
        if wp.shape[0] != len(durations) + 1:
            raise ValueError("waypoint count must be segment count + 1")
        rests = sorted(r for r in p.rest_indices if 0 < r < len(wp) - 1)
        bounds = [0, *rests, len(wp) - 1]
        first_piece.append(len(pieces))
        pieces += [(wp[lo : hi + 1], durations[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    first_piece.append(len(pieces))

    by_size: dict[int, list[int]] = {}
    for i, (_, durations) in enumerate(pieces):
        by_size.setdefault(len(durations), []).append(i)
    coeffs: list[np.ndarray | None] = [None] * len(pieces)
    retry = []
    for k, members in by_size.items():
        n = ncoef * k
        kkts, eq_mats, rows = [], [], [0]  # one system per piece and dimension
        for i in members:
            eq_mat, kkt = _kkt_system(pieces[i][1])
            dims = pieces[i][0].shape[1]
            kkts += [kkt] * dims
            eq_mats += [eq_mat] * dims
            rows.append(rows[-1] + dims)
        rhs = np.zeros((rows[-1], kkts[0].shape[0], 1))
        for i, lo, hi in zip(members, rows, rows[1:]):
            wp = pieces[i][0]
            # eq_vec: each segment's two end waypoints, then zeros
            rhs[lo:hi, n : n + 2 * k : 2, 0] = wp[:-1].T
            rhs[lo:hi, n + 1 : n + 2 * k : 2, 0] = wp[1:].T
        try:
            sol = np.linalg.solve(np.stack(kkts), rhs)
        except np.linalg.LinAlgError:
            good = [False] * rows[-1]
        else:
            x = np.ascontiguousarray(sol[:, :n])
            # a non-finite piece fails the finiteness test below and is
            # solved again; its residual may warn, so silence that
            with np.errstate(invalid="ignore", over="ignore"):
                residual = np.max(np.abs(np.stack(eq_mats) @ x - rhs[:, n:]), axis=(1, 2))
            # `solve_qp`'s tests: finite, and no residual above the tolerance
            good = (np.all(np.isfinite(sol), axis=(1, 2)) & ~(residual > RESIDUAL_TOL)).tolist()
        for i, lo, hi in zip(members, rows, rows[1:]):
            if all(good[lo:hi]):
                coeffs[i] = x[lo:hi, :, 0].reshape(hi - lo, k, ncoef)
            else:
                retry.append(i)
    # in piece order, so the first piece that fails raises, as one by one
    for i in sorted(retry):
        wp, durations = pieces[i]
        x = solve_qp(build_qp(wp, _time_allocation(durations)))  # (n, dims)
        coeffs[i] = x.T.reshape(wp.shape[1], len(durations), ncoef)

    trajs = []
    for ta, lo, hi in zip(times, first_piece, first_piece[1:]):
        c = coeffs[lo] if hi - lo == 1 else np.concatenate(coeffs[lo:hi], axis=1)
        trajs.append(PolynomialTrajectory(c, ta))
    return trajs


def validate(
    trajs: Sequence[PolynomialTrajectory],
    grid: OccupancyGrid,
    problems: Sequence[SmoothingProblem],
    d_safe: float = 1.0,
    corridor_halfwidth: float = 1.0,
    dt: float = 0.05,
) -> list[Violation]:
    """Sample all trajectories on a common grid and report obstacle hits,
    separation losses and corridor departures. Empty report = feasible.

    Distances are in meters (cell units times grid resolution); robots past
    their final time hold their final position.
    """
    res = grid.resolution
    ts = _time_grid(trajs, dt)
    segs, (pos,) = _eval_common(trajs, ts, (0,))
    x, y = pos[..., 0], pos[..., 1]  # (robots, samples)

    # obstacle: the rounded cell is off the map or occupied (np.rint rounds
    # half to even, as round() does)
    cx, cy = np.rint(x), np.rint(y)
    hit = ~((cx >= 0) & (cx < grid.width) & (cy >= 0) & (cy < grid.height))
    inside = ~hit
    hit[inside] = ~grid.free_mask()[cy[inside].astype(np.intp), cx[inside].astype(np.intp)]

    # corridor: distance to the sample's own segment with
    # point_segment_distance's arithmetic; a zero-length segment gives the
    # distance to its point
    ends = np.array([
        np.array(p.waypoints, dtype=float)[seg[:, None] + [0, 1]]
        for p, seg in zip(problems, segs)
    ])  # (robots, samples, 2 ends, 2)
    ax, ay, bx, by = ends[..., 0, 0], ends[..., 0, 1], ends[..., 1, 0], ends[..., 1, 1]
    vx, vy = bx - ax, by - ay
    norm2 = vx * vx + vy * vy
    proj = np.divide((x - ax) * vx + (y - ay) * vy, norm2, out=np.zeros_like(norm2), where=norm2 != 0)
    u = np.clip(proj, 0.0, 1.0)
    dx, dy = x - (ax + u * vx), y - (ay + u * vy)
    dist = np.fromiter(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()), float, dx.size)
    off = ~hit & (dist.reshape(dx.shape) * res > corridor_halfwidth + DIST_TOL)

    # per robot, by sample; an obstacle hit hides a corridor departure
    violations: list[Violation] = []
    times = ts.tolist()
    for r, n in zip(*(idx.tolist() for idx in np.nonzero(hit | off))):
        violations.append(Violation("obstacle" if hit[r, n] else "corridor", r, times[n]))

    # then each pair i < j at its deepest encroachment, not the first
    # crossing
    first, second = np.triu_indices(len(trajs), 1)
    d = np.linalg.norm(pos[first] - pos[second], axis=2) * res  # (pairs, samples)
    bad = d < d_safe - DIST_TOL
    for k in np.flatnonzero(bad.any(axis=1)).tolist():
        worst = int(np.argmin(np.where(bad[k], d[k], np.inf)))
        violations.append(Violation("separation", int(first[k]), times[worst], other=int(second[k])))
    return violations


# slack for boundary-exact clearances: solver round-off must not flag a
# configuration that sits exactly on the safety limit
DIST_TOL = 1e-9


def _segment_gap(a, b, c, d) -> float:
    """Distance between the closed segments a-b and c-d."""
    if segments_intersect(a, b, c, d):
        return 0.0
    return min(
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )


def _step_slots(a, b, d_safe: float, res: float) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Execution slots for one discrete step, each robot r moving a[r] -> b[r].

    Robots move one slot at a time, everyone else at rest at their start or
    end cell. r's segment within d_safe of q's start means q goes first; of
    q's end, r goes first. A topological sort (ties to the lower id) orders
    the moves, and each move takes the first slot after every earlier move
    it comes within d_safe of, so moves in one slot stay d_safe apart at any
    timing. A robot that holds its cell takes no slot, but its cell
    constrains the others like any start and end.

    Returns the slots, or no slots and the pairs of a precedence cycle when
    no order exists (a swap, or a move past a held robot).
    """
    n = len(a)
    limit = d_safe - DIST_TOL

    def near(p, r):  # r's segment comes within d_safe of point p
        return point_segment_distance(p, a[r], b[r]) * res < limit

    before: list[set[int]] = [set() for _ in range(n)]  # before[r]: robots r waits for
    for r in range(n):
        for q in range(n):
            if q != r:
                if near(a[q], r):
                    before[r].add(q)
                if near(b[q], r):
                    before[q].add(r)

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
                (s for q, s in slot.items() if _segment_gap(a[q], b[q], a[r], b[r]) * res < limit),
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
    holds its cell at rest. A lone rest-to-rest segment is exactly its
    chord, so every robot is, at every moment, on its own segment or at rest
    at a step's start or end cell.

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
) -> tuple[list[PolynomialTrajectory], bool]:
    """Solve and validate the problems; if validation fails, `repair`
    rewrites them into the execution schedule of the discrete `steps`, which
    is solved and validated once more. Returns the trajectories and whether
    the schedule replaced the smoothed paths; violations that remain raise
    UnrepairableError."""
    trajs = solve_problems(problems)
    if not validate(trajs, grid, problems, d_safe, corridor_halfwidth, dt):
        return trajs, False
    repair(problems, steps, d_safe, v_nominal, grid.resolution)
    trajs = solve_problems(problems)
    report = validate(trajs, grid, problems, d_safe, corridor_halfwidth, dt)
    if report:
        raise UnrepairableError(report)
    return trajs, True
