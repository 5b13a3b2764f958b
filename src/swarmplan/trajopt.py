"""Minimum-snap piecewise polynomial smoothing of pruned waypoint paths:
equality-constrained QP assembly and KKT solve, time allocation, sampling,
and the validate/repair feasibility loop.

The executed-fraction work runs on arrays. `min_snap` builds one QP per
robot (cost and constraints do not depend on the dimension) and solves it
once per right-hand-side column. `sample_common` and `validate` evaluate all
robots in one pass: one segment lookup per trajectory, then the Horner
recurrence over every robot's samples for each derivative order. `validate`
then checks obstacles, corridors and pair separation on whole arrays.

Every array path keeps the scalar arithmetic's operation order, so results
are bit-identical to a per-sample loop. These look equivalent but differ in
the last bit on some inputs (x86-64, AVX-512, numpy 2.4 with OpenBLAS), so
they are not used: `np.power(tau, k)` for Python `tau ** k`; one
`np.linalg.solve` with several right-hand-side columns for one solve per
column; `scipy.linalg.lu_factor`/`lu_solve` per column; and `np.hypot` for
`math.hypot`. One KKT matrix with a separate `np.linalg.solve` per column
matches the per-dimension solves exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import OccupancyGrid
from .paths import point_segment_distance

DEFAULT_DEGREE = 7
SNAP_ORDER = 4
T_FLOOR = 0.1


class TrajectoryError(RuntimeError):
    """QP assembly or solve failure (inconsistent or rank-deficient system)."""


class UnrepairableError(TrajectoryError):
    """Validation violations persisted through the repair round limit.

    `violations` is the final report; the message names each one.
    """

    def __init__(self, violations: Sequence["Violation"], rounds: int):
        self.violations = list(violations)
        detail = "; ".join(v.describe() for v in self.violations)
        super().__init__(
            f"{len(self.violations)} violation(s) remain after {rounds} repair rounds: {detail}"
        )


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


def allocate_times(
    waypoints, v_nominal: float = 1.0, t_floor: float = T_FLOOR, resolution: float = 1.0
) -> TimeAllocation:
    """Constant-velocity traversal times, floored for degenerate segments."""
    wp = np.asarray(waypoints, dtype=float)
    if wp.shape[0] < 2:
        raise ValueError("need at least two waypoints")
    if v_nominal <= 0:
        raise ValueError("v_nominal must be positive")
    seg = np.linalg.norm(np.diff(wp, axis=0), axis=1) * resolution
    return TimeAllocation(durations=np.maximum(seg / v_nominal, t_floor))


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


@functools.lru_cache(maxsize=16)
def _perm_table(degree: int) -> tuple[tuple[float, ...], ...]:
    """`_perm(j, q)` for 0 <= j, q <= degree, indexed [j][q], as Python
    floats (scalar arithmetic on numpy floats is several times slower)."""
    return tuple(tuple(_perm(j, q) for q in range(degree + 1)) for j in range(degree + 1))


def _deriv_row(tau: float, degree: int, order: int) -> np.ndarray:
    # Python `**`, not np.power: the two differ in the last bit
    perm = _perm_table(degree)
    row = np.zeros(degree + 1)
    row[order:] = [perm[j][order] * tau ** (j - order) for j in range(order, degree + 1)]
    return row


@functools.lru_cache(maxsize=1024)
def _snap_gram(duration: float, degree: int, q: int) -> np.ndarray:
    """Closed-form integral of products of q-th derivative monomials
    (read-only: the array is shared by every caller with these arguments)."""
    perm = _perm_table(degree)
    g = np.zeros((degree + 1, degree + 1))
    for j in range(q, degree + 1):
        for l in range(q, degree + 1):
            p = j + l - 2 * q
            g[j, l] = perm[j][q] * perm[l][q] * duration ** (p + 1) / (p + 1)
    g.setflags(write=False)
    return g


def build_qp(
    waypoints,
    times: TimeAllocation,
    degree: int = DEFAULT_DEGREE,
    deriv_order: int = SNAP_ORDER,
) -> QuadraticProgram:
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
    if degree < 2 * deriv_order - 1:
        raise ValueError(f"degree must be >= {2 * deriv_order - 1} for order-{deriv_order} objective")

    ncoef = degree + 1
    nvar = ncoef * n_seg
    durations = [float(T) for T in times.durations]
    cost = np.zeros((nvar, nvar))
    for s, T in enumerate(durations):
        i = s * ncoef
        cost[i : i + ncoef, i : i + ncoef] = _snap_gram(T, degree, deriv_order)

    # (segment, local time, derivative order, value or None, next segment)
    cons = []
    for s, T in enumerate(durations):
        cons.append((s, 0.0, 0, wp[s], None))
        cons.append((s, T, 0, wp[s + 1], None))
    for order in range(1, deriv_order):
        cons.append((0, 0.0, order, 0.0, None))
        cons.append((n_seg - 1, durations[-1], order, 0.0, None))
    for s in range(n_seg - 1):
        for order in range(1, deriv_order):
            cons.append((s, durations[s], order, None, s + 1))

    at_zero = [_deriv_row(0.0, degree, order) for order in range(deriv_order)]
    eq_mat = np.zeros((len(cons), nvar))
    eq_vec = np.zeros((len(cons),) + wp.shape[1:])
    for k, (seg, tau, order, value, other) in enumerate(cons):
        row = at_zero[order] if tau == 0.0 else _deriv_row(tau, degree, order)
        eq_mat[k, seg * ncoef : (seg + 1) * ncoef] = row
        if other is not None:
            eq_mat[k, other * ncoef : (other + 1) * ncoef] -= at_zero[order]
        if value is not None:
            eq_vec[k] = value

    return QuadraticProgram(cost=cost, eq_mat=eq_mat, eq_vec=eq_vec)


def solve_qp(qp: QuadraticProgram, residual_tol: float = 1e-8) -> np.ndarray:
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
            mat = np.zeros((n + m, n + m))
            mat[:n, :n] = 2 * qp.cost + reg * np.eye(n)
            mat[:n, n:] = qp.eq_mat.T
            mat[n:, :n] = qp.eq_mat
            kkts[reg] = mat
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
        if residual > residual_tol:
            raise TrajectoryError(f"constraints inconsistent (residual {residual:.3g})")
        return x

    if qp.eq_vec.ndim == 1:
        return solve_column(qp.eq_vec)
    return np.stack([solve_column(qp.eq_vec[:, c]) for c in range(qp.eq_vec.shape[1])], axis=1)


def _horner(coeffs: np.ndarray, tau, order: int) -> np.ndarray:
    """The `order`-th derivative of polynomials with monomial coefficients
    `coeffs` (..., degree+1) at local times `tau`, which broadcast against
    `coeffs[..., 0]`: Horner's recurrence on the derivative coefficients."""
    degree = coeffs.shape[-1] - 1
    perm = _perm_table(degree)
    # derivative coefficients c_j * j!/(j-order)!, all in one multiplication
    deriv = coeffs[..., order:] * np.array([perm[j][order] for j in range(order, degree + 1)])
    acc = np.zeros(coeffs.shape[:-1])
    for j in range(degree - order, -1, -1):
        acc *= tau
        acc += deriv[..., j]
    return acc


@dataclass(frozen=True)
class PolynomialTrajectory:
    """Per-dimension piecewise polynomials in local segment time."""

    coeffs: np.ndarray  # (dims, segments, degree+1)
    times: TimeAllocation

    @property
    def dims(self) -> int:
        return self.coeffs.shape[0]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[2] - 1

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
        seg, tau = self.segments(ts)
        return _horner(self.coeffs[:, seg, :], tau, order).T

    def eval(self, t: float, order: int = 0) -> np.ndarray:
        """Value of the `order`-th derivative at time t (clamped to [0, T])."""
        return self.eval_many([t], order)[0]


def min_snap(
    waypoints,
    times: TimeAllocation,
    degree: int = DEFAULT_DEGREE,
    deriv_order: int = SNAP_ORDER,
) -> PolynomialTrajectory:
    """Solve the minimum-snap QP for every dimension (one build, one
    right-hand-side column per dimension) and assemble."""
    wp = np.asarray(waypoints, dtype=float)
    if wp.ndim == 1:
        wp = wp[:, None]
    if wp.shape[0] < 2:
        raise ValueError("need at least two waypoints")
    x = solve_qp(build_qp(wp, times, degree, deriv_order))  # (nvar, dims)
    coeffs = x.T.reshape(wp.shape[1], len(times.durations), degree + 1)
    return PolynomialTrajectory(coeffs=coeffs, times=times)


def qp_objective(traj: PolynomialTrajectory, deriv_order: int = SNAP_ORDER) -> float:
    """Integral of the squared `deriv_order` derivative over the trajectory."""
    total = 0.0
    for d in range(traj.dims):
        for s, T in enumerate(traj.times.durations):
            g = _snap_gram(float(T), traj.degree, deriv_order)
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
    requested order the values, (robots, samples, dims). The trajectories
    must share a degree.
    """
    segs, taus, coeffs = [], [], []
    for tr in trajs:
        seg, tau = tr.segments(ts)
        segs.append(seg)
        taus.append(tau)
        coeffs.append(tr.coeffs.transpose(1, 0, 2)[seg])  # (samples, dims, degree+1)
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
    segment: int | None = None
    other: int | None = None

    def describe(self) -> str:
        who = f"robots {self.robot}-{self.other}" if self.other is not None else f"robot {self.robot}"
        return f"{self.kind} {who} at t={self.time:.3f}"


@dataclass
class SmoothingProblem:
    """One robot's smoothing input, mutated by the repair loop.

    `chords` are the fixed pruned-path segments used for the corridor check;
    `chord_of_segment` maps each QP segment to its owning chord (segments
    inserted by repair keep the parent's chord).
    """

    robot: int
    waypoints: list[tuple[float, float]]
    durations: list[float]
    chords: list[tuple[tuple[float, float], tuple[float, float]]]
    chord_of_segment: list[int]
    rest_indices: set[int] = field(default_factory=set)

    @classmethod
    def from_waypoints(cls, robot: int, waypoints, times: TimeAllocation) -> "SmoothingProblem":
        wps = [tuple(map(float, w)) for w in waypoints]
        chords = [(wps[i], wps[i + 1]) for i in range(len(wps) - 1)]
        return cls(
            robot=robot,
            waypoints=wps,
            durations=[float(d) for d in times.durations],
            chords=chords,
            chord_of_segment=list(range(len(chords))),
        )

    def solve(self, degree: int = DEFAULT_DEGREE) -> PolynomialTrajectory:
        # interior rest waypoints split the solve into independent
        # rest-to-rest pieces; a lone rest-to-rest segment is its chord
        rests = sorted(r for r in self.rest_indices if 0 < r < len(self.waypoints) - 1)
        if not rests:
            return min_snap(self.waypoints, TimeAllocation(np.array(self.durations)), degree)
        bounds = [0, *rests, len(self.waypoints) - 1]
        coeff_chunks = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            piece = min_snap(
                self.waypoints[lo : hi + 1],
                TimeAllocation(np.array(self.durations[lo:hi])),
                degree,
            )
            coeff_chunks.append(piece.coeffs)
        return PolynomialTrajectory(
            np.concatenate(coeff_chunks, axis=1),
            TimeAllocation(np.array(self.durations)),
        )


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

    # corridor: distance to the sample's own chord with point_segment_distance's
    # arithmetic; a zero-length chord gives the distance to its point
    ends = np.array([
        np.array(p.chords, dtype=float)[np.asarray(p.chord_of_segment)[seg]]
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
    seg_of = segs.tolist()
    for r, n in zip(*(idx.tolist() for idx in np.nonzero(hit | off))):
        kind = "obstacle" if hit[r, n] else "corridor"
        violations.append(Violation(kind, r, times[n], segment=seg_of[r][n]))

    # then each pair i < j at its deepest encroachment, not the first
    # crossing: repair targets the segment active where the pair is closest
    first, second = np.triu_indices(len(trajs), 1)
    d = np.linalg.norm(pos[first] - pos[second], axis=2) * res  # (pairs, samples)
    bad = d < d_safe - DIST_TOL
    for k in np.flatnonzero(bad.any(axis=1)).tolist():
        worst = int(np.argmin(np.where(bad[k], d[k], np.inf)))
        violations.append(Violation("separation", int(first[k]), times[worst], other=int(second[k])))
    return violations


MAX_SEGMENT_SCALINGS = 5
MAX_REPAIR_ROUNDS = 10
# slack for boundary-exact clearances: solver round-off must not flag a
# configuration that sits exactly on the safety limit
DIST_TOL = 1e-9


def _shave_segment(
    prob: SmoothingProblem, seg: int, scale_counts: dict
) -> None:
    """Pull one segment toward its chord: shrink its duration by 0.8, and after
    five shrinks insert the chord midpoint as an interpolated waypoint."""
    chord = prob.chord_of_segment[seg]
    key = (prob.robot, chord)
    if scale_counts.get(key, 0) < MAX_SEGMENT_SCALINGS:
        prob.durations[seg] *= 0.8
        scale_counts[key] = scale_counts.get(key, 0) + 1
    else:
        a, b = prob.chords[chord]
        mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        half = prob.durations[seg] / 2.0
        prob.waypoints.insert(seg + 1, mid)
        prob.durations[seg : seg + 1] = [max(half, T_FLOOR), max(half, T_FLOOR)]
        prob.chord_of_segment[seg : seg + 1] = [chord, chord]
        prob.rest_indices = {r + 1 if r > seg else r for r in prob.rest_indices}
        scale_counts[key] = 0


def _closing_robot(trajs, v: Violation) -> int:
    """The robot of the violating pair that is moving toward the other at the
    violation time (slowing it staggers the pair apart). Later id on ties."""
    i, j = v.robot, v.other
    pi, pj = trajs[i].eval(v.time, 0), trajs[j].eval(v.time, 0)
    vi, vj = trajs[i].eval(v.time, 1), trajs[j].eval(v.time, 1)
    u = pj - pi
    norm = float(np.hypot(u[0], u[1]))
    if norm == 0:
        return max(i, j)
    u = u / norm
    closing_i = float(np.dot(vi, u))  # i chasing j
    closing_j = float(np.dot(vj, -u))  # j chasing i
    if closing_i == closing_j:
        return max(i, j)
    return i if closing_i > closing_j else j


def _parks_on_route(problems: Sequence[SmoothingProblem], i: int, j: int, d_safe: float) -> bool:
    """Robot i's final waypoint lies within d_safe of one of robot j's chords,
    so a parked i blocks j's route and i's arrival must be delayed."""
    p = problems[i].waypoints[-1]
    return any(point_segment_distance(p, a, b) < d_safe for a, b in problems[j].chords)


def _start_blocks_route(problems: Sequence[SmoothingProblem], i: int, j: int, d_safe: float) -> bool:
    """Robot i's start lies within d_safe of robot j's chords, so j must wait
    for i to depart before entering that stretch."""
    p = problems[i].waypoints[0]
    return any(point_segment_distance(p, a, b) < d_safe for a, b in problems[j].chords)


def _hold_at_start(prob: SmoothingProblem, duration: float) -> None:
    """Delay a robot by parking it at its start before it moves, instead of
    slowing it down: the start cell is safe, crawling through a conflict
    zone is not."""
    w0 = prob.waypoints[0]
    if len(prob.waypoints) > 1 and prob.waypoints[1] == w0:
        prob.durations[0] += duration
        return
    prob.waypoints.insert(1, w0)
    prob.durations.insert(0, duration)
    prob.chords.insert(0, (w0, w0))
    prob.chord_of_segment = [0] + [c + 1 for c in prob.chord_of_segment]
    prob.rest_indices = {r + 1 for r in prob.rest_indices} | {1}


def repair(
    problems: Sequence[SmoothingProblem],
    violations: Sequence[Violation],
    scale_counts: dict,
    trajs: Sequence[PolynomialTrajectory],
    d_safe: float = 1.0,
) -> set[int]:
    """Apply one repair round in place; returns the indices of the problems
    it changed.

    Corridor violations shrink the offending segment's duration by 0.8; after
    five shrinks the chord midpoint is inserted as a waypoint. Separation
    violations read `trajs` at the violation time: a robot that has drifted
    off its chord is pinned to it; otherwise one robot of the pair, by
    default the one closing the gap, is delayed: its durations scale by 1.25,
    or it holds at its start when one robot parks on or starts in the
    other's route.
    """
    changed: set[int] = set()
    corridor_done: set[tuple[int, int]] = set()
    pairs_done: set[tuple] = set()
    staggered: set[int] = set()
    for v in violations:
        if v.kind in ("corridor", "obstacle"):
            prob = problems[v.robot]
            chord = prob.chord_of_segment[v.segment]
            key = (v.robot, chord)
            if key in corridor_done:
                continue
            corridor_done.add(key)
            _shave_segment(prob, v.segment, scale_counts)
            changed.add(v.robot)
        elif v.kind == "separation":
            lo, hi = min(v.robot, v.other), max(v.robot, v.other)
            pair = ("pair", lo, hi)
            if pair in pairs_done:
                continue
            pairs_done.add(pair)

            # geometric case: a robot has drifted off its own chord at the
            # violation time (corner bulge), encroaching on a lane that is
            # safe chord-to-chord — pin the drifting robot's active
            # segment to its exact chord with full stops at its endpoints
            seg_of = {}
            dev = {}
            for r in (lo, hi):
                s = int(trajs[r].segments([v.time])[0][0])
                seg_of[r] = s
                chord = problems[r].chords[problems[r].chord_of_segment[s]]
                dev[r] = point_segment_distance(tuple(trajs[r].eval(v.time, 0)), *chord)
            worst = max((lo, hi), key=lambda r: dev[r])
            if dev[worst] > 0.01:
                prob = problems[worst]
                seg = seg_of[worst]
                rests = {r for r in (seg, seg + 1) if 0 < r < len(prob.waypoints) - 1}
                if rests - prob.rest_indices:
                    prob.rest_indices |= rests
                else:
                    _shave_segment(prob, seg, scale_counts)
                changed.add(worst)
                continue

            # timing conflict: stagger the pair by slowing exactly one robot,
            # and keep slowing that same robot on recurrence so the stagger
            # accumulates instead of oscillating between the two
            if pair in scale_counts:
                prev, tries, sticky = scale_counts[pair]
                if sticky or tries < 4:
                    mover = prev
                    scale_counts[pair] = (prev, tries + 1, sticky)
                else:
                    mover = hi if prev == lo else lo
                    scale_counts[pair] = (mover, 0, False)
            else:
                lo_parks = _parks_on_route(problems, lo, hi, d_safe)
                hi_parks = _parks_on_route(problems, hi, lo, d_safe)
                lo_blocks = _start_blocks_route(problems, lo, hi, d_safe)
                hi_blocks = _start_blocks_route(problems, hi, lo, d_safe)
                sticky = True
                if lo_parks and not hi_parks:
                    mover = lo  # lo ends up on hi's route: delay its arrival
                elif hi_parks and not lo_parks:
                    mover = hi
                elif lo_blocks and not hi_blocks:
                    mover = hi  # hi's route passes lo's start: hi waits
                elif hi_blocks and not lo_blocks:
                    mover = lo
                else:
                    mover = _closing_robot(trajs, v)
                    sticky = False
                scale_counts[pair] = (mover, 0, sticky)
            if mover in staggered:
                continue
            staggered.add(mover)
            other = hi if mover == lo else lo
            if _parks_on_route(problems, mover, other, d_safe) or _start_blocks_route(
                problems, other, mover, d_safe
            ):
                _hold_at_start(problems[mover], 0.5 * sum(problems[other].durations))
            else:
                problems[mover].durations = [d * 1.25 for d in problems[mover].durations]
            changed.add(mover)
    return changed


def smooth_and_validate(
    problems: Sequence[SmoothingProblem],
    grid: OccupancyGrid,
    d_safe: float = 1.0,
    corridor_halfwidth: float = 1.0,
    dt: float = 0.05,
    max_rounds: int = MAX_REPAIR_ROUNDS,
    degree: int = DEFAULT_DEGREE,
) -> list[PolynomialTrajectory]:
    """Solve, validate, and repair until feasible or the round limit. After
    a repair round only the problems it changed are solved again: `solve`
    depends on nothing else, so every other trajectory stands."""
    scale_counts: dict = {}
    trajs = [None] * len(problems)
    todo = range(len(problems))
    for _ in range(max_rounds + 1):
        for i in todo:
            trajs[i] = problems[i].solve(degree)
        report = validate(trajs, grid, problems, d_safe, corridor_halfwidth, dt)
        if not report:
            return trajs
        todo = repair(problems, report, scale_counts, trajs, d_safe)
    raise UnrepairableError(report, max_rounds)
