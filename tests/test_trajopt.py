"""Trajectory optimization tests: time allocation, the minimum-snap QP
against closed-form and quadrature oracles, derivative continuity, sampling,
validation of crafted infeasible plans, and the execution schedule that
repair builds from discrete steps."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from swarmplan import trajopt
from swarmplan.fields import GoalParams, InteractionParams, build_goal_field
from swarmplan.grid import Cell, OccupancyGrid, disk_offsets
from swarmplan.mrf import OptimizeConfig, make_state, optimize
from swarmplan.paths import line_of_sight, point_segment_distance, segments_intersect, supercover_cells
from swarmplan.trajopt import (
    DIST_TOL,
    PolynomialTrajectory,
    QuadraticProgram,
    SmoothingProblem,
    TimeAllocation,
    TrajectorySamples,
    UnrepairableError,
    Violation,
    _PERM,
    _perm,
    _point_segment_distances,
    _snap_gram,
    _step_slots,
    allocate_times,
    build_qp,
    min_snap,
    qp_objective,
    repair,
    sample,
    sample_common,
    smooth_and_validate,
    solve_qp,
    validate,
)


def free_grid(w=40, h=40):
    return OccupancyGrid(prob=np.zeros((h, w)), resolution=1.0)


def test_time_allocation_knots_and_total():
    ta = TimeAllocation(durations=np.array([1.0, 2.0, 0.5]))
    assert np.allclose(ta.knots, [0.0, 1.0, 3.0, 3.5])
    assert ta.total == pytest.approx(3.5)


def test_time_allocation_caches_exact_knots_and_total():
    d = np.random.default_rng(3).uniform(0.1, 3.0, 20)
    ta = TimeAllocation(durations=d)
    assert np.array_equal(ta.knots, np.concatenate([[0.0], np.cumsum(d)]))
    # the pairwise np.sum, not the running cumsum's last knot (they differ
    # in the last bit for these durations)
    assert type(ta.total) is float and ta.total == float(np.sum(d))
    assert ta.total != ta.knots[-1]
    assert not ta.knots.flags.writeable
    with pytest.raises(ValueError):
        ta.knots[0] = 1.0


@pytest.mark.parametrize("durations", [[], [0.0], [1.0, -2.0], [math.nan], [1.0, math.inf]])
def test_time_allocation_validation(durations):
    with pytest.raises(ValueError):
        TimeAllocation(durations=np.array(durations))


def test_allocate_times_constant_velocity():
    ta = allocate_times([(0, 0), (3, 4), (3, 10)], v_nominal=2.0)
    assert np.allclose(ta.durations, [2.5, 3.0])


def test_allocate_times_floor_for_degenerate_segment():
    ta = allocate_times([(1, 1), (1, 1)], v_nominal=1.0)
    assert ta.durations[0] == pytest.approx(0.1)


def test_allocate_times_validation():
    with pytest.raises(ValueError):
        allocate_times([(0, 0)], v_nominal=1.0)
    with pytest.raises(ValueError):
        allocate_times([(0, 0), (1, 0)], v_nominal=0.0)
    with pytest.raises(ValueError, match="waypoints must be"):
        allocate_times([(0, 0, 0), (1, 0, 0)], v_nominal=1.0)


def test_rest_to_rest_unit_segment_closed_form():
    # [DERIVED] the degree-7 minimum-snap polynomial from rest at 0 to rest
    # at 1 over T=1 is the unique degree-7 interpolant with zero derivatives
    # 1..3 at both ends: 35 t^4 - 84 t^5 + 70 t^6 - 20 t^7.
    traj = min_snap(np.array([0.0, 1.0]), TimeAllocation(np.array([1.0])))
    expected = np.array([0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0])
    assert np.allclose(traj.coeffs[0, 0], expected, atol=1e-6)


def test_rest_to_rest_hits_endpoints_and_rest_derivs():
    traj = min_snap(
        np.array([[2.0, 3.0], [7.0, -1.0]]), TimeAllocation(np.array([2.0]))
    )
    assert np.allclose(traj.eval(0.0), [2.0, 3.0], atol=1e-9)
    assert np.allclose(traj.eval(2.0), [7.0, -1.0], atol=1e-9)
    for order in (1, 2, 3):
        assert np.allclose(traj.eval(0.0, order), 0.0, atol=1e-7)
        assert np.allclose(traj.eval(2.0, order), 0.0, atol=1e-7)


def test_interior_continuity_on_random_problems():
    # [DERIVED] derivatives 0..4 must agree across interior knots.
    rng = np.random.default_rng(17)
    for _ in range(10):
        wp = rng.uniform(-5, 5, size=(5, 2))
        ta = TimeAllocation(rng.uniform(0.5, 2.0, size=4))
        traj = min_snap(wp, ta)
        for knot in ta.knots[1:-1]:
            for order in range(5):
                before = traj.eval(knot - 1e-9, order)
                after = traj.eval(knot + 1e-9, order)
                assert np.allclose(before, after, atol=1e-6), (knot, order)


def test_waypoints_interpolated():
    rng = np.random.default_rng(23)
    wp = rng.uniform(0, 10, size=(5, 2))
    ta = TimeAllocation(rng.uniform(0.5, 2.0, size=4))
    traj = min_snap(wp, ta)
    for w, t in zip(wp, ta.knots):
        assert np.allclose(traj.eval(t), w, atol=1e-7)


def test_qp_objective_matches_simpson_quadrature():
    # [DERIVED] oracle: numerically integrate the squared fourth derivative
    # with Simpson's rule on a dense grid.
    rng = np.random.default_rng(31)
    wp = rng.uniform(-3, 3, size=(5, 2))
    ta = TimeAllocation(rng.uniform(0.8, 1.6, size=4))
    traj = min_snap(wp, ta)
    obj = qp_objective(traj)
    ts = np.linspace(0.0, ta.total, 20001)
    snap2 = np.array([float(np.sum(traj.eval(t, 4) ** 2)) for t in ts])
    quad = float(simpson(snap2, x=ts))
    assert obj == pytest.approx(quad, rel=1e-6, abs=1e-6)


def test_min_snap_beats_arbitrary_interpolant():
    # The optimizer's objective can be no worse than a hand-built degree-7
    # interpolant through the same waypoints (here: two clamped splines
    # joined with matching derivatives via an alternative solve).
    wp = np.array([0.0, 1.0, 0.5])
    ta = TimeAllocation(np.array([1.0, 1.0]))
    traj = min_snap(wp, ta)
    # alternative: force a rest at the middle waypoint (extra constraints
    # can only increase the optimum)
    prob = SmoothingProblem.from_waypoints(0, [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)], ta)
    prob.rest_indices = {1}
    rested = prob.solve()
    assert qp_objective(traj) <= qp_objective(rested) + 1e-9


def test_sample_grid_includes_endpoints():
    traj = min_snap(np.array([0.0, 1.0]), TimeAllocation(np.array([1.0])))
    s = sample(traj, dt=0.3)
    assert s.t[0] == 0.0
    assert s.t[-1] == pytest.approx(1.0)
    assert s.pos.shape == (len(s.t), 1)
    with pytest.raises(ValueError):
        sample(traj, dt=0.0)


def test_eval_clamps_outside_domain():
    traj = min_snap(np.array([0.0, 1.0]), TimeAllocation(np.array([1.0])))
    assert np.allclose(traj.eval(-5.0), traj.eval(0.0))
    assert np.allclose(traj.eval(99.0), traj.eval(1.0))


def horner_reference(traj, t, order):
    """Scalar clamp, segment lookup and Horner recurrence, one sample at a time."""
    t = min(max(t, 0.0), traj.total_time)
    knots = traj.times.knots
    seg = int(np.searchsorted(knots, t, side="right")) - 1
    seg = min(max(seg, 0), len(traj.times.durations) - 1)
    tau = t - knots[seg]
    out = np.zeros(traj.dims)
    for d in range(traj.dims):
        acc = 0.0
        for j in range(7, order - 1, -1):
            perm = math.perm(j, order)
            acc = acc * tau + traj.coeffs[d, seg, j] * float(perm)
        out[d] = acc
    return out


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_eval_many_matches_scalar_horner_exactly(order):
    rng = np.random.default_rng(7)
    wps = rng.uniform(-5.0, 5.0, size=(5, 2))
    traj = min_snap(wps, allocate_times(wps, v_nominal=1.3))
    knots = traj.times.knots
    mids = (knots[:-1] + knots[1:]) / 2
    ts = np.concatenate([knots, mids, [-1.0, -1e-12, traj.total_time + 1e-12, 50.0]])
    ts = np.concatenate([ts, rng.uniform(0.0, traj.total_time, 40)])
    got = traj.eval_many(ts, order)
    want = np.array([horner_reference(traj, t, order) for t in ts])
    assert got.shape == (len(ts), 2)
    assert np.array_equal(got, want)
    for t, row in zip(ts, want):
        assert np.array_equal(traj.eval(t, order), row)


@pytest.mark.parametrize("segments", [(1, 1, 1), (1, 4, 2), (3, 3)])
def test_sample_common_matches_scalar_horner_exactly(segments):
    # one-segment robots broadcast their coefficients, and a call with any
    # longer trajectory gathers them per sample; both equal the scalar path
    rng = np.random.default_rng(len(segments) + sum(segments))
    trajs = []
    for n in segments:
        wps = rng.uniform(-5.0, 5.0, size=(n + 1, 2))
        trajs.append(min_snap(wps, allocate_times(wps, v_nominal=float(rng.uniform(0.8, 2.0)))))
    s = sample_common(trajs, 0.05)
    for r, traj in enumerate(trajs):
        for order, got in enumerate((s.pos, s.vel, s.acc)):
            want = np.array([horner_reference(traj, t, order) for t in s.t])
            if order:
                want[s.t > traj.total_time] = 0.0
            assert got[r].tobytes() == want.tobytes()


def test_segments_on_knots_and_outside_domain():
    traj = min_snap(np.array([0.0, 1.0, 3.0]), TimeAllocation(np.array([1.0, 2.0])))
    seg, tau = traj.segments([-1.0, 0.0, 0.5, 1.0, 2.5, 3.0, 7.0])
    assert seg.tolist() == [0, 0, 0, 1, 1, 1, 1]
    assert np.allclose(tau, [0.0, 0.0, 0.5, 0.0, 1.5, 2.0, 2.0])


def make_problem(robot, waypoints, v=1.0):
    ta = allocate_times(waypoints, v_nominal=v)
    return SmoothingProblem.from_waypoints(robot, waypoints, ta)


def test_rest_pinned_segment_is_exact_chord():
    # Pinning both ends of an interior segment at rest makes that piece the
    # straight chord between its waypoints.
    prob = make_problem(0, [(0.0, 0.0), (4.0, 0.0), (8.0, 4.0), (12.0, 4.0)])
    prob.rest_indices = {1, 2}
    traj = prob.solve()
    knots = TimeAllocation(np.array(prob.durations)).knots
    from swarmplan.paths import point_segment_distance

    for t in np.linspace(knots[1], knots[2], 21):
        p = traj.eval(t)
        # geometrically on the chord (time profile is smooth, not linear)
        assert point_segment_distance(p, (4.0, 0.0), (8.0, 4.0)) < 1e-7
    assert np.allclose(traj.eval(knots[1]), [4.0, 0.0], atol=1e-7)
    assert np.allclose(traj.eval(knots[2]), [8.0, 4.0], atol=1e-7)


def test_validate_clean_plan_is_empty():
    probs = [
        make_problem(0, [(2.0, 2.0), (10.0, 2.0)]),
        make_problem(1, [(2.0, 8.0), (10.0, 8.0)]),
    ]
    trajs = [p.solve() for p in probs]
    assert validate(sample_common(trajs, 0.05), free_grid()) == []


def test_validate_detects_obstacle_hit():
    prob = np.zeros((20, 20))
    prob[5, 10] = 1.0  # cell (10, 5)
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    p = make_problem(0, [(5.0, 5.0), (15.0, 5.0)])
    report = validate(sample_common([p.solve()], 0.05), grid)
    assert any(v.kind == "obstacle" and v.robot == 0 for v in report)


def test_validate_detects_separation_loss():
    probs = [
        make_problem(0, [(0.0, 5.0), (12.0, 5.0)]),
        make_problem(1, [(12.0, 5.2), (0.0, 5.2)]),
    ]
    trajs = [p.solve() for p in probs]
    report = validate(sample_common(trajs, 0.05), free_grid(), d_safe=1.0)
    seps = [v for v in report if v.kind == "separation"]
    assert seps and seps[0].robot == 0 and seps[0].other == 1


def test_validate_reports_separation_at_deepest_point():
    probs = [
        make_problem(0, [(0.0, 5.0), (12.0, 5.0)]),
        make_problem(1, [(12.0, 5.0), (0.0, 5.0)]),
    ]
    trajs = [p.solve() for p in probs]
    report = validate(sample_common(trajs, 0.05), free_grid(), d_safe=1.0)
    v = next(v for v in report if v.kind == "separation")
    # head-on symmetric pass: the deepest point is mid-crossing
    d_at = np.linalg.norm(trajs[0].eval(v.time) - trajs[1].eval(v.time))
    assert d_at < 0.5


def test_validate_holds_final_position_for_finished_robot():
    probs = [
        make_problem(0, [(2.0, 2.0), (4.0, 2.0)]),       # finishes early
        make_problem(1, [(2.0, 8.0), (30.0, 8.0)], v=1.0),
    ]
    trajs = [p.solve() for p in probs]
    assert validate(sample_common(trajs, 0.05), free_grid()) == []


def test_smooth_and_validate_resolves_crossing():
    # perpendicular routes whose midpoints meet simultaneously
    probs = [
        make_problem(0, [(0.0, 5.0), (12.0, 5.0)]),
        make_problem(1, [(6.0, 0.0), (6.0, 12.0)]),
    ]
    samples, scheduled = smooth_and_validate(probs, free_grid(), [p.waypoints for p in probs])
    assert scheduled
    assert validate(samples, free_grid()) == []


def test_smooth_and_validate_raises_for_parked_overlap():
    # Two robots parked 0.5 apart can never be separated by retiming.
    probs = [
        make_problem(0, [(5.0, 5.0), (5.0, 5.0)]),
        make_problem(1, [(5.5, 5.0), (5.5, 5.0)]),
    ]
    with pytest.raises(UnrepairableError) as info:
        smooth_and_validate(probs, free_grid(), [p.waypoints for p in probs])
    err = info.value
    assert err.violations
    assert all(v.kind == "separation" and (v.robot, v.other) == (0, 1) for v in err.violations)
    msg = str(err)
    assert f"{len(err.violations)} violation(s)" in msg
    for v in err.violations:
        assert f"separation robots 0-1 at t={v.time:.3f}" in msg


def test_repair_names_a_swap_that_has_no_order():
    steps = [[(3.0, 3.0), (4.0, 3.0)], [(4.0, 3.0), (3.0, 3.0)]]
    probs = [make_problem(r, cells) for r, cells in enumerate(steps)]
    with pytest.raises(UnrepairableError) as info:
        repair(probs, steps)
    err = info.value
    assert [(v.kind, v.robot, v.other, v.time) for v in err.violations] == [("separation", 0, 1, 0.0)]
    assert str(err) == "1 violation(s) have no execution order: separation robots 0-1 at t=0.000"


def sweep_order_schedule(steps):
    """One step executed in id order, one robot at a time, as ICM's sweep
    moved them: rest-to-rest moves of 1 s, holds in between."""
    n = len(steps)
    probs = []
    for r, (a, b) in enumerate(steps):
        wps = [a] * (r > 0) + [a, b] + [b] * (r < n - 1)
        durs = [float(r)] * (r > 0) + [1.0] + [float(n - 1 - r)] * (r < n - 1)
        prob = SmoothingProblem.from_waypoints(r, wps, TimeAllocation(np.array(durs)))
        prob.rest_indices = set(range(1, len(wps) - 1))
        probs.append(prob)
    return probs


def test_repair_orders_a_step_that_sweep_order_breaks():
    # ICM moved robot 0 first, with robot 1 held 1.41 away; robot 1's move
    # then crosses no moved segment but passes 0.45 from robot 0's new cell
    steps = [[(1.0, 2.0), (1.0, 1.0)], [(0.0, 0.0), (2.0, 1.0)]]
    swept = sweep_order_schedule(steps)
    report = validate(sample_common([p.solve() for p in swept], 0.05), free_grid())
    assert [(v.kind, v.robot, v.other) for v in report] == [("separation", 0, 1)]

    probs = [make_problem(r, cells) for r, cells in enumerate(steps)]
    repair(probs, steps)
    # robot 1 goes first while robot 0 holds its start, then robot 0 moves
    assert probs[0].waypoints == [(1.0, 2.0), (1.0, 2.0), (1.0, 1.0)]
    assert probs[1].waypoints == [(0.0, 0.0), (2.0, 1.0)]
    assert validate(sample_common([p.solve() for p in probs], 0.05), free_grid()) == []


def test_repair_moves_apart_robots_in_one_slot():
    # far-apart moves share a slot; a robot that never moves holds its cell
    steps = [[(0.0, 0.0), (2.0, 0.0)], [(0.0, 10.0), (1.0, 10.0)], [(9.0, 9.0), (9.0, 9.0)]]
    probs = [make_problem(r, cells) for r, cells in enumerate(steps)]
    repair(probs, steps, v_nominal=2.0)
    assert [p.waypoints for p in probs] == steps
    assert [p.durations for p in probs] == [[1.0], [1.0], [1.0]]


def test_schedule_pieces_stay_on_their_segments():
    rng = np.random.default_rng(7)
    # five robots on a 4-cell-spaced lattice, three steps of single-cell moves
    steps = []
    for r in range(5):
        cell = np.array([5.0 + 4.0 * r, 5.0 + 4.0 * (r % 2)])
        path = [tuple(cell)]
        for _ in range(3):
            cell = cell + rng.integers(-1, 2, 2)
            path.append(tuple(cell + 0.0))
        steps.append(path)
    probs = [make_problem(r, cells) for r, cells in enumerate(steps)]
    repair(probs, steps, resolution=1.0)
    trajs = [p.solve() for p in probs]
    for prob, traj in zip(probs, trajs):
        assert len(prob.rest_indices) == len(prob.waypoints) - 2  # every joint is a rest
        ts = np.linspace(0.0, traj.total_time, 2001)
        segs, _ = traj.segments(ts)
        for seg, pos in zip(segs.tolist(), traj.eval_many(ts)):
            a, b = prob.waypoints[seg], prob.waypoints[seg + 1]
            assert point_segment_distance(tuple(pos), a, b) <= 1e-9
    assert validate(sample_common(trajs, 0.05), free_grid()) == []


@pytest.mark.parametrize("steps, repaired", [
    # two crossing routes: validation fails once, repair runs once
    ([[(0.0, 5.0), (12.0, 5.0)], [(6.0, 0.0), (6.0, 12.0)]], True),
    # two routes far apart: validation passes, no repair
    ([[(0.0, 5.0), (12.0, 5.0)], [(0.0, 20.0), (12.0, 20.0)]], False),
])
def test_smooth_and_validate_repairs_at_most_once(steps, repaired, monkeypatch):
    # recorded where smooth_and_validate solves: one solve_problems call per
    # pass over every problem
    solved = []
    real_solve = trajopt.solve_problems

    def recording_solve(problems):
        solved.extend((p.robot, list(p.waypoints), list(p.durations)) for p in problems)
        return real_solve(problems)

    repairs = []
    real_repair = trajopt.repair

    def counting_repair(*args, **kwargs):
        repairs.append(len(solved))
        return real_repair(*args, **kwargs)

    monkeypatch.setattr(trajopt, "solve_problems", recording_solve)
    monkeypatch.setattr(trajopt, "repair", counting_repair)
    probs = [make_problem(r, cells) for r, cells in enumerate(steps)]
    samples, scheduled = smooth_and_validate(probs, free_grid(), steps)
    assert scheduled == repaired
    assert len(repairs) == int(repaired)
    if repaired:
        # every repaired problem is solved once, as repair left it
        assert repairs == [len(probs)]
        after = [(p.robot, p.waypoints, p.durations) for p in probs]
        assert solved[len(probs):] == after
    assert len(solved) == len(probs) * (1 + repaired)
    assert validate(samples, free_grid()) == []


def precedence(a, b, d_safe, res):
    """(q, r) for every pair where q's move must come before r's: r's
    segment within d_safe of q's start, or q's segment of r's end."""
    edges = set()
    for r in range(len(a)):
        for q in range(len(a)):
            if q != r:
                if point_segment_distance(a[q], a[r], b[r]) * res < d_safe - DIST_TOL:
                    edges.add((q, r))
                if point_segment_distance(b[q], a[r], b[r]) * res < d_safe - DIST_TOL:
                    edges.add((r, q))
    return edges


def has_cycle(edges):
    """Whether the directed graph of `edges` has a cycle (Kahn's algorithm
    leaves a node over)."""
    nodes = {n for e in edges for n in e}
    indegree = {n: sum(1 for _, b in edges if b == n) for n in nodes}
    ready = [n for n in nodes if not indegree[n]]
    while ready:
        q = ready.pop()
        nodes.discard(q)
        for a, b in edges:
            if a == q:
                indegree[b] -= 1
                if not indegree[b]:
                    ready.append(b)
    return bool(nodes)


def forced_schedule_report(steps, grid, d_safe):
    """Repair on `steps`: None when it raises naming pairs whose
    precedences close a cycle at the first step without an order, or else
    the `validate` report of the schedule's trajectories."""
    res = grid.resolution
    probs = [make_problem(r, cells) for r, cells in enumerate(steps)]
    try:
        repair(probs, steps, d_safe=d_safe, resolution=res)
    except UnrepairableError as exc:
        assert "have no execution order" in str(exc)
        assert len({v.time for v in exc.violations}) == 1
        assert all(v.kind == "separation" and v.robot < v.other for v in exc.violations)
        graphs = [
            precedence([s[k] for s in steps], [s[k + 1] for s in steps], d_safe, res)
            for k in range(len(steps[0]) - 1)
        ]
        edges = next(g for g in graphs if has_cycle(g))
        named = {frozenset((v.robot, v.other)) for v in exc.violations}
        assert has_cycle({e for e in edges if frozenset(e) in named})
        return None
    return validate(sample_common([p.solve() for p in probs], 0.05), grid, d_safe=d_safe)


def random_map(rng, res):
    w, h = int(rng.integers(8, 15)), int(rng.integers(8, 15))
    prob = np.where(rng.random((h, w)) < 0.1, 1.0, 0.0)
    free = [Cell(int(x), int(y)) for y, x in zip(*np.nonzero(prob == 0.0))]
    return OccupancyGrid(prob=prob, resolution=res), free


def icm_steps(seed, robots, sweeps, res, order):
    """Per robot, its cell after each of a few ICM sweeps at disk `order`,
    from random starts on a random small map."""
    rng = np.random.default_rng(seed)
    grid, free = random_map(rng, res)
    starts = [free[i] for i in rng.choice(len(free), size=robots, replace=False)]
    goal = (float(rng.uniform(0, grid.width - 1)), float(rng.uniform(0, grid.height - 1)))
    static = build_goal_field(grid, GoalParams(goal=goal))
    k = min(2, robots - 1)
    state = make_state(starts, grid, k=k)
    cfg = OptimizeConfig(k=k, search_order=order, max_sweeps=sweeps, goal=goal)
    paths, _ = optimize(state, grid, static, InteractionParams(), cfg)
    return grid, [[tuple(map(float, c)) for c in p.cells] for p in paths]


icm_args = dict(
    seed=st.integers(0, 2**32 - 1),
    robots=st.integers(2, 6),
    sweeps=st.integers(1, 4),
    res=st.sampled_from([0.5, 1.0, 2.0]),
    d_safe_share=st.floats(0.5, 1.0),
    order=st.sampled_from([1, 2, 4, 5, 9, 16, 25]),
)


@settings(max_examples=60, deadline=None)
@given(**icm_args)
def test_forced_schedule_of_icm_steps(seed, robots, sweeps, res, d_safe_share, order):
    # random small maps and start sets, a few ICM sweeps, and the schedule
    # forced on them whether or not smoothing would have passed. By the
    # separation lemma (`mrf`) no move waits on another robot's start; that
    # the remaining waits never close a cycle is pinned here, not proven.
    # ICM moves have line of sight, so the schedule hits no obstacle either.
    grid, steps = icm_steps(seed, robots, sweeps, res, order)
    if len(steps[0]) > 1:
        assert forced_schedule_report(steps, grid, d_safe_share * res) == []


@settings(max_examples=60, deadline=None)
@given(**icm_args)
def test_single_icm_steps_pass_the_exact_separation_test(seed, robots, sweeps, res, d_safe_share, order):
    # lemma (Y) in `mrf`, checked, not proven: the whole swarm making one
    # ICM step on one timing keeps every pair 1.0 cell apart, and every
    # chord has line of sight, so a single step never fails the exact tests
    # of `rhp.execute_fraction` at any d_safe up to the grid resolution
    grid, steps = icm_steps(seed, robots, sweeps, res, order)
    at = np.array(steps).transpose(1, 0, 2)  # (steps, robots, 2)
    for a, b in zip(at, at[1:]):
        _, _, dist = trajopt.transition_separations(a, b)
        assert dist.min() >= 1.0
        assert dist.min() * res >= d_safe_share * res - DIST_TOL
    for path in steps:
        cells = [Cell(int(x), int(y)) for x, y in path]
        assert all(line_of_sight(grid, c, d) for c, d in zip(cells, cells[1:]))


def half_cell_crossings(a, b):
    """[DERIVED] the points where the chord a -> b crosses a line x = k + 1/2
    or y = k + 1/2, in exact arithmetic, so the ties of rounding on it."""
    (ax, ay), (bx, by) = a, b
    points = []
    for u0, v0, du, dv, swap in ((ax, ay, bx - ax, by - ay, False), (ay, ax, by - ay, bx - ax, True)):
        for k in range(min(0, du), max(0, du)):
            u = Fraction(2 * k + 1, 2)  # the crossing at u0 + u
            p = (u0 + u, v0 + dv * u / du)
            points.append(tuple(map(float, p[::-1] if swap else p)))
    return points


def test_chord_samples_round_into_its_supercover():
    # every disk offset up to order 25, from a cell in the middle of a map
    # where only the chord's supercover is free: `sample_transitions`
    # samples of the chord and its half-cell ties all round (np.rint, half
    # to even) into free cells, so a chord with line of sight never hits
    start = Cell(5, 5)
    for dx, dy in disk_offsets(25):
        end = Cell(start.x + dx, start.y + dy)
        prob = np.ones((11, 11))
        for c in supercover_cells(start, end):
            prob[c.y, c.x] = 0.0
        grid = OccupancyGrid(prob=prob, resolution=1.0)
        s = trajopt.sample_transitions(np.array([[start], [end]], dtype=float), [1.0], 0.001)
        ties = half_cell_crossings(start, end)
        pos = np.concatenate([s.pos[0], np.reshape(ties, (-1, 2))])[None]
        samples = TrajectorySamples(t=np.arange(pos.shape[1], dtype=float), pos=pos, vel=pos, acc=pos)
        assert validate(samples, grid) == []
        assert len(ties) == abs(dx) + abs(dy)


def random_transition(rng, robots):
    """Random start and end cells of a few robots on a small lattice, the
    starts distinct; a robot may hold its cell."""
    cells = [(int(x), int(y)) for x in range(8) for y in range(8)]
    a = np.array([cells[i] for i in rng.choice(len(cells), size=robots, replace=False)], dtype=float)
    b = a + rng.integers(-3, 4, size=a.shape) * (rng.random((robots, 1)) < 0.8)
    return a, b


@pytest.mark.parametrize("seed", range(20))
def test_transition_separation_is_the_sampled_minimum(seed):
    # the exact least separation against the pairwise minimum over the
    # samples of the executed motion: the samples never come closer, and
    # they miss the closest point by at most what one sampling step moves
    # the pair, half of peak speed 2.1875 |Δ| / T times dt
    rng = np.random.default_rng(seed)
    a, b = random_transition(rng, int(rng.integers(2, 7)))
    duration, dt = float(rng.uniform(0.5, 4.0)), 0.01
    samples = trajopt.sample_transitions(np.stack([a, b]), [duration], dt)
    first, second, dist = trajopt.transition_separations(a, b)
    assert np.array_equal(samples.pos[:, 0], a) and np.array_equal(samples.pos[:, -1], b)
    sampled = np.linalg.norm(samples.pos[first] - samples.pos[second], axis=2).min(axis=1)
    moved = np.linalg.norm((b[first] - b[second]) - (a[first] - a[second]), axis=1)
    assert np.all(sampled >= dist - 1e-12)
    assert np.all(sampled - dist <= 0.5 * 2.1875 * moved / duration * dt + 1e-12)


def test_transition_separation_limit_is_exact():
    # a pair that passes exactly 1 apart, and one that passes 1e-6 closer:
    # robot 1 holds (0, 0) while robot 0 runs a lane at height 1 or 1 - 1e-6
    for height, want in ((1.0, 1.0), (1.0 - 1e-6, 1.0 - 1e-6)):
        a, b = [(-3.0, height), (0.0, 0.0)], [(3.0, height), (0.0, 0.0)]
        _, _, dist = trajopt.transition_separations(a, b)
        assert dist.tolist() == [want]


def test_sample_transitions_rest_at_every_anchor():
    # two transitions: every robot leaves and reaches each anchor at rest,
    # peaks at 2.1875 |Δ| / T, and a robot that holds its cell is still
    anchors = np.array([[(0.0, 0.0), (5.0, 5.0)], [(2.0, 0.0), (5.0, 5.0)], [(2.0, 3.0), (5.0, 5.0)]])
    s = trajopt.sample_transitions(anchors, [2.0, 3.0], 0.25)
    assert s.t.tolist() == [0.25 * i for i in range(21)]
    for t in (0.0, 2.0, 5.0):
        m = s.t.tolist().index(t)
        assert np.array_equal(s.pos[:, m], anchors[[0.0, 2.0, 5.0].index(t)])
        assert np.all(s.vel[:, m] == 0.0) and np.all(s.acc[:, m] == 0.0)
    assert np.all(s.pos[1] == (5.0, 5.0)) and np.all(s.vel[1] == 0.0) and np.all(s.acc[1] == 0.0)
    # no negative zeros, which the CSV writer would print as "-0"
    assert not np.signbit(s.vel[s.vel == 0.0]).any() and not np.signbit(s.acc[s.acc == 0.0]).any()
    mid = s.t.tolist().index(1.0)
    assert s.vel[0, mid].tolist() == [2.1875 * 2.0 / 2.0, 0.0]
    # robot 0 stays on the chord of each transition
    assert np.all(s.pos[0, : mid * 2 + 1, 1] == 0.0) and np.all(s.pos[0, mid * 2 :, 0] == 2.0)


def random_steps(rng, cells, count):
    """Per robot, its start cell and then `count` random moves of up to two
    cells, each step onto cells no other robot takes in that step."""
    steps = [[tuple(map(float, c))] for c in cells]
    for _ in range(count):
        taken = set()
        for path in steps:
            x, y = path[-1]
            options = [
                (x + dx, y + dy) for dx in range(-2, 3) for dy in range(-2, 3)
                if (x + dx, y + dy) not in taken
            ]
            path.append(options[int(rng.integers(len(options)))])
            taken.add(path[-1])
    return steps


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), robots=st.integers(2, 6), res=st.sampled_from([0.5, 1.0, 2.0]))
def test_forced_schedule_of_random_steps(seed, robots, res):
    # two steps of random moves of up to two cells between distinct cells,
    # so some steps have no order; obstacle hits belong to the steps'
    # straight moves, which need no line of sight here, not to the schedule
    rng = np.random.default_rng(seed)
    grid, free = random_map(rng, res)
    cells = [free[i] for i in rng.choice(len(free), size=robots, replace=False)]
    report = forced_schedule_report(random_steps(rng, cells, 2), grid, res)
    assert report is None or not [v for v in report if v.kind != "obstacle"]


# coordinates on half cells, anywhere in a wide range (subnormals too), and
# large; a point drawn on its segment, or a segment of zero length
half_cells = st.integers(-40, 40).map(lambda k: k / 2)
coordinates = st.one_of(half_cells, st.floats(-1e3, 1e3), st.floats(-1e9, 1e9))
points = st.tuples(coordinates, coordinates)


@st.composite
def point_and_segment(draw):
    a = draw(points)
    b = draw(st.one_of(points, st.just(a)))
    shape = draw(st.sampled_from(["free", "on segment", "endpoint"]))
    if shape == "free":
        p = draw(points)
    elif shape == "on segment":
        u = draw(st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.0, 1.0))
        p = (a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1]))
    else:
        p = draw(st.sampled_from([a, b]))
    return p, a, b


@settings(max_examples=300, deadline=None)
@given(cases=st.lists(point_and_segment(), min_size=1, max_size=12))
def test_point_segment_distances_equal_the_scalar_bit_for_bit(cases):
    p, a, b = (np.array(v) for v in zip(*cases))
    got = _point_segment_distances(p, a, b)
    assert got.shape == (len(cases),)
    assert got.tolist() == [point_segment_distance(*c) for c in cases]
    # broadcast: every point against every segment
    matrix = _point_segment_distances(p, a[:, None], b[:, None])
    assert matrix.tolist() == [[point_segment_distance(q, s, e) for q in p.tolist()] for s, e in zip(a.tolist(), b.tolist())]


def step_slots_reference(a, b, d_safe, res):
    """`_step_slots` one pair at a time with the scalar distance, the oracle
    of the array form: the precedence of every ordered pair, a topological
    sort with ties to the lower id, then first-fit slots by the gap between
    the two segments."""
    n = len(a)
    limit = d_safe - DIST_TOL

    def near(p, r):  # r's segment comes within d_safe of point p
        return point_segment_distance(p, a[r], b[r]) * res < limit

    def gap(q, r):  # distance between the closed segments of q and r
        if segments_intersect(a[q], b[q], a[r], b[r]):
            return 0.0
        return min(
            point_segment_distance(a[q], a[r], b[r]),
            point_segment_distance(b[q], a[r], b[r]),
            point_segment_distance(a[r], a[q], b[q]),
            point_segment_distance(b[r], a[q], b[q]),
        )

    before = [set() for _ in range(n)]  # before[r]: robots r waits for
    for r in range(n):
        for q in range(n):
            if q != r:
                if near(a[q], r):
                    before[r].add(q)
                if near(b[q], r):
                    before[q].add(r)
    order, left = [], set(range(n))
    while left:
        ready = [r for r in left if not before[r] & left]
        if not ready:
            walk = [min(left)]
            while walk.count(walk[-1]) < 2:
                walk.append(min(before[walk[-1]] & left))
            cycle = walk[walk.index(walk[-1]) :]
            return [], sorted({(min(p), max(p)) for p in zip(cycle, cycle[1:])})
        order.append(min(ready))
        left.remove(order[-1])
    slot = {}
    for r in order:
        if a[r] != b[r]:
            slot[r] = 1 + max((s for q, s in slot.items() if gap(q, r) * res < limit), default=-1)
    slots = [[] for _ in range(max(slot.values(), default=-1) + 1)]
    for r, s in slot.items():
        slots[s].append(r)
    return slots, []


def test_step_slots_equal_the_scalar_reference():
    # one step of random moves of up to two cells among robots packed on
    # integer cells, so many pairs sit exactly d_safe = resolution apart
    rng = np.random.default_rng(18)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(2, 21))
        side = int(rng.integers(2, 7)) + n // 3
        cells = rng.choice(side * side, size=n, replace=False)
        res = float(rng.choice([0.5, 1.0, 2.0]))
        d_safe = res * float(rng.choice([1.0, 1.0, 0.75, 1.5]))
        steps = random_steps(rng, [(int(c % side), int(c // side)) for c in cells], 1)
        a, b = [s[0] for s in steps], [s[1] for s in steps]
        got = _step_slots(a, b, d_safe, res)
        assert got == step_slots_reference(a, b, d_safe, res)
        seen.add("no order" if got[1] else f"{min(len(got[0]), 3)} slots")
        seen.add(f"n{len(a) // 10}")
    assert seen >= {"no order", "1 slots", "2 slots", "3 slots", "n0", "n1", "n2"}


def test_step_slots_limit_is_strict():
    # robot 1 holds exactly d_safe - DIST_TOL from robot 0's segment: far
    # enough, so robot 0 moves; one ulp nearer, neither has an order
    for y, want in [(1.0 - DIST_TOL, ([[0]], [])), (math.nextafter(1.0 - DIST_TOL, 0.0), ([], [(0, 1)]))]:
        a, b = [(-1.0, 0.0), (0.0, y)], [(1.0, 0.0), (0.0, y)]
        assert _step_slots(a, b, 1.0, 1.0) == step_slots_reference(a, b, 1.0, 1.0) == want


@pytest.mark.parametrize("move, want", [
    # robot 0's path passes 1.0 from robot 1's start: robot 1 leaves first
    (((2.0, 1.0), (2.0, 3.0)), [[1], [0]]),
    # and from robot 1's end: robot 1 arrives after robot 0 has passed
    (((2.0, 3.0), (2.0, 1.0)), [[0], [1]]),
])
def test_step_slots_order_a_move_past_a_start_and_an_end(move, want):
    a, b = [(0.0, 0.0), move[0]], [(4.0, 0.0), move[1]]
    assert _step_slots(a, b, 1.5, 1.0) == step_slots_reference(a, b, 1.5, 1.0) == (want, [])


def test_violation_fields():
    v = Violation("separation", 0, 1.5, other=2)
    assert (v.kind, v.robot, v.time, v.other) == ("separation", 0, 1.5, 2)


def validate_reference(trajs, grid, d_safe=1.0, dt=0.05):
    """One sample at a time: per robot and sample, an obstacle hit (rounded
    cell off the map or occupied); then each pair i < j at its deepest
    encroachment."""
    res = grid.resolution
    t_max = max(tr.total_time for tr in trajs)
    ts = np.arange(0.0, t_max, dt)
    if len(ts) == 0 or ts[-1] < t_max:
        ts = np.append(ts, t_max)
    pos = np.array([tr.eval_many(ts, 0) for tr in trajs])
    violations = []
    for r in range(len(trajs)):
        for n, t in enumerate(ts):
            cx, cy = round(pos[r, n, 0]), round(pos[r, n, 1])
            if not grid.in_bounds((cx, cy)) or not grid.is_free((cx, cy)):
                violations.append(Violation("obstacle", r, float(t)))
    for i in range(len(trajs)):
        for j in range(i + 1, len(trajs)):
            d = np.linalg.norm(pos[i] - pos[j], axis=1) * res
            bad = np.flatnonzero(d < d_safe - DIST_TOL)
            if bad.size:
                worst = bad[np.argmin(d[bad])]
                violations.append(Violation("separation", i, float(ts[worst]), other=j))
    return violations


def random_validate_case(rng):
    """A random map (some cells occupied) and up to 10 robots whose paths may
    leave it, with holds at the start, midpoint splits and rest splits; the
    set names the shapes drawn."""
    w, h = int(rng.integers(8, 20)), int(rng.integers(8, 20))
    grid = OccupancyGrid(
        prob=np.where(rng.random((h, w)) < 0.12, 1.0, 0.0),
        resolution=float(rng.choice([0.5, 1.0, 2.0])),
    )
    problems, shapes = [], set()
    for r in range(int(rng.integers(1, 11))):
        # half-cell coordinates, up to two cells off the map
        wps = np.round(rng.uniform([-2.0, -2.0], [w + 1.0, h + 1.0], (int(rng.integers(2, 6)), 2)) * 2) / 2
        prob = SmoothingProblem.from_waypoints(r, wps, allocate_times(wps, float(rng.uniform(0.5, 3.0))))
        if rng.random() < 0.3:
            # hold at the start: a zero-length segment 0, at rest
            prob.waypoints.insert(0, prob.waypoints[0])
            prob.durations.insert(0, float(rng.uniform(0.2, 2.0)))
            prob.rest_indices.add(1)
            shapes.add("hold")
        if rng.random() < 0.3:
            # a segment split at its chord midpoint
            seg = int(rng.integers(len(prob.durations)))
            (ax, ay), (bx, by) = prob.waypoints[seg], prob.waypoints[seg + 1]
            prob.waypoints.insert(seg + 1, ((ax + bx) / 2.0, (ay + by) / 2.0))
            prob.durations[seg : seg + 1] = [prob.durations[seg] / 2.0] * 2
            prob.rest_indices = {i + 1 if i > seg else i for i in prob.rest_indices}
            shapes.add("split")
        if rng.random() < 0.3:
            prob.rest_indices.add(int(rng.integers(1, len(prob.waypoints))))
        problems.append(prob)
    return grid, [p.solve() for p in problems], shapes


def test_validate_equals_per_sample_reference():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(80):
        grid, trajs, shapes = random_validate_case(rng)
        d_safe = float(rng.uniform(0.5, 3.0))
        dt = float(rng.choice([0.05, 0.1, 0.13]))
        got = validate(sample_common(trajs, dt), grid, d_safe)
        assert got == validate_reference(trajs, grid, d_safe, dt)
        assert all(type(v.time) is float for v in got)
        seen |= {v.kind for v in got}
        for v in got:
            if v.kind == "obstacle":
                c = np.round(trajs[v.robot].eval(v.time))
                seen.add("off-map" if not grid.in_bounds(c) else "occupied")
        seen |= shapes
        seen |= {"finished" for tr in trajs if tr.total_time < max(t.total_time for t in trajs)}
        if len(trajs) == 10:
            seen.add("n10")
    assert seen >= {"obstacle", "separation", "off-map", "occupied", "hold", "split", "finished", "n10"}


@pytest.mark.parametrize("x, y, cell", [(2.5, 3.5, (2, 4)), (3.5, 2.5, (4, 2)), (0.5, 4.5, (0, 4))])
def test_validate_rounds_half_to_even_like_round(x, y, cell):
    prob = np.zeros((8, 8))
    prob[cell[1], cell[0]] = 1.0
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    coeffs = np.zeros((2, 1, 8))
    coeffs[:, 0, 0] = [x, y]  # parked exactly on a half-cell coordinate
    traj = PolynomialTrajectory(coeffs, TimeAllocation(np.array([1.0])))
    got = validate(sample_common([traj], 0.05), grid)
    assert got and all(v.kind == "obstacle" for v in got)
    assert got == validate_reference([traj], grid)


def snap_gram_reference(duration, degree, q):
    g = np.zeros((degree + 1, degree + 1))
    for j in range(q, degree + 1):
        for l in range(q, degree + 1):
            p = j + l - 2 * q
            g[j, l] = _perm(j, q) * _perm(l, q) * duration ** (p + 1) / (p + 1)
    return g


def build_qp_reference(wp_1d, times, degree=7, deriv_order=4):
    """One dimension, one dense row per constraint, appended in order."""
    wp = np.asarray(wp_1d, dtype=float)
    n_seg, ncoef = len(times.durations), degree + 1
    nvar = ncoef * n_seg
    cost = np.zeros((nvar, nvar))
    for s, T in enumerate(times.durations):
        cost[s * ncoef : (s + 1) * ncoef, s * ncoef : (s + 1) * ncoef] = snap_gram_reference(
            float(T), degree, deriv_order
        )

    def deriv_row(tau, order):
        row = np.zeros(ncoef)
        for j in range(order, degree + 1):
            row[j] = _perm(j, order) * tau ** (j - order)
        return row

    rows, rhs = [], []

    def add(seg, tau, order, value, other=None):
        row = np.zeros(nvar)
        row[seg * ncoef : (seg + 1) * ncoef] = deriv_row(tau, order)
        if other is not None:
            row[other * ncoef : (other + 1) * ncoef] -= deriv_row(0.0, order)
        rows.append(row)
        rhs.append(0.0 if value is None else value)

    for s, T in enumerate(times.durations):
        add(s, 0.0, 0, wp[s])
        add(s, float(T), 0, wp[s + 1])
    for order in range(1, deriv_order):
        add(0, 0.0, order, 0.0)
        add(n_seg - 1, float(times.durations[-1]), order, 0.0)
    for s in range(n_seg - 1):
        for order in range(1, deriv_order):
            add(s, float(times.durations[s]), order, None, other=s + 1)
    return QuadraticProgram(cost=cost, eq_mat=np.array(rows), eq_vec=np.array(rhs))


def solve_qp_reference(qp):
    """The KKT system assembled from blocks and solved for one right-hand side."""
    n, m = qp.cost.shape[0], qp.eq_mat.shape[0]
    kkt = np.vstack([
        np.hstack([2 * qp.cost + 0.0 * np.eye(n), qp.eq_mat.T]),
        np.hstack([qp.eq_mat, np.zeros((m, m))]),
    ])
    return np.linalg.solve(kkt, np.concatenate([np.zeros(n), qp.eq_vec]))[:n]


def min_snap_reference(wps, times):
    wps = np.asarray(wps, dtype=float)
    return np.array([
        solve_qp_reference(build_qp_reference(wps[:, d], times)).reshape(len(times.durations), 8)
        for d in range(wps.shape[1])
    ])


def rest_pieces(problem):
    """The waypoints and times of each rest-to-rest piece of `problem`."""
    wps = np.asarray(problem.waypoints, dtype=float)
    rests = sorted(r for r in problem.rest_indices if 0 < r < len(wps) - 1)
    bounds = [0, *rests, len(wps) - 1]
    return [
        (wps[lo : hi + 1], TimeAllocation(np.array(problem.durations[lo:hi])))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def split_reference(problem):
    """`min_snap_reference` of each rest-to-rest piece, one by one, joined."""
    return np.concatenate([min_snap_reference(wps, ta) for wps, ta in rest_pieces(problem)], axis=1)


def assert_piece_matches_qp(coeffs, wps, times, qp_coeffs):
    """A piece of several segments is `qp_coeffs` exactly. A one-segment
    piece is the closed form: at exact rest at t = 0, and within 1e-12 of
    `qp_coeffs` as coefficients in s = t / T, relative to the largest."""
    if len(times.durations) > 1:
        assert np.array_equal(coeffs, qp_coeffs)
        return
    assert np.array_equal(coeffs[:, 0, 0], wps[0]) and not coeffs[:, 0, 1:4].any()
    unit = times.total ** np.arange(8)
    assert np.max(np.abs(coeffs - qp_coeffs) * unit) <= 1e-12 * np.max(np.abs(qp_coeffs) * unit)


@pytest.mark.parametrize("seed", range(8))
def test_min_snap_equals_per_dimension_qp_exactly(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    wps = rng.uniform(-20.0, 20.0, (n, 2))
    ta = TimeAllocation(rng.uniform(0.1, 3.0, n - 1))
    qp = build_qp(wps, ta)
    for d in range(2):
        ref = build_qp_reference(wps[:, d], ta)
        one = build_qp(wps[:, d], ta)
        assert np.array_equal(qp.cost, ref.cost) and np.array_equal(one.cost, ref.cost)
        assert np.array_equal(qp.eq_mat, ref.eq_mat) and np.array_equal(one.eq_mat, ref.eq_mat)
        assert np.array_equal(qp.eq_vec[:, d], ref.eq_vec) and np.array_equal(one.eq_vec, ref.eq_vec)
        assert np.array_equal(solve_qp(one), solve_qp_reference(ref))
    assert np.array_equal(min_snap(wps, ta).coeffs, min_snap_reference(wps, ta))


def test_rest_split_solve_equals_per_dimension_qp_exactly():
    rng = np.random.default_rng(11)
    wps = rng.uniform(0.0, 30.0, (7, 2))
    # a 1.5 s hold at the start, at rest, then rests at waypoints 3 and 5
    held = np.concatenate([wps[:1], wps])
    durations = np.concatenate([[1.5], allocate_times(wps, 1.3).durations])
    prob = SmoothingProblem.from_waypoints(0, held, TimeAllocation(durations))
    prob.rest_indices |= {1, 3, 5}
    assert np.array_equal(prob.solve().coeffs, split_reference(prob))


def random_problems(rng, count, dims=None):
    """Problems of 1-6 segments, 1-D or 2-D, with random rests and T_FLOOR
    holds (a repeated waypoint), and durations drawn from a small set so
    that some repeat within the set and some are new."""
    probs = []
    for r in range(count):
        d = dims or int(rng.integers(1, 3))
        segs = int(rng.integers(1, 7))
        wps = rng.uniform(-20.0, 20.0, (segs + 1, d))
        durations = rng.choice([0.5, 1.0, 2.0, float(rng.uniform(0.1, 4.0))], segs)
        hold = rng.random(segs) < 0.2
        for s in np.flatnonzero(hold).tolist():
            wps[s + 1] = wps[s]
        durations[hold] = trajopt.T_FLOOR
        prob = SmoothingProblem(r, [tuple(w) for w in wps.tolist()], durations.tolist())
        prob.rest_indices = {int(i) for i in rng.integers(0, segs + 1, int(rng.integers(0, 4)))}
        probs.append(prob)
    return probs


@pytest.mark.parametrize("seed", range(12))
def test_solve_problems_equals_per_piece_solves_exactly(seed):
    # each rest-to-rest piece is min_snap's, joined in order; against the
    # per-dimension QP, exact for several segments, closed form for one
    rng = np.random.default_rng(100 + seed)
    probs = random_problems(rng, int(rng.integers(1, 9)), dims=(None, 1, 2)[seed % 3])
    trajs = trajopt.solve_problems(probs)
    for prob, traj in zip(probs, trajs, strict=True):
        pieces = rest_pieces(prob)
        solved = [min_snap(wps, ta).coeffs for wps, ta in pieces]
        assert np.array_equal(traj.coeffs, np.concatenate(solved, axis=1))
        for (wps, ta), coeffs in zip(pieces, solved):
            assert_piece_matches_qp(coeffs, wps, ta, min_snap_reference(wps, ta))
        assert np.array_equal(traj.times.durations, prob.durations)
        assert np.array_equal(prob.solve().coeffs, traj.coeffs)


def test_allocate_times_equals_numpy_formula():
    offsets = [(dx, dy) for dx in range(-15, 16) for dy in range(-15, 16)]
    for origin in [(0.0, 0.0), (5.0, 7.0), (2.5, -3.75)]:
        # origin, origin + offset, origin, ...: every offset and its negative
        wps = [origin]
        for dx, dy in offsets:
            wps += [(origin[0] + dx, origin[1] + dy), origin]
        wp = np.array(wps)
        for res in (1.0, 0.5, 0.1):
            for v in (1.0, 1.3):
                want = np.maximum(np.linalg.norm(np.diff(wp, axis=0), axis=1) * res / v, trajopt.T_FLOOR)
                got = allocate_times(wps, v_nominal=v, resolution=res).durations
                assert got.dtype == want.dtype and np.array_equal(got, want)
    # and between points off the grid, where the sum of squares rounds
    wp = np.random.default_rng(2).uniform(-15.0, 15.0, (2000, 2))
    want = np.maximum(np.linalg.norm(np.diff(wp, axis=0), axis=1) * 0.5 / 1.3, trajopt.T_FLOOR)
    assert np.array_equal(allocate_times(wp, v_nominal=1.3, resolution=0.5).durations, want)


def test_cached_time_allocations_are_read_only_shared_and_bounded():
    rng = np.random.default_rng(4)
    for segs in range(1, 5):
        durations = tuple(rng.uniform(0.1, 3.0, segs).tolist())
        ta = trajopt._time_allocation(durations)
        assert trajopt._time_allocation(durations) is ta
        assert not ta.durations.flags.writeable and not ta.knots.flags.writeable
    wps = [(0.0, 0.0), (3.0, 4.0), (3.0, 4.0)]
    assert allocate_times(wps) is allocate_times(np.array(wps))
    assert trajopt._time_allocation.cache_info().maxsize is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_failed_stack_raises_and_a_non_finite_waypoint_is_rejected(bad, monkeypatch):
    rng = np.random.default_rng(21)
    probs = random_problems(rng, 8)
    # a piece of several segments, which is solved, not written in closed form
    assert any(len(ta.durations) > 1 for p in probs for _, ta in rest_pieces(p))
    qp = build_qp(np.asarray(probs[0].waypoints), TimeAllocation(np.array(probs[0].durations)))
    real_solve = np.linalg.solve

    def failing_stack(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    def inexact_stack(a, b):
        # a solution that misses its constraints by about 1e-6
        return real_solve(a, b) + 1e-6

    # no second attempt: solve_problems and solve_qp raise alike
    for fake, message in [
        (failing_stack, r"^KKT system singular \(Singular matrix\)$"),
        (inexact_stack, r"^constraints inconsistent \(residual [^)]+\)$"),
    ]:
        monkeypatch.setattr(np.linalg, "solve", fake)
        with pytest.raises(trajopt.TrajectoryError, match=message):
            trajopt.solve_problems(probs)
        with pytest.raises(trajopt.TrajectoryError, match=message):
            solve_qp(qp)

    # a finite waypoint whose coefficients overflow: in closed form, and in
    # a solve, whose NaN residual fails too
    monkeypatch.setattr(np.linalg, "solve", real_solve)
    huge = SmoothingProblem(8, [(0.0, 0.0), (1.7e308, 1.0)], [1.0])
    with pytest.raises(trajopt.TrajectoryError, match=r"^closed-form coefficients not finite$"):
        trajopt.solve_problems([huge])
    huge = SmoothingProblem(8, [(0.0, 0.0), (1.7e308, 1.0), (0.0, 0.0)], [1.0, 1.0])
    with pytest.raises(trajopt.TrajectoryError, match=r"^constraints inconsistent \(residual nan\)$"):
        trajopt.solve_problems([huge])

    # a non-finite waypoint is named before any piece is solved
    solves = []

    def counting_solve(a, b):
        solves.append(np.shape(a))
        return real_solve(a, b)

    real_min_snap = trajopt.min_snap

    def counting_min_snap(wps, times):
        solves.append(len(times.durations))
        return real_min_snap(wps, times)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(trajopt, "min_snap", counting_min_snap)
    broken = SmoothingProblem(9, [(0.0, 0.0), (bad, 1.0)], [1.0])
    with pytest.raises(ValueError, match="^robot 9: waypoints must be finite$"):
        trajopt.solve_problems(probs + [broken])
    assert solves == []


def test_a_solution_that_overflows_its_bound_fails(monkeypatch):
    # coefficients near 1e308 overflow both the residual and its bound to
    # inf; one segment's constraint rows have no negative entry, so no NaN
    # comes up to fail the comparison
    qp = build_qp(np.array([0.0, 1.0]), TimeAllocation(np.array([1.0])))
    real_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: real_solve(a, b) + 1e308)
    with np.errstate(over="ignore"):
        with pytest.raises(trajopt.TrajectoryError, match=r"^constraints inconsistent \(residual inf\)$"):
            solve_qp(qp)


def test_first_failing_piece_raises_as_when_solved_one_by_one(monkeypatch):
    # solves scaled by 1 + 1e-6 miss the 1e12 and 1e14 waypoints by
    # different residuals; the error is that of the first failing problem
    # in order, and a far one-segment piece is exact in closed form
    ok = SmoothingProblem(0, [(0.0, 0.0), (1.0, 1.0)], [1.0])
    far = SmoothingProblem(1, [(0.0, 0.0), (1e12, 1.0), (2.0, 3.0)], [1.0, 2.0])
    farther = SmoothingProblem(2, [(0.0, 0.0), (1e14, 1.0), (2.0, 3.0), (5.0, 1.0)], [1.0, 2.0, 0.5])
    closed = SmoothingProblem(3, [(0.0, 0.0), (1e14, 1.0)], [1.0])
    assert np.array_equal(closed.solve().eval(1.0), [1e14, 1.0])
    real_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: real_solve(a, b) * (1 + 1e-6))
    alone = []
    for p in (far, farther):
        with pytest.raises(trajopt.TrajectoryError, match=r"^constraints inconsistent \(residual [^)]+\)$") as info:
            trajopt.solve_problems([p])
        alone.append(str(info.value))
    assert alone[0] != alone[1]
    for order, want in [([ok, far, farther], alone[0]), ([ok, farther, far], alone[1])]:
        with pytest.raises(trajopt.TrajectoryError) as info:
            trajopt.solve_problems(order)
        assert str(info.value) == want


def test_large_pieces_meet_the_backward_error_bound():
    # the bound grows with the constraint terms: these 1e12 and 1e14 pieces
    # missed an absolute residual bound of 1e-8, and they solve and meet
    # their waypoints to 1e-12 of the largest
    for wps, durations in [
        ([(0.0, 0.0), (1e12, 1.0), (2.0, 3.0)], [1.0, 2.0]),
        ([(0.0, 0.0), (1e14, 1.0), (2.0, 3.0), (5.0, 1.0)], [1.0, 2.0, 0.5]),
    ]:
        traj = SmoothingProblem(1, wps, durations).solve()
        knots = np.concatenate([[0.0], np.cumsum(durations)])
        got = np.array([traj.eval(t) for t in knots])
        assert np.allclose(got, wps, rtol=0, atol=1e-12 * np.abs(wps).max())


def pipeline_problems(seed, res, v):
    """Problems as the pipeline makes them: chords between cells of a
    60 x 60 map timed by allocate_times, and the rest-to-rest schedules with
    holds that repair builds from random steps."""
    rng = np.random.default_rng(seed)
    probs = []
    for r in range(int(rng.integers(1, 7))):
        cells = rng.integers(0, 61, (int(rng.integers(2, 10)), 2)).astype(float)
        probs.append(SmoothingProblem.from_waypoints(r, cells, allocate_times(cells, v, res)))
    starts = rng.choice(100, int(rng.integers(1, 6)), replace=False).tolist()
    steps = random_steps(rng, [(c % 10, c // 10) for c in starts], int(rng.integers(1, 5)))
    scheduled = [SmoothingProblem(10 + r, [], []) for r in range(len(steps))]
    try:
        repair(scheduled, steps, d_safe=res, v_nominal=v, resolution=res)
        probs += scheduled
    except UnrepairableError:
        pass  # a step without an order: no schedule to solve
    return probs


pipeline_args = dict(
    seed=st.integers(0, 2**32 - 1),
    res=st.sampled_from([0.5, 1.0, 2.0]),
    v=st.sampled_from([0.5, 1.0, 1.3, 2.0]),
)


@settings(max_examples=100, deadline=None)
@given(**pipeline_args)
def test_min_snap_of_pipeline_pieces_equals_the_qp(seed, res, v):
    # a one-segment piece is the closed form, within 1e-12 of the QP; a
    # piece of several segments is solve_qp(build_qp(...)) exactly
    for prob in pipeline_problems(seed, res, v):
        for wps, ta in rest_pieces(prob):
            qp_coeffs = solve_qp(build_qp(wps, ta)).T.reshape(2, -1, 8)
            assert_piece_matches_qp(min_snap(wps, ta).coeffs, wps, ta, qp_coeffs)


@settings(max_examples=100, deadline=None)
@given(**pipeline_args)
def test_stacked_solve_of_pipeline_pieces_is_finite_and_exact(seed, res, v):
    probs = pipeline_problems(seed, res, v)
    for prob, traj in zip(probs, trajopt.solve_problems(probs), strict=True):
        assert np.all(np.isfinite(traj.coeffs))
        knots = TimeAllocation(np.array(prob.durations)).knots
        assert np.allclose(traj.eval_many(knots), prob.waypoints, rtol=0.0, atol=1e-8)


def lanes(*xs):
    """Robot r's waypoints along y = 4 + 4r, at the x values given for it."""
    return [[(x, 4.0 + 4.0 * r) for x in row] for r, row in enumerate(xs)]


@pytest.mark.parametrize("paths, scheduled, want", [
    # pieces of 1, 2, 2, 3 and 1 segments: the pass validates and solves
    # each piece of k > 1 segments, a KKT system of size 13k + 3 for both
    # dimensions
    (lanes([0.0, 6.0], [0.0, 3.0, 6.0], [0.0, 2.0, 6.0], [0.0, 2.0, 4.0, 6.0], [1.0, 5.0]), False, [2, 2, 3]),
    # one-segment pieces only: closed form, no solve
    (lanes([0.0, 6.0], [0.0, 5.0], [1.0, 5.0]), False, []),
    # two crossing routes, then their schedule, whose pieces all have one
    # segment: no solve in either pass
    ([[(0.0, 5.0), (12.0, 5.0)], [(6.0, 0.0), (6.0, 12.0)]], True, []),
])
def test_smooth_and_validate_solves_only_multi_segment_pieces(paths, scheduled, want, monkeypatch):
    probs = [make_problem(r, wps) for r, wps in enumerate(paths)]
    steps = [[p.waypoints[0], p.waypoints[-1]] for p in probs]
    real_solve = np.linalg.solve
    calls = []

    def counting_solve(a, b):
        calls.append((np.shape(a), np.shape(b)))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    assert smooth_and_validate(probs, free_grid(), steps)[1] == scheduled
    assert calls == [((1, 13 * k + 3, 13 * k + 3), (2, 13 * k + 3, 1)) for k in want]


def test_sample_common_equals_stacked_eval_many():
    rng = np.random.default_rng(5)
    trajs = []
    for _ in range(6):
        wps = rng.uniform(0.0, 20.0, (int(rng.integers(2, 6)), 2))
        trajs.append(min_snap(wps, allocate_times(wps, float(rng.uniform(0.5, 3.0)))))
    s = sample_common(trajs, 0.07)
    t_max = max(tr.total_time for tr in trajs)
    assert s.t[-1] == t_max and np.array_equal(s.t[:-1], np.arange(0.0, t_max, 0.07)[: len(s.t) - 1])
    assert any(tr.total_time < t_max for tr in trajs)  # some robots finish early
    for order, got in enumerate((s.pos, s.vel, s.acc)):
        want = np.array([tr.eval_many(s.t, order) for tr in trajs])
        if order:
            for r, tr in enumerate(trajs):
                want[r, s.t > tr.total_time] = 0.0
        assert np.array_equal(got, want)


def test_perm_table_and_snap_gram_equal_loop_definitions():
    # the problem is fixed: degree 7, snap (order 4)
    assert (trajopt.DEGREE, trajopt.SNAP_ORDER) == (7, 4)
    assert [[type(v) for v in row] for row in _PERM] == [[float] * 8] * 8
    assert _PERM == tuple(tuple(_perm(j, q) for q in range(8)) for j in range(8))
    rng = np.random.default_rng(9)
    for duration in [0.1, 1.0, 2**0.5, *rng.uniform(0.05, 5.0, 20).tolist()]:
        g = _snap_gram(duration)
        assert np.array_equal(g, snap_gram_reference(duration, 7, 4))
        assert not g.flags.writeable
        assert _snap_gram(duration) is g
    assert _snap_gram.cache_info().maxsize is not None

