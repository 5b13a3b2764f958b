"""Trajectory optimization tests: time allocation, the minimum-snap QP
against closed-form and quadrature oracles, derivative continuity, sampling,
validation of crafted infeasible plans, and the repair loop."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from swarmplan.grid import OccupancyGrid
from swarmplan.trajopt import (
    PolynomialTrajectory,
    SmoothingProblem,
    TimeAllocation,
    UnrepairableError,
    Violation,
    allocate_times,
    min_snap,
    qp_objective,
    repair,
    sample,
    smooth_and_validate,
    validate,
)


def free_grid(w=40, h=40):
    return OccupancyGrid(prob=np.zeros((h, w)), resolution=1.0)


def test_time_allocation_knots_and_total():
    ta = TimeAllocation(durations=np.array([1.0, 2.0, 0.5]))
    assert np.allclose(ta.knots, [0.0, 1.0, 3.0, 3.5])
    assert ta.total == pytest.approx(3.5)


@pytest.mark.parametrize("durations", [[], [0.0], [1.0, -2.0]])
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
        for j in range(traj.degree, order - 1, -1):
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
    assert validate(trajs, free_grid(), probs) == []


def test_validate_detects_obstacle_hit():
    prob = np.zeros((20, 20))
    prob[5, 10] = 1.0  # cell (10, 5)
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    p = make_problem(0, [(5.0, 5.0), (15.0, 5.0)])
    report = validate([p.solve()], grid, [p])
    assert any(v.kind == "obstacle" and v.robot == 0 for v in report)


def test_validate_detects_separation_loss():
    probs = [
        make_problem(0, [(0.0, 5.0), (12.0, 5.0)]),
        make_problem(1, [(12.0, 5.2), (0.0, 5.2)]),
    ]
    trajs = [p.solve() for p in probs]
    report = validate(trajs, free_grid(), probs, d_safe=1.0)
    seps = [v for v in report if v.kind == "separation"]
    assert seps and seps[0].robot == 0 and seps[0].other == 1


def test_validate_reports_separation_at_deepest_point():
    probs = [
        make_problem(0, [(0.0, 5.0), (12.0, 5.0)]),
        make_problem(1, [(12.0, 5.0), (0.0, 5.0)]),
    ]
    trajs = [p.solve() for p in probs]
    report = validate(trajs, free_grid(), probs, d_safe=1.0)
    v = next(v for v in report if v.kind == "separation")
    # head-on symmetric pass: the deepest point is mid-crossing
    d_at = np.linalg.norm(trajs[0].eval(v.time) - trajs[1].eval(v.time))
    assert d_at < 0.5


def test_validate_detects_corridor_departure():
    # An aggressive corner at speed overshoots the corridor around its chords.
    wps = [(2.0, 2.0), (12.0, 2.0), (12.0, 12.0)]
    ta = TimeAllocation(np.array([1.0, 1.0]))
    p = SmoothingProblem.from_waypoints(0, wps, ta)
    report = validate([p.solve()], free_grid(), [p], corridor_halfwidth=1.0)
    assert any(v.kind == "corridor" for v in report)


def test_validate_holds_final_position_for_finished_robot():
    probs = [
        make_problem(0, [(2.0, 2.0), (4.0, 2.0)]),       # finishes early
        make_problem(1, [(2.0, 8.0), (30.0, 8.0)], v=1.0),
    ]
    trajs = [p.solve() for p in probs]
    assert validate(trajs, free_grid(), probs) == []


def test_repair_mutates_problem_on_separation():
    probs = [
        make_problem(0, [(0.0, 5.0), (12.0, 5.0), (12.0, 10.0)]),
        make_problem(1, [(12.0, 5.0), (0.0, 5.0), (0.0, 10.0)]),
    ]
    snapshot = [
        (list(p.durations), list(p.waypoints), set(p.rest_indices)) for p in probs
    ]
    trajs = [p.solve() for p in probs]
    report = [
        v for v in validate(trajs, free_grid(), probs) if v.kind == "separation"
    ]
    assert report
    repair(probs, report, {}, trajs)
    after = [
        (list(p.durations), list(p.waypoints), set(p.rest_indices)) for p in probs
    ]
    assert after != snapshot  # a pin, delay, or slowdown was applied


def test_repair_slows_pair_when_geometry_is_clean():
    # Perpendicular crossing with no chord deviation: the only lever is
    # timing, so repair must lengthen someone's schedule.
    probs = [
        make_problem(0, [(0.0, 5.0), (12.0, 5.0)]),
        make_problem(1, [(6.0, 0.0), (6.0, 12.0)]),
    ]
    before = sum(sum(p.durations) for p in probs)
    trajs = [p.solve() for p in probs]
    report = [
        v for v in validate(trajs, free_grid(), probs) if v.kind == "separation"
    ]
    assert report
    repair(probs, report, {}, trajs)
    after = sum(sum(p.durations) for p in probs)
    assert after > before


def test_smooth_and_validate_resolves_crossing():
    # perpendicular routes whose midpoints meet simultaneously
    probs = [
        make_problem(0, [(0.0, 5.0), (12.0, 5.0)]),
        make_problem(1, [(6.0, 0.0), (6.0, 12.0)]),
    ]
    trajs = smooth_and_validate(probs, free_grid())
    assert validate(trajs, free_grid(), probs) == []


def test_smooth_and_validate_raises_for_parked_overlap():
    # Two robots parked 0.5 apart can never be separated by retiming.
    probs = [
        make_problem(0, [(5.0, 5.0), (5.0, 5.0)]),
        make_problem(1, [(5.5, 5.0), (5.5, 5.0)]),
    ]
    with pytest.raises(UnrepairableError) as info:
        smooth_and_validate(probs, free_grid())
    err = info.value
    assert err.violations
    assert all(v.kind == "separation" and (v.robot, v.other) == (0, 1) for v in err.violations)
    msg = str(err)
    assert f"{len(err.violations)} violation(s)" in msg
    for v in err.violations:
        assert f"separation robots 0-1 at t={v.time:.3f}" in msg


def test_violation_fields():
    v = Violation("separation", 0, 1.5, other=2)
    assert (v.kind, v.robot, v.time, v.other) == ("separation", 0, 1.5, 2)
