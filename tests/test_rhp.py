"""Receding-horizon driver tests: horizon planning, partial execution,
run-loop termination, and metric summaries."""

import dataclasses
import hashlib
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from swarmplan import cli

from swarmplan.fields import GoalParams, InteractionParams, build_goal_field
from swarmplan.grid import Cell, OccupancyGrid
from swarmplan import mrf, rhp, trajopt
from swarmplan.mrf import DiscretePath, OptimizeConfig, make_state
from swarmplan.paths import point_segment_distance
from swarmplan.rhp import (
    HorizonPlan,
    RhpConfig,
    Scenario,
    execute_fraction,
    metrics,
    plan_horizon,
    run,
)
from swarmplan.trajopt import SmoothingProblem, UnrepairableError, Violation


IPARAMS = InteractionParams()


def free_scenario(goal=(25.0, 25.0), starts=((4, 4), (7, 4), (4, 7), (7, 7))):
    grid = OccupancyGrid(prob=np.zeros((32, 32)), resolution=1.0)
    static = build_goal_field(grid, GoalParams(goal=goal)) if goal else None
    return Scenario(
        grid=grid,
        static=static,
        iparams=IPARAMS,
        goal=goal,
        start=tuple(Cell(*s) for s in starts),
    )


def small_config(**kw):
    defaults = dict(
        mrf=OptimizeConfig(k=2),
        planning_horizon=4,
        execution_fraction=0.5,
        max_horizons=60,
        goal_radius=3.0,
    )
    defaults.update(kw)
    return RhpConfig(**defaults)


def first_plan(sc, cfg):
    """The plan of a run's first horizon: `planning_horizon` sweeps of a
    fresh stream from the start, with nothing carried."""
    start = make_state(sc.start, sc.grid, cfg.mrf.k).positions
    mrf_cfg = dataclasses.replace(cfg.mrf, goal=sc.goal)
    stream = mrf.sweeps(start, sc.grid, sc.static, sc.iparams, mrf_cfg)
    return plan_horizon(start, [], stream, cfg.planning_horizon)


@pytest.mark.parametrize("name, value", [
    ("planning_horizon", 0), ("planning_horizon", -1), ("max_horizons", 0), ("max_horizons", -1),
    *((name, value) for name in ("d_safe", "dt", "v_nominal")
      for value in (0.0, -1.0, math.nan, math.inf)),
    ("goal_radius", -1.0), ("goal_radius", math.nan), ("goal_radius", math.inf),
    ("execution_fraction", 0.0), ("execution_fraction", -0.5), ("execution_fraction", 1.5),
    ("execution_fraction", math.nan),
])
def test_rhp_config_rejects_values_that_switch_a_check_off(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        RhpConfig(**{name: value})


def test_rhp_config_accepts_a_zero_goal_radius():
    assert RhpConfig(goal_radius=0.0, planning_horizon=1).goal_radius == 0.0


def test_rhp_config_accepts_one_horizon_and_a_whole_fraction():
    cfg = RhpConfig(max_horizons=1, execution_fraction=1.0)
    assert (cfg.max_horizons, cfg.execution_fraction) == (1, 1.0)


def test_plan_horizon_produces_consistent_plan():
    sc = free_scenario()
    cfg = small_config()
    plan = first_plan(sc, cfg)
    n = len(sc.start)
    assert len(plan.discrete) == n
    steps = len(plan.discrete[0].cells) - 1
    assert 1 <= steps <= cfg.planning_horizon
    assert len(plan.sweeps) == cfg.planning_horizon
    assert not plan.terminal


def test_plan_horizon_terminal_at_fixed_point():
    # Two robots walk to the pair equilibrium next to the goal, (16, 12) and
    # (17, 12), where their stream's third sweep moves no robot. From there
    # no robot moves and the plan is terminal; a zero goal radius keeps the
    # run from stopping at the goal before it plans.
    sc = free_scenario(goal=(16.0, 12.0), starts=((12, 12), (20, 12)))
    cfg = small_config(mrf=OptimizeConfig(k=1), goal_radius=0.0)
    *_, end = mrf.sweeps(sc.start, sc.grid, sc.static, sc.iparams,
                         dataclasses.replace(cfg.mrf, goal=sc.goal))
    assert end.last and end.moved == 0
    assert end.positions == (Cell(16, 12), Cell(17, 12))
    fixed = dataclasses.replace(sc, start=end.positions)
    plan = first_plan(fixed, cfg)
    assert plan.terminal
    assert [p.cells for p in plan.discrete] == [(c,) for c in end.positions]
    assert [(s.moved, s.last) for s in plan.sweeps] == [(0, True)]
    result = run(fixed, cfg)
    assert (result.status, result.horizons) == (rhp.STATUS_GOAL, 1)
    assert len(result.sweep_seconds) == 1 and result.moved_counts == []
    assert len(result.energies) == 1
    assert result.pos.shape == (2, 0, 2) and len(result.t) == 0


def test_execute_fraction_step_count():
    sc = free_scenario()
    cfg = small_config()
    plan = first_plan(sc, cfg)
    steps = len(plan.discrete[0].cells) - 1
    record = execute_fraction(plan, 0.5, sc, cfg)
    e = max(1, math.ceil(0.5 * steps))
    assert record.steps == e
    for r, p in enumerate(plan.discrete):
        assert record.end_cells[r] == p.cells[e]
    # samples start at the current positions and end at the end cells
    assert np.allclose(record.pos[:, 0, :], [tuple(c) for c in sc.start], atol=1e-6)
    assert np.allclose(record.pos[:, -1, :], [tuple(c) for c in record.end_cells], atol=1e-6)


def test_execute_fraction_holds_finished_robot_at_rest():
    # Robot 1 is one cell from its goal and robot 0 has far to go: robot 1's
    # trajectory ends first and must then hold its final cell at rest.
    sc = free_scenario(goal=None, starts=((4, 4), (10, 10)))
    plan = HorizonPlan(
        discrete=[
            DiscretePath(0, [Cell(4, 4), Cell(6, 4), Cell(8, 4), Cell(10, 4)]),
            DiscretePath(1, [Cell(10, 10), Cell(10, 11), Cell(10, 11), Cell(10, 11)]),
        ],
        sweeps=[],
    )
    record = execute_fraction(plan, 1.0, sc, small_config())
    assert record.steps == 3
    assert record.end_cells == (Cell(10, 4), Cell(10, 11))
    done = record.t > record.t[-1] / 2
    assert done.any() and not done.all()
    held = record.pos[1, done]
    assert np.allclose(held, [10.0, 11.0], atol=1e-9)
    assert np.array_equal(held, np.broadcast_to(record.pos[1, -1], held.shape))
    assert np.all(record.vel[1, done] == 0.0)
    assert np.all(record.acc[1, done] == 0.0)
    # robot 0 is still moving over the same stretch
    assert np.any(record.vel[0, done] != 0.0)


@pytest.mark.parametrize("lanes, fallback", [
    # parallel lanes far apart: the smoothed paths pass validation
    ([[(x, 5) for x in range(13)], [(x, 20) for x in range(13)]], False),
    # perpendicular routes whose midpoints meet: the schedule replaces them
    ([[(x, 5) for x in range(13)], [(6, y) for y in range(13)]], True),
])
def test_execute_fraction_evaluates_each_validated_pass_once(lanes, fallback, monkeypatch):
    # the record holds the samples validate checked: one evaluation of the
    # trajectories per validated pass, not a second one for the record
    evals, repairs = [], []
    real_eval, real_repair = trajopt._eval_common, trajopt.repair

    def counting_eval(*args, **kwargs):
        evals.append(1)
        return real_eval(*args, **kwargs)

    def counting_repair(*args, **kwargs):
        repairs.append(1)
        return real_repair(*args, **kwargs)

    monkeypatch.setattr(trajopt, "_eval_common", counting_eval)
    monkeypatch.setattr(trajopt, "repair", counting_repair)
    plan = HorizonPlan(
        discrete=[DiscretePath(r, [Cell(*c) for c in cells]) for r, cells in enumerate(lanes)],
        sweeps=[],
    )
    record = execute_fraction(plan, 1.0, free_scenario(goal=None), small_config())
    assert record.steps == 12
    assert len(repairs) == int(fallback)
    assert len(evals) == 1 + fallback


def test_run_smooths_once_per_executed_horizon(monkeypatch):
    calls = []
    real = rhp.smooth_and_validate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    executed = []
    real_execute = rhp.execute_fraction

    def counting_execute(*args, **kwargs):
        record = real_execute(*args, **kwargs)
        executed.append(record)
        return record

    monkeypatch.setattr(rhp, "smooth_and_validate", counting)
    monkeypatch.setattr(rhp, "execute_fraction", counting_execute)
    result = run(free_scenario(), small_config())
    assert result.horizons > 1
    assert len(executed) >= 1
    assert len(calls) == len(executed)


def test_plan_horizon_does_not_prune(monkeypatch):
    calls = []
    monkeypatch.setattr(rhp, "prune", lambda *args, **kwargs: calls.append(args))
    plan = first_plan(free_scenario(), small_config())
    assert not plan.terminal
    assert calls == []


def test_run_logs_the_chords_each_executed_horizon_smoothed(monkeypatch):
    prunes = []
    real_prune = rhp.prune

    def counting_prune(*args, **kwargs):
        prunes.append(1)
        return real_prune(*args, **kwargs)

    handed = []  # (robot, waypoints) given to the smoother, per horizon
    real_from_waypoints = SmoothingProblem.from_waypoints

    def recording_from_waypoints(robot, waypoints, times):
        handed[-1].append((robot, tuple(waypoints)))
        return real_from_waypoints(robot, waypoints, times)

    real_execute = rhp.execute_fraction

    def recording_execute(*args, **kwargs):
        handed.append([])
        return real_execute(*args, **kwargs)

    monkeypatch.setattr(rhp, "prune", counting_prune)
    monkeypatch.setattr(rhp, "execute_fraction", recording_execute)
    monkeypatch.setattr(SmoothingProblem, "from_waypoints", staticmethod(recording_from_waypoints))
    result = run(free_scenario(), small_config())
    assert result.horizons > 1
    assert len(prunes) == len(handed) == len(result.pruned)
    for horizon, smoothed in zip(result.pruned, handed):
        assert [(p.robot, p.waypoints) for p in horizon] == smoothed
        assert all(p.source_steps[0] == 0 for p in horizon)


def test_unrepairable_horizon_logs_no_chords(monkeypatch):
    error = UnrepairableError([Violation("separation", 0, 1.0, other=1)])

    def failing_smooth(*args, **kwargs):
        raise error

    monkeypatch.setattr(rhp, "smooth_and_validate", failing_smooth)
    result = run(free_scenario(), small_config())
    assert result.status == rhp.STATUS_UNREPAIRABLE
    assert result.horizons == 1
    assert result.pruned == []


def test_run_keeps_unrepairable_reason(monkeypatch):
    error = UnrepairableError([Violation("separation", 0, 3.1, other=8)])

    def failing_execute(*args, **kwargs):
        raise error

    monkeypatch.setattr(rhp, "execute_fraction", failing_execute)
    result = run(free_scenario(), small_config())
    assert result.status == rhp.STATUS_UNREPAIRABLE
    assert result.reason == str(error)
    assert result.reason == (
        "1 violation(s) remain after repair: separation robots 0-8 at t=3.100"
    )


def test_run_stops_at_a_repeated_start_state(monkeypatch):
    # corridor N=5 seed 5: sweep 30 returns to the state of sweep 26, where
    # horizon 14 started, and the run would replay that period-4 cycle until
    # the horizon cap. Horizons 1-14 execute two sweeps each; horizon 15's
    # lookahead ends at the stream's end, sweep 30, so it executes sweep 29
    # and horizon 16 executes sweep 30.
    starts = []
    real_plan = rhp.plan_horizon

    def recording_plan(start, *args, **kwargs):
        starts.append(tuple(start))
        return real_plan(start, *args, **kwargs)

    monkeypatch.setattr(rhp, "plan_horizon", recording_plan)
    args = cli.make_parser().parse_args(
        ["plan", "--scenario", "corridor", "--robots", "5", "--seed", "5", "--out", "unused"]
    )
    sc, cfg = cli.build_scenario(cli._load_cfg(args))
    result = run(sc, cli.rhp_config(cfg))
    assert result.status == rhp.STATUS_CYCLE
    assert result.horizons == len(starts) == 16
    assert len(set(starts)) == len(starts)
    states = list(zip(*result.discrete))
    assert len(states) == 31 and len(set(states[:-1])) == 30
    assert states[-1] == states[26] == starts[13]
    assert result.reason is None


def test_run_without_failure_has_no_reason():
    result = run(free_scenario(), small_config(max_horizons=2))
    assert result.reason is None


def test_execute_fraction_rejects_bad_fraction():
    sc = free_scenario()
    cfg = small_config()
    plan = first_plan(sc, cfg)
    with pytest.raises(ValueError):
        execute_fraction(plan, 0.0, sc, cfg)
    with pytest.raises(ValueError):
        execute_fraction(plan, 1.1, sc, cfg)


def test_run_reaches_goal_in_free_space():
    sc = free_scenario()
    result = run(sc, small_config())
    assert result.status == "goal-converged"
    assert result.horizons <= 60
    for r in range(len(sc.start)):
        end = result.pos[r, -1]
        assert math.hypot(end[0] - 25.0, end[1] - 25.0) <= 4.0


def test_run_concatenates_time_monotonically():
    sc = free_scenario()
    result = run(sc, small_config())
    assert np.all(np.diff(result.t) > 0)
    assert result.pos.shape[1] == len(result.t)
    assert result.vel.shape == result.pos.shape
    assert result.acc.shape == result.pos.shape


def test_run_discrete_log_starts_at_start_cells():
    sc = free_scenario()
    result = run(sc, small_config())
    for r, s in enumerate(sc.start):
        assert result.discrete[r][0] == s
        # consecutive executed cells stay within one MRF move radius
        for a, b in zip(result.discrete[r], result.discrete[r][1:]):
            assert (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 <= 4


def test_run_deterministic():
    sc = free_scenario()
    cfg = small_config()
    r1 = run(sc, cfg)
    r2 = run(sc, cfg)
    assert r1.status == r2.status
    assert np.array_equal(r1.pos, r2.pos)
    assert r1.energies == r2.energies


def test_run_respects_max_horizons():
    sc = free_scenario(goal=(30.0, 30.0))
    cfg = small_config(max_horizons=2)
    result = run(sc, cfg)
    assert result.horizons <= 2
    assert result.status in ("goal-converged", "max-horizons")


def test_metrics_series_and_lengths():
    sc = free_scenario()
    result = run(sc, small_config())
    m = metrics(result)
    assert len(m.min_dist) == len(result.t) == len(m.avg_dist)
    assert np.all(m.min_dist <= m.avg_dist + 1e-12)
    # robots kept their safety separation throughout execution
    assert np.min(m.min_dist) >= 1.0 - 1e-6
    assert len(m.path_lengths) == len(sc.start)
    assert np.all(m.path_lengths > 0)


def test_metrics_requires_samples():
    sc = free_scenario(goal=(5.0, 5.0), starts=((4, 4), (6, 6)))
    cfg = small_config(mrf=OptimizeConfig(k=1), goal_radius=3.0)
    result = run(sc, cfg)
    if result.pos.shape[1] == 0:
        with pytest.raises(ValueError):
            metrics(result)


def test_run_that_starts_at_the_goal_records_nothing():
    # no horizon is planned, so no energy, not even the start's, is recorded
    sc = free_scenario(goal=(5.0, 5.0), starts=((4, 4), (6, 6)))
    result = run(sc, small_config(mrf=OptimizeConfig(k=1), goal_radius=3.0))
    assert (result.status, result.horizons) == (rhp.STATUS_GOAL, 0)
    assert result.energies == result.moved_counts == result.sweep_seconds == []
    assert result.discrete == [[Cell(4, 4)], [Cell(6, 6)]]


def test_obstacle_run_avoids_occupied_cells():
    prob = np.zeros((32, 32))
    prob[:20, 15] = 1.0  # wall with a gap at the top
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    goal = (26.0, 26.0)
    static = build_goal_field(grid, GoalParams(goal=goal))
    sc = Scenario(
        grid=grid,
        static=static,
        iparams=IPARAMS,
        goal=goal,
        start=(Cell(4, 22), Cell(7, 22), Cell(4, 25)),
    )
    result = run(sc, small_config(max_horizons=120))
    for r in range(3):
        for x, y in result.pos[r]:
            cx, cy = round(x), round(y)
            assert grid.is_free((cx, cy)), (r, x, y)


SWARM_N10 = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "swarm-n10.txt"


def plan_setup(*what, seed):
    """The scenario and config of `swarmplan plan <what> --seed <seed>`."""
    args = cli.make_parser().parse_args(["plan", *what, "--seed", str(seed), "--out", "unused"])
    sc, cfg = cli.build_scenario(cli._load_cfg(args))
    return sc, cli.rhp_config(cfg)


def acceptance_setup(scenario, seed):
    """`plan_setup` at N=5 on a standard scenario, or on swarm-n10."""
    what = ["--config", str(SWARM_N10)] if scenario == "swarm-n10" else ["--scenario", scenario, "--robots", "5"]
    return plan_setup(*what, seed=seed)


def acceptance_run(scenario, seed):
    return run(*acceptance_setup(scenario, seed))


# Digests of `acceptance_run`: `plan --scenario <name> --robots 5 --seed
# <seed>`, and swarm-n10 seed 0 (N=10, 60 horizons, 19 of them on the
# execution schedule), recorded on x86-64 with numpy 2.4 and OpenBLAS.
# Corridor seed 5 is the one that ends `cycle`, at its stream's first
# repeated state.
# PLAN_DIGESTS is SHA-256 over repr of (status, horizons, discrete cells):
# what ICM planned and executed, which nothing after the MRF stage may
# change. TRAJECTORY_DIGESTS is SHA-256 over the bytes of t, pos, vel and
# acc. A faster trajectory path must reproduce both; a change meant to alter
# trajectories records new trajectory digests and says why.
PLAN_DIGESTS = {
    ("corridor", 0): "402c78dc0f8875b8a964d85bcd634331addf265eea79546d2885a4a10b898f5e",
    ("blocks", 1): "2e1a68b1fbb47d41b7b1d4c28d9cd14a91d8aa46f99a7f044675ab5c2a1e174c",
    ("corridor", 5): "48b4cea689d04f6caf8cd0ab340a78034759fc2322824f07b943bd2c3d8e558d",
    ("swarm-n10", 0): "33d77fcddf7c0795eb138b82c074730dbc7ce474be8df98b50602169958e9527",
}
TRAJECTORY_DIGESTS = {
    ("corridor", 0): "aa8c79ee92e77aab993d616c1dc80a075f1b77a3507def73fbf420b8b910d30f",
    ("blocks", 1): "ac2831aae4f90b59998de2f614ba9617eb6c5f9ef3ff5f1d4634620c81831243",
    ("corridor", 5): "bf782caf405bfeb14dee69b686bc9cc04b13206cd70d5d4766877ef9db5efb11",
    ("swarm-n10", 0): "3979a10e610da882d24b781cb0c6302c3c3ff37cdb9e13ae789f9d66e3478957",
}


@pytest.mark.parametrize("scenario, seed", sorted(PLAN_DIGESTS))
def test_run_golden_digest(scenario, seed):
    result = acceptance_run(scenario, seed)
    plan = hashlib.sha256(repr((result.status, result.horizons, result.discrete)).encode())
    assert plan.hexdigest() == PLAN_DIGESTS[scenario, seed], "plan changed"
    trajectory = hashlib.sha256()
    for a in (result.t, result.pos, result.vel, result.acc):
        trajectory.update(np.ascontiguousarray(a).tobytes())
    assert trajectory.hexdigest() == TRAJECTORY_DIGESTS[scenario, seed], "trajectories changed"


@pytest.mark.parametrize("scenario, seed", [
    *((kind, seed) for kind in ("corridor", "blocks") for seed in range(10)),
    ("swarm-n10", 0),
])
def test_run_with_carried_sweeps_equals_a_cold_run(scenario, seed, monkeypatch):
    # the one-stream run against a run in which every horizon reads a fresh
    # stream from its own start and carries no sweeps
    sc, cfg = acceptance_setup(scenario, seed)
    handed = []
    real_plan = rhp.plan_horizon

    def recording_plan(start, carried, stream, horizon):
        handed.append(stream)
        return real_plan(start, carried, stream, horizon)

    monkeypatch.setattr(rhp, "plan_horizon", recording_plan)
    carried = run(sc, cfg)
    assert len(handed) == carried.horizons and all(s is handed[0] for s in handed)
    mrf_cfg = dataclasses.replace(cfg.mrf, goal=sc.goal)

    def cold_plan(start, carried, stream, horizon):
        fresh = mrf.sweeps(start, sc.grid, sc.static, sc.iparams, mrf_cfg)
        return real_plan(start, [], fresh, horizon)

    monkeypatch.setattr(rhp, "plan_horizon", cold_plan)
    cold = run(sc, cfg)

    if (scenario, seed) == ("corridor", 5):
        # a horizon's own stream cannot see a state that an earlier horizon
        # executed, so the cold run replays the cycle to the horizon cap; the
        # carried run's executed sweeps are its first ones
        assert (carried.status, cold.status) == (rhp.STATUS_CYCLE, rhp.STATUS_MAX_HORIZONS)
        e = len(carried.moved_counts)
        assert carried.moved_counts == cold.moved_counts[:e]
        assert carried.energies == cold.energies[: e + 1]
        assert all(a == b[: e + 1] for a, b in zip(carried.discrete, cold.discrete))
        return
    for f in dataclasses.fields(rhp.RunResult):
        a, b = getattr(carried, f.name), getattr(cold, f.name)
        if f.name == "sweep_seconds":
            assert len(a) == len(b)
        elif isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def test_run_computes_each_sweep_once_and_records_the_executed_ones(monkeypatch):
    # corridor N=5 seed 0: 12 horizons execute 22 sweeps; the last horizon's
    # lookahead computes one more, which is not executed
    computed = []  # the number of each computed sweep
    real_sweep = mrf._sweep

    def counting_sweep(*args, **kwargs):
        computed.append(args[0])
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(mrf, "_sweep", counting_sweep)
    result = acceptance_run("corridor", 0)
    assert result.horizons == 12
    assert len(result.discrete[0]) - 1 == 22
    assert (len(result.energies), len(result.moved_counts), len(result.sweep_seconds)) == (23, 22, 22)
    assert len(computed) == 23


def test_run_has_one_energy_more_than_moved_counts(monkeypatch):
    # corridor N=5 seed 8 ends at a fixed point: its last horizon's one
    # sweep moves no robot, and only its time is recorded
    plans = []
    real_plan = rhp.plan_horizon

    def recording_plan(*args, **kwargs):
        plan = real_plan(*args, **kwargs)
        plans.append(plan)
        return plan

    monkeypatch.setattr(rhp, "plan_horizon", recording_plan)
    result = acceptance_run("corridor", 8)
    assert plans[-1].terminal
    assert [(s.moved, s.last) for s in plans[-1].sweeps] == [(0, True)]
    assert len(result.energies) == len(result.moved_counts) + 1 == len(result.discrete[0])
    assert len(result.sweep_seconds) == len(result.moved_counts) + 1
    assert all(len(p.discrete[0].cells) == sum(s.moved > 0 for s in p.sweeps) + 1 for p in plans)


def test_sweep_seconds_time_computed_sweeps_only(monkeypatch):
    # every row is the time a computed sweep took, its graph build included,
    # whichever horizon's lookahead computed it
    delay = 0.01
    build = mrf.build_interaction_graph

    def slow_build(*args, **kwargs):
        time.sleep(delay)
        return build(*args, **kwargs)

    monkeypatch.setattr(mrf, "build_interaction_graph", slow_build)
    result = acceptance_run("corridor", 0)
    assert len(result.sweep_seconds) == 22
    assert all(s >= delay for s in result.sweep_seconds)


@pytest.mark.parametrize("seed", [0, 8])
def test_run_builds_its_start_once_and_sweeps_inside_plan_horizon(seed, monkeypatch):
    # corridor N=5 seeds 0 and 8 each compute 23 sweeps, 22 of which move:
    # one start state (one graph) and one start energy per run, then one
    # graph per sweep and one energy per moving sweep, every sweep inside
    # the plan_horizon call that reads it, where the benchmark's clock times
    # it
    calls = Counter()
    for owner, name in ((rhp, "make_state"), (mrf, "build_interaction_graph"),
                        (rhp, "swarm_energy"), (mrf, "swarm_energy")):
        def counting(*args, real=getattr(owner, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    planning = [0]  # plan_horizon calls running
    inside = []  # whether each sweep ran inside one
    real_plan, real_sweep = rhp.plan_horizon, mrf._sweep

    def recording_plan(*args, **kwargs):
        planning[0] += 1
        try:
            return real_plan(*args, **kwargs)
        finally:
            planning[0] -= 1

    def recording_sweep(*args, **kwargs):
        inside.append(planning[0] == 1)
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(rhp, "plan_horizon", recording_plan)
    monkeypatch.setattr(mrf, "_sweep", recording_sweep)
    acceptance_run("corridor", seed)
    assert calls["make_state"] == 1
    assert calls["build_interaction_graph"] == 24
    assert calls["swarm_energy"] == 23
    assert len(inside) == 23 and all(inside)


# The 29-run matrix that ROADMAP measures: corridor and blocks at N=5 seeds
# 0-9, corridor at N=10 seeds 0-2, and swarm-n10 at 10 and 20 robots seeds
# 0-2, each keyed (scenario, robots, seed).
def matrix_setup(name, robots, seed):
    what = ("--config", str(SWARM_N10)) if name == "swarm-n10" else ("--scenario", name)
    return plan_setup(*what, "--robots", str(robots), seed=seed)


# SHA-256 of each matrix run: repr of (status, horizons, discrete cells,
# reason, energies, moved counts, number of sweep-seconds rows, pruned
# chords), then the bytes of t, pos, vel and acc. Recorded on x86-64 with
# numpy 2.4 and OpenBLAS. A change that alters a plan, a record or a
# trajectory re-records the runs it changes and says why.
MATRIX_DIGESTS = {
    ("corridor", 5, 0): "5e55d824af662ab0b8b27143dfe624b3df437d67616b9617c9a68251985c8bd0",
    ("corridor", 5, 1): "0c14fa80d92c74040bea4a16c204e12e5fc4d95663ef72db7242cd85e5ef92cf",
    ("corridor", 5, 2): "7b7d98c97ad66613c415bb10a509f4d5ef90bf2ee90d3e44bb66008d143e7567",
    ("corridor", 5, 3): "87703a5a81a5bfa3a9f0d078c15dd2cbc5ab7399bdc882c138b38512e6d931a5",
    ("corridor", 5, 4): "c82e17bb55a05230c1883f636002b5399c245c4f222d4eba1068b6421703b39a",
    ("corridor", 5, 5): "425e59e2097ac546532b753410f56bb5402fae1d41aff38ed500eb193783049c",
    ("corridor", 5, 6): "026dd47d73c8f1ec262f3fc5fc4148ff610388a161dbade9beb1ebf14ff69de6",
    ("corridor", 5, 7): "32f4505e102001771c847b63f3571fa9425c719a20bcdd1d588a76fdf366b960",
    ("corridor", 5, 8): "0872532464b7fd34d8af1d6a6ae6207e20a148b14ec4f462e1308e9eeef3fb8a",
    ("corridor", 5, 9): "7c28cf5bfae354ac0d8580e3b36e7196d14dbba26a3af26c6036b1b71e3317a0",
    ("blocks", 5, 0): "abf1824682ff4a251972b67fb407c4d9a37115e716afb571778d81916e106d45",
    ("blocks", 5, 1): "523ed76a026029d359b323b99077985f830c1440aef936ccc651d9ae803fe04e",
    ("blocks", 5, 2): "7e90d8171920a0b184ed772721b51953da8bd4ef4dd24ee1767392a8b08a8bef",
    ("blocks", 5, 3): "4970c5fb6f95b2609eecf10fcd6c7e643e06e8330f31f4899487f438f3327211",
    ("blocks", 5, 4): "081f776646f182e6fa070977a31d3f5a815429947c7528b4915372910e613c8f",
    ("blocks", 5, 5): "f128b60b878b2c51af434b558a1ce4626b3e986665eaf3ee308950e3a441545b",
    ("blocks", 5, 6): "b716635685c02a36702c6f3a07c477893c3150c78f5b7eb0370962fbdbde5e7e",
    ("blocks", 5, 7): "2fb6008e4c750b702b21903f1f2d8995657138b9ced7055074a26d3fa6ef882a",
    ("blocks", 5, 8): "f29e200573358696aefb79b2b2fc5f9b80e001f91e70322cce6fe101152de9c2",
    # re-recorded when robots came to rest at every kept waypoint: each of
    # the next two has one horizon whose pruned path keeps a corner, and the
    # corridor run's horizon then passes validation instead of falling back
    ("blocks", 5, 9): "b3b02855f15d04402ef9434afd352d4179b4dbec7fef1e881822079008c6dc45",
    ("corridor", 10, 0): "ad41c7a66ede47c768e79b71ab648122d1d101d06e5c5611b15498425fd7b528",
    ("corridor", 10, 1): "f6c7aecea1dcf341c55e610b1003bc9ec5598bc1d7a3e78d36dc7b253940e4d2",
    ("corridor", 10, 2): "e3bb51b827526a4ead86e887176580a103617ab625459f5be116c78f37314a88",
    ("swarm-n10", 10, 0): "e78aa35548aedbb66862d7f57eb95837932871f7fda411058f892ad0d8e7ea7d",
    ("swarm-n10", 10, 1): "e4a6323f70ec543c25168df45a8483159714ac5d1f9a11f9d8837184cdf8d8ee",
    ("swarm-n10", 10, 2): "81a829b7c7a4bb6ee2190e8ebc2ea413c6061d77440b20afe4d6cc6835209309",
    ("swarm-n10", 20, 0): "53fe37c55db4e2853ad27d461cecaf1372d53172134bc755963e9b8177b388ef",
    ("swarm-n10", 20, 1): "f0752a6fb4696946b5848c91e3fac962fb8ea01d5ebc71d737412f6d32a85f8f",
    ("swarm-n10", 20, 2): "d089b1e6d74f130b46f76018d2e5e053511d6a9dcd1b02f1a7e4b348fbdbf245",
}


def test_matrix_digest():
    got = {}
    for key in MATRIX_DIGESTS:
        r = run(*matrix_setup(*key))
        digest = hashlib.sha256()
        digest.update(repr((r.status, r.horizons, r.discrete, r.reason, r.energies,
                            r.moved_counts, len(r.sweep_seconds), r.pruned)).encode())
        for a in (r.t, r.pos, r.vel, r.acc):
            digest.update(np.ascontiguousarray(a).tobytes())
        got[key] = digest.hexdigest()
    assert len(got) == 29
    assert got == MATRIX_DIGESTS


@pytest.mark.parametrize("name, robots, seed", [("blocks", 5, 9), ("corridor", 10, 0)])
def test_run_solves_no_qp(name, robots, seed, monkeypatch):
    # the matrix's two runs that keep a corner: the robot rests there, so
    # every executed piece is one chord in closed form
    def no_qp(*args):
        raise AssertionError("a QP was solved")

    monkeypatch.setattr(trajopt, "build_qp", no_qp)
    monkeypatch.setattr(trajopt, "solve_qp", no_qp)
    result = run(*matrix_setup(name, robots, seed))
    assert any(len(p.waypoints) > 2 for horizon in result.pruned for p in horizon)
    assert result.horizons > 1 and result.status != rhp.STATUS_UNREPAIRABLE


def test_execute_fraction_rests_at_a_kept_corner():
    # the occupied cell (3, 3) blocks the chord (2, 2)-(4, 4): pruning keeps
    # the corner (4, 2), and the robot runs each chord rest-to-rest
    prob = np.zeros((12, 12))
    prob[3, 3] = 1.0
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    sc = Scenario(grid=grid, static=None, iparams=IPARAMS, goal=None, start=(Cell(2, 2), Cell(9, 9)))
    cells = [Cell(2, 2), Cell(3, 2), Cell(4, 2), Cell(4, 3), Cell(4, 4)]
    plan = HorizonPlan(discrete=[DiscretePath(0, cells), DiscretePath(1, [Cell(9, 9)] * 5)], sweeps=[])
    record = execute_fraction(plan, 1.0, sc, small_config())
    wps = record.pruned[0].waypoints
    assert wps == (Cell(2, 2), Cell(4, 2), Cell(4, 4))
    knots = trajopt.allocate_times(wps).knots
    chord = np.minimum(knots.searchsorted(record.t, side="right") - 1, len(wps) - 2)
    for p, k in zip(record.pos[0].tolist(), chord.tolist()):
        assert point_segment_distance(p, wps[k], wps[k + 1]) <= 1e-9
    corner = np.flatnonzero(record.t == knots[1])
    assert len(corner) == 1
    assert np.all(record.vel[0, corner] == 0.0)
