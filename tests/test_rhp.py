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
from swarmplan.paths import line_of_sight, point_segment_distance
from swarmplan.rhp import (
    HorizonPlan,
    RhpConfig,
    Scenario,
    execute_fraction,
    metrics,
    plan_horizon,
    run,
)
from swarmplan.trajopt import UnrepairableError, Violation


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


def corner_scenario(starts=((2, 2), (9, 9))):
    """A free 12x12 map but for the occupied cell (3, 3), which blocks the
    chord (2, 2)-(4, 4)."""
    prob = np.zeros((12, 12))
    prob[3, 3] = 1.0
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    return Scenario(grid=grid, static=None, iparams=IPARAMS, goal=None, start=tuple(Cell(*c) for c in starts))


def test_execute_fraction_holds_finished_robot_at_rest():
    # Robot 0 turns the corner (4, 2), so the horizon runs as two
    # transitions; robot 1 makes its one move in the first and must then
    # hold its cell at rest through the second.
    sc = corner_scenario()
    plan = HorizonPlan(
        discrete=[
            DiscretePath(0, [Cell(2, 2), Cell(3, 2), Cell(4, 2), Cell(4, 3), Cell(4, 4)]),
            DiscretePath(1, [Cell(9, 9), Cell(9, 10), Cell(9, 10), Cell(9, 10), Cell(9, 10)]),
        ],
        sweeps=[],
    )
    record = execute_fraction(plan, 1.0, sc, small_config())
    assert record.steps == 4
    assert record.end_cells == (Cell(4, 4), Cell(9, 10))
    assert [p.source_steps for p in record.pruned] == [(0, 2, 4)] * 2
    done = record.t > 2.0  # the first transition's longest chord is 2 cells
    assert done.any() and not done.all()
    held = record.pos[1, done]
    assert np.array_equal(held, np.broadcast_to([9.0, 10.0], held.shape))
    assert np.all(record.vel[1, done] == 0.0)
    assert np.all(record.acc[1, done] == 0.0)
    # robot 0 is still moving over the same stretch
    assert np.any(record.vel[0, done] != 0.0)


@pytest.mark.parametrize("lanes, split", [
    # parallel lanes far apart: the whole horizon is one transition
    ([[(x, 5) for x in range(13)], [(x, 20) for x in range(13)]], False),
    # a lane that dips under a parked robot: the whole chord runs through
    # it, so the exact separation test splits the horizon
    ([[(x, 6) for x in range(5)] + [(5, 5), (6, 5), (7, 5)] + [(x, 6) for x in range(8, 13)],
      [(6, 6)] * 13], True),
])
def test_execute_fraction_evaluates_each_validated_pass_once(lanes, split, monkeypatch):
    # the record is one closed-form sampling of the checked transitions: no
    # polynomial is evaluated, no schedule is built, nothing is sampled twice
    calls = Counter()
    for owner, name in ((trajopt, "_eval_common"), (trajopt, "repair"), (rhp, "sample_transitions")):
        def counting(*args, real=getattr(owner, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    plan = HorizonPlan(
        discrete=[DiscretePath(r, [Cell(*c) for c in cells]) for r, cells in enumerate(lanes)],
        sweeps=[],
    )
    record = execute_fraction(plan, 1.0, free_scenario(goal=None), small_config())
    assert record.steps == 12
    assert calls == Counter(sample_transitions=1)
    anchors = record.pruned[0].source_steps
    assert (anchors[0], anchors[-1]) == (0, 12)
    assert (len(anchors) > 2) == split
    # every transition keeps the pair d_safe apart, in the samples too
    assert np.linalg.norm(record.pos[0] - record.pos[1], axis=1).min() >= 1.0 - 1e-9


def test_run_samples_once_per_executed_horizon(monkeypatch):
    # `plan` prunes, smooths, solves and repairs nothing: each executed
    # horizon is sampled once, as transitions
    calls = Counter()
    for owner, name in ((rhp, "prune"), (rhp, "smooth_and_validate"), (trajopt, "solve_problems"),
                        (trajopt, "repair"), (trajopt, "validate"), (rhp, "sample_transitions")):
        def counting(*args, real=getattr(owner, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    result = run(free_scenario(), small_config())
    assert result.horizons > 1
    assert calls == Counter(sample_transitions=len(result.pruned))


def test_plan_horizon_does_not_prune(monkeypatch):
    calls = []
    monkeypatch.setattr(rhp, "prune", lambda *args, **kwargs: calls.append(args))
    plan = first_plan(free_scenario(), small_config())
    assert not plan.terminal
    assert calls == []


def test_run_logs_the_anchors_of_each_executed_horizon(monkeypatch):
    # each executed horizon logs, per robot, its cell at every transition
    # anchor, with the anchor's step counted from the horizon's start
    records = []
    real_execute = rhp.execute_fraction

    def recording_execute(*args, **kwargs):
        records.append(real_execute(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(rhp, "execute_fraction", recording_execute)
    result = run(free_scenario(), small_config())
    assert result.horizons > 1
    assert result.pruned == [r.pruned for r in records]
    first = 0  # each horizon's first step in the run's discrete log
    for horizon, record in zip(result.pruned, records):
        anchors = horizon[0].source_steps
        assert (anchors[0], anchors[-1]) == (0, record.steps)
        assert list(anchors) == sorted(set(anchors))
        for r, p in enumerate(horizon):
            assert (p.robot, p.source_steps) == (r, anchors)
            assert p.waypoints == tuple(result.discrete[r][first + k] for k in anchors)
        first += record.steps


def test_unrepairable_horizon_logs_no_chords(monkeypatch):
    # every pair reported at distance 0: the first single step fails
    def touching(a, b):
        first, second, dist = trajopt.transition_separations(a, b)
        return first, second, np.zeros_like(dist)

    monkeypatch.setattr(rhp, "transition_separations", touching)
    result = run(free_scenario(), small_config())
    assert result.status == rhp.STATUS_UNREPAIRABLE
    assert result.horizons == 1
    assert result.pruned == []
    assert result.reason.startswith("6 violation(s) on a single step: separation robots 0-1 at t=0.000")


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
# <seed>`, and swarm-n10 seed 0 (N=10, 60 horizons), recorded on x86-64
# with numpy 2.4 and OpenBLAS.
# Corridor seed 5 is the one that ends `cycle`, at its stream's first
# repeated state.
# PLAN_DIGESTS is SHA-256 over repr of (status, horizons, discrete cells):
# what ICM planned and executed, which nothing after the MRF stage may
# change. TRAJECTORY_DIGESTS is SHA-256 over the bytes of t, pos, vel and
# acc. A faster trajectory path must reproduce both; a change meant to alter
# trajectories records new trajectory digests and says why. They were last
# re-recorded when each horizon became swarm transitions.
PLAN_DIGESTS = {
    ("corridor", 0): "402c78dc0f8875b8a964d85bcd634331addf265eea79546d2885a4a10b898f5e",
    ("blocks", 1): "2e1a68b1fbb47d41b7b1d4c28d9cd14a91d8aa46f99a7f044675ab5c2a1e174c",
    ("corridor", 5): "48b4cea689d04f6caf8cd0ab340a78034759fc2322824f07b943bd2c3d8e558d",
    ("swarm-n10", 0): "33d77fcddf7c0795eb138b82c074730dbc7ce474be8df98b50602169958e9527",
}
TRAJECTORY_DIGESTS = {
    ("corridor", 0): "c0a513adc65aa5b0765ccba099d44dac38261f055758ef754f733dee2cac5fd4",
    ("blocks", 1): "cd7813b36ebc7dbbd101775697c18df40ad06e8e5b80e027792c13fc07bf1eee",
    ("corridor", 5): "559e06869988cff68b36863918ed4426fe47a6e649304f5196e81ae40a427a4d",
    ("swarm-n10", 0): "1eb715cfacaba95cfce37a46eb45ffe63d75b57c883f2b0e5b11ed4ce9c41269",
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
# reason, energies, moved counts, number of sweep-seconds rows, transition
# anchors), then the bytes of t, pos, vel and acc. Recorded on x86-64 with
# numpy 2.4 and OpenBLAS. A change that alters a plan, a record or a
# trajectory re-records the runs it changes and says why; all 29 were
# re-recorded when each horizon became swarm transitions.
MATRIX_DIGESTS = {
    ("corridor", 5, 0): "7cede9adb70247700410b8be0e9b6728349d78b651edfb5ed39a812ae356103d",
    ("corridor", 5, 1): "7d7d709a77d61bc01b48a8abdf7290f7b80dc730bebd2317c305128c22ff5211",
    ("corridor", 5, 2): "699e3e089e2aa03e6546fcdad8538c013719a5448e517239da56b93302db70d5",
    ("corridor", 5, 3): "db15a7c4ad9d237f5c2c73a2109351b2fd746226049feebc6a764f2d5d26684b",
    ("corridor", 5, 4): "3906f6057905383454de40be0469777f70528d7e5f90d3d4c6c1437100ec7ddf",
    ("corridor", 5, 5): "3b87869304718ade01e72c1b886f3aafeb4c16d72ae76d64689d5598384fd399",
    ("corridor", 5, 6): "92daf0a0e5d1763a515d554114df72bc3a75803373796f52170a0c2a30ff2d24",
    ("corridor", 5, 7): "22af86ec8e1be1aa6ea72c8a4de7bcfa4c082fdd1fc3cbd13ccba4291029fe32",
    ("corridor", 5, 8): "e938c47b482b830132482517ab53e5eb08da7095970bd275b0d816e73660241f",
    ("corridor", 5, 9): "ab44641225d5dc3e8b2c50e1ee8e7c14dcde82a75c900008248b81316a5027db",
    ("blocks", 5, 0): "27a903a2a2ae00f3114dcd78dce5b2435fe543839e8ed8f091079cc5eb45e1a4",
    ("blocks", 5, 1): "83d2b5639f54d2f80e50219aa69b4b4e9fa4644cabd353dc45c5667b15655b45",
    ("blocks", 5, 2): "40925d2e7c781bebbbb132ef00f7adf33c4eaacffb6438ed177b808702ebb26a",
    ("blocks", 5, 3): "9c629cf8f54dfebc548c13287a067f1da97335d00bdf9d7ab916c1cb07f44252",
    ("blocks", 5, 4): "f6c9a2b647d9b38a0aab97a123a32f0fb64f2cf0b529b1163a7a8057a03b5e89",
    ("blocks", 5, 5): "28af68c7c88c1e1f2e296e320aeba897c9f64e5e892db8ea673bad8ef987d6d0",
    ("blocks", 5, 6): "fa05ff21cf9ab451511819d7813ffce65fe70de8ca19129fb8f36513b7f2f89b",
    ("blocks", 5, 7): "57cef871f07c1585aa680eef8aad0e1c21f793aed81b5e4cd910d938fe68f658",
    ("blocks", 5, 8): "85244e8a26afcce93a4c60cd89f7143df41128d91c0d2c7afede986d5f912aa9",
    ("blocks", 5, 9): "c4e5f7889d4f4deb7180e57c0e81bfa4972420b1e46f4299dc764c220e44a724",
    ("corridor", 10, 0): "01ae5503cb058880362a1919103decf533a0bf3c5205c99292be0a9ab3bb3608",
    ("corridor", 10, 1): "4a93707dd6df56457abe99a412c4c291e30aa9827b3e4393645d74006ce8db15",
    ("corridor", 10, 2): "7b29d596a01b53c9d0d11ada1401dbe369d0179124677beee948625c2f01d1f7",
    ("swarm-n10", 10, 0): "143ca233edb5f1bebd4c1e67649db758ccb13b01ef14b81a7a917ead6626f7de",
    ("swarm-n10", 10, 1): "b1eb2b5684e7d036ba359c8b025374c81ddf7d3031347ae813ff5ebe9cc57719",
    ("swarm-n10", 10, 2): "cd4c3ae415bde760bb2365ce412a6ad6e07f88f57e55e119c9c9f0a5e9e5c378",
    ("swarm-n10", 20, 0): "e00ba470f073836f22d3cf5051de9c5b8a3efdc5bb9b24e7e75ba3d355625aa9",
    ("swarm-n10", 20, 1): "a77f9d0f87e1865a278f76f1b53bf598b6bacb5d24c4828e1e4f17794f45399a",
    ("swarm-n10", 20, 2): "300c2a9964b61222b029bbd90e402936b2027e9ead0b3d883053d9fa0c94bfef",
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
    # two matrix runs with a horizon of several transitions: every robot
    # rests at each anchor, so every executed piece is one chord in closed
    # form
    def no_qp(*args):
        raise AssertionError("a QP was solved")

    monkeypatch.setattr(trajopt, "build_qp", no_qp)
    monkeypatch.setattr(trajopt, "solve_qp", no_qp)
    result = run(*matrix_setup(name, robots, seed))
    assert any(len(p.waypoints) > 2 for horizon in result.pruned for p in horizon)
    assert result.horizons > 1 and result.status != rhp.STATUS_UNREPAIRABLE


def test_execute_fraction_rests_at_a_kept_corner():
    # the occupied cell (3, 3) blocks the chord (2, 2)-(4, 4): the corner
    # (4, 2) is an anchor, and the robot runs each chord rest-to-rest
    sc = corner_scenario()
    cells = [Cell(2, 2), Cell(3, 2), Cell(4, 2), Cell(4, 3), Cell(4, 4)]
    plan = HorizonPlan(discrete=[DiscretePath(0, cells), DiscretePath(1, [Cell(9, 9)] * 5)], sweeps=[])
    record = execute_fraction(plan, 1.0, sc, small_config())
    wps = record.pruned[0].waypoints
    assert wps == (Cell(2, 2), Cell(4, 2), Cell(4, 4))
    assert record.pruned[1].waypoints == (Cell(9, 9),) * 3
    knots = np.array([0.0, 2.0, 4.0])  # each transition's longest chord is 2 cells
    chord = np.minimum(knots.searchsorted(record.t, side="right") - 1, len(wps) - 2)
    for p, k in zip(record.pos[0].tolist(), chord.tolist()):
        assert point_segment_distance(p, wps[k], wps[k + 1]) <= 1e-9
    corner = np.flatnonzero(record.t == knots[1])
    assert len(corner) == 1
    assert np.all(record.vel[0, corner] == 0.0)
    assert np.array_equal(record.pos[0, corner[0]], [4.0, 2.0])


def test_execute_fraction_splits_a_merge_that_passes_too_close():
    # robot 0 turns around the held robot 1: each single step keeps 1.0
    # from it, but the merged diagonal chord passes 0.71 away
    sc = free_scenario(goal=None, starts=((5, 5), (5, 6)))
    plan = HorizonPlan(
        discrete=[DiscretePath(0, [Cell(5, 5), Cell(6, 5), Cell(6, 6)]), DiscretePath(1, [Cell(5, 6)] * 3)],
        sweeps=[],
    )
    record = execute_fraction(plan, 1.0, sc, small_config())
    assert record.pruned[0].source_steps == (0, 1, 2)
    assert np.linalg.norm(record.pos[0] - record.pos[1], axis=1).min() >= 1.0 - 1e-12


@pytest.mark.parametrize("d_safe, passes", [(1.0, True), (1.0 + 1e-6, False)])
def test_execute_fraction_separation_limit_is_exact(d_safe, passes):
    # two robots one cell apart, moving side by side: exactly d_safe apart
    # passes, 1e-6 closer fails, and a single step that fails raises
    sc = free_scenario(goal=None, starts=((5, 5), (5, 6)))
    plan = HorizonPlan(
        discrete=[DiscretePath(0, [Cell(5, 5), Cell(7, 5)]), DiscretePath(1, [Cell(5, 6), Cell(7, 6)])],
        sweeps=[],
    )
    config = small_config(d_safe=d_safe)
    if passes:
        assert execute_fraction(plan, 1.0, sc, config).end_cells == (Cell(7, 5), Cell(7, 6))
        return
    with pytest.raises(UnrepairableError) as exc:
        execute_fraction(plan, 1.0, sc, config)
    assert str(exc.value) == "1 violation(s) on a single step: separation robots 0-1 at t=0.000"


@pytest.mark.parametrize("occupied, through", [((3, 3), True), ((3, 2), False)])
def test_execute_fraction_checks_a_single_step_without_line_of_sight(occupied, through):
    # a single step from (2, 2) to (4, 4) or (3, 3), through an occupied
    # cell or touching one at a corner: neither has line of sight, which ICM
    # candidates always have, so either raises naming the robot at the time
    # the step starts
    prob = np.zeros((12, 12))
    prob[occupied[1], occupied[0]] = 1.0
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    sc = Scenario(grid=grid, static=None, iparams=IPARAMS, goal=None, start=(Cell(2, 2), Cell(9, 9)))
    end = Cell(4, 4) if through else Cell(3, 3)
    plan = HorizonPlan(
        discrete=[DiscretePath(0, [Cell(2, 2), end]), DiscretePath(1, [Cell(9, 9)] * 2)], sweeps=[]
    )
    assert not line_of_sight(grid, Cell(2, 2), end)
    with pytest.raises(UnrepairableError) as exc:
        execute_fraction(plan, 1.0, sc, small_config())
    assert str(exc.value) == "1 violation(s) on a single step: obstacle robot 0 at t=0.000"


def test_execute_fraction_names_a_failing_step_at_its_start_time():
    # robot 0 steps (2, 2) -> (3, 2), then (3, 2) -> (5, 4) through the
    # occupied (4, 3), which the merged chord from (2, 2) also crosses: the
    # first step runs alone for 1.0 s, and the second fails at t = 1.0
    prob = np.zeros((12, 12))
    prob[3, 4] = 1.0
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    sc = Scenario(grid=grid, static=None, iparams=IPARAMS, goal=None, start=(Cell(2, 2), Cell(9, 9)))
    plan = HorizonPlan(
        discrete=[DiscretePath(0, [Cell(2, 2), Cell(3, 2), Cell(5, 4)]), DiscretePath(1, [Cell(9, 9)] * 3)],
        sweeps=[],
    )
    with pytest.raises(UnrepairableError) as exc:
        execute_fraction(plan, 1.0, sc, small_config())
    assert str(exc.value) == "1 violation(s) on a single step: obstacle robot 0 at t=1.000"


@pytest.mark.parametrize("resolution, d_safe", [(1.0, 1.5), (0.5, 0.75)])
def test_run_rejects_a_d_safe_above_the_resolution(resolution, d_safe):
    # distinct cells and single ICM steps keep robots one cell apart
    sc = free_scenario()
    sc = dataclasses.replace(sc, grid=OccupancyGrid(prob=sc.grid.prob, resolution=resolution))
    with pytest.raises(ValueError, match=r"^d_safe must not exceed the grid resolution"):
        run(sc, small_config(d_safe=d_safe))
    assert run(sc, small_config(d_safe=resolution, max_horizons=1)).horizons == 1
