"""Command-line tests: configuration round-trips, seeded stream RNG,
scenario generation, subcommand exit codes, and output-file determinism."""

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmplan import cli, graph, rhp
from swarmplan.cli import (
    EXIT_CONFIG,
    EXIT_CYCLE,
    EXIT_OK,
    EXIT_UNREPAIRABLE,
    ConfigError,
    ScenarioConfig,
    build_scenario,
    generate_scenario,
    run_command,
    sample_start,
    stream_rng,
    waypoint_problems,
)
from swarmplan.graph import build_interaction_graph, check_connectivity_condition
from swarmplan.grid import Cell
from swarmplan.trajopt import UnrepairableError, Violation


def test_config_text_round_trip():
    cfg = ScenarioConfig(scenario="corridor", robots=7, k=2, seed=11, goal_x=20.0)
    again = ScenarioConfig.from_text(cfg.to_text())
    assert again == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_text("not_a_real_key = 3\n")


def test_config_naming_the_corridor_halfwidth_is_a_config_error(tmp_path, capsys):
    # every executed piece is one chord, so there is no corridor to size
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("corridor_halfwidth = 1.0\n")
    assert run_command(["plan", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "unknown key 'corridor_halfwidth'" in capsys.readouterr().err


def test_stream_rng_deterministic_per_stream():
    a = stream_rng(5, "start").random(4)
    b = stream_rng(5, "start").random(4)
    c = stream_rng(5, "map").random(4)
    d = stream_rng(6, "start").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_generate_free_scenario_defaults():
    cfg = ScenarioConfig(scenario="free")
    grid, filled = generate_scenario("free", cfg, seed=0)
    assert grid.width == grid.height == cfg.map_size
    assert not np.any(grid.prob > 0)
    # goal defaults to the start centroid (map center)
    assert filled.goal_x == filled.start_x == cfg.map_size / 2


def test_generate_corridor_scenario_has_gap():
    cfg = ScenarioConfig(scenario="corridor")
    grid, filled = generate_scenario("corridor", cfg, seed=0)
    wall_rows = np.flatnonzero(np.any(grid.prob >= 0.5, axis=1))
    assert wall_rows.size == cfg.wall_thickness
    for y in wall_rows:
        free = np.flatnonzero(grid.prob[y] < 0.5)
        assert free.size == cfg.corridor_width
    assert filled.start_y < wall_rows[0] < filled.goal_y


def test_generate_blocks_scenario_connected_and_seeded():
    cfg = ScenarioConfig(scenario="blocks")
    g1, _ = generate_scenario("blocks", cfg, seed=3)
    g2, _ = generate_scenario("blocks", cfg, seed=3)
    g3, _ = generate_scenario("blocks", cfg, seed=4)
    assert np.array_equal(g1.prob, g2.prob)
    assert not np.array_equal(g1.prob, g3.prob)
    assert np.any(g1.prob >= 0.5)


@pytest.mark.parametrize("kind, shape", [
    ("free", {"corridor_width": 0, "wall_thickness": 50, "n_blocks": -1, "block_max": 1}),
    ("corridor", {"n_blocks": -1, "block_max": 40}),
    ("blocks", {"corridor_width": -4, "wall_thickness": 0}),
])
def test_scenario_shape_is_checked_only_by_the_kind_that_reads_it(kind, shape):
    grid, _ = generate_scenario(kind, replace(ScenarioConfig(scenario=kind), **shape), seed=0)
    default, _ = generate_scenario(kind, ScenarioConfig(scenario=kind), seed=0)
    assert np.array_equal(grid.prob, default.prob)


@pytest.mark.parametrize("kind, field, bounds", [
    ("corridor", "corridor_width", (1, 40)),
    ("corridor", "wall_thickness", (1, 40)),
    ("blocks", "block_max", (2, 29)),
])
def test_scenario_shape_bounds_are_inclusive(kind, field, bounds):
    for v in bounds:
        generate_scenario(kind, replace(ScenarioConfig(scenario=kind), **{field: v}), seed=0)
    for v in (bounds[0] - 1, bounds[1] + 1):
        with pytest.raises(ConfigError, match=f"^{field} must be in \\[{bounds[0]}, {bounds[1]}\\]$"):
            generate_scenario(kind, replace(ScenarioConfig(scenario=kind), **{field: v}), seed=0)


def test_generate_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        generate_scenario("maze", ScenarioConfig(), seed=0)


@pytest.mark.parametrize("flags, message", [
    (["--goal-x", "30"], "goal position outside the map"),
    (["--start-x", "100"], "start position outside the map"),
    # rounds to column -3, which must not wrap round to column 27
    (["--start-x", "-3"], "start position outside the map"),
])
def test_blocks_scenario_rejects_a_start_or_goal_off_the_map(tmp_path, capsys, flags, message):
    code = run_command(["plan", "--scenario", "blocks", *flags, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    # an OverflowError traceback, and "cannot convert float NaN to integer"
    (["--scenario", "corridor", "--goal-x", "inf"], "goal_x must be finite, got inf"),
    (["--scenario", "corridor", "--goal-x", "nan"], "goal_x must be finite, got nan"),
    (["--scenario", "blocks", "--start-y", "nan"], "start_y must be finite, got nan"),
    # failed as "could not sample a feasible start state in 1000 attempts"
    (["--scenario", "free", "--start-x", "100"], "start position outside the map"),
    (["--scenario", "corridor", "--start-x", "-5"], "start position outside the map"),
])
def test_every_scenario_names_a_start_or_goal_off_the_map(tmp_path, capsys, flags, message):
    code = run_command(["plan", *flags, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    # exited 0 "goal-converged": a NaN comparison never reports a violation
    (["--d-safe", "nan"], "d_safe must be positive and finite"),
    # a separation test that no pair of robots can fail
    (["--d-safe", "0"], "d_safe must be positive and finite"),
    # exited 0 "goal-converged (1 horizons)" with no sweep planned
    (["--horizon", "0"], "planning_horizon must be at least 1"),
    # failed in islice()
    (["--horizon", "-1"], "planning_horizon must be at least 1"),
    # failed as "arange: cannot compute length"
    (["--dt", "nan"], "dt must be positive and finite"),
    # exited 0 "goal-converged (13 horizons)"
    (["--goal-radius", "nan"], "goal_radius must be nonnegative and finite"),
    # failed as "min() arg is an empty sequence"
    (["--goal-amp", "nan"], "goal amplitude and length scale must be positive"),
    # failed as "cannot convert float NaN to integer"
    (["--sigma", "nan"], "sigma and occupied_value must be positive"),
    # exited 2 "max-horizons (0 horizons)"
    (["--max-horizons", "0"], "max_horizons must be at least 1"),
    (["--max-horizons", "-1"], "max_horizons must be at least 1"),
    # failed as "segment durations must be positive and finite"
    (["--v-nominal", "nan"], "v_nominal must be positive and finite"),
    # exited 0 with every segment floored at T_FLOOR
    (["--v-nominal", "inf"], "v_nominal must be positive and finite"),
    # failed after the first horizon was planned, as "fraction must lie in (0, 1]"
    (["--execution-fraction", "0"], "execution_fraction must be in (0, 1]"),
    # failed as "SVD did not converge"
    (["--start-std", "nan"], "start_std must be positive and finite"),
    (["--start-std", "inf"], "start_std must be positive and finite"),
    # ended in an OverflowError traceback
    (["--start-std", "1e200"], "could not sample a feasible start state in 1000 attempts"),
    # ran as --start-std 2
    (["--start-std", "-2"], "start_std must be positive and finite"),
    # failed only after 1000 attempts
    (["--start-std", "0"], "start_std must be positive and finite"),
    # named only by the graph build that start sampling no longer calls
    (["--r-comm", "0"], "r_comm must be positive"),
    (["--r-comm", "-1"], "r_comm must be positive"),
    (["--r-comm", "nan"], "r_comm must be positive"),
    # a wall with no gap, yet exited 0 "goal-converged"
    (["--corridor-width", "0"], "corridor_width must be in [1, 40]"),
    (["--corridor-width", "-4"], "corridor_width must be in [1, 40]"),
    # built no wall
    (["--wall-thickness", "0"], "wall_thickness must be in [1, 40]"),
    # put the wall on rows 35-39: the negative slice start wrapped
    (["--wall-thickness", "50"], "wall_thickness must be in [1, 40]"),
    # ran as 0 blocks
    (["--scenario", "blocks", "--n-blocks", "-1"], "n_blocks must be at least 0"),
    # failed in numpy as "low >= high" and "high <= 0"
    (["--scenario", "blocks", "--block-max", "1"], "block_max must be in [2, 29]"),
    (["--scenario", "blocks", "--block-max", "40"], "block_max must be in [2, 29]"),
    # exited 3, blaming the plan: "1 violation(s) have no execution order:
    # separation robots 0-1 at t=0.000"; distinct cells are 1 m apart
    (["--d-safe", "1.5"], "d_safe must not exceed the grid resolution (1 m)"),
    # exited 0 "goal-converged" with inf on every row of energy.csv
    (["--goal-amp", "inf"], "goal position, amplitude and length scale must be finite"),
    # the same, after a RuntimeWarning from the goal field's exp
    (["--goal-len", "0.01"], "goal field overflows: amplitude 3 with length scale 0.01 on a 40x40 map"),
    # made the interaction offset NaN; failed as "min() arg is an empty sequence"
    (["--attract-len", "inf"], "interaction amplitudes and length scales must be finite"),
])
def test_plan_rejects_a_setting_that_switches_a_check_off(tmp_path, capsys, flags, message):
    code = run_command(["plan", "--scenario", "corridor", "--robots", "5", "--seed", "0", *flags,
                        "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sample_start_distinct_free_connected():
    cfg = ScenarioConfig(scenario="free")
    grid, cfg = generate_scenario("free", cfg, seed=2)
    cells = sample_start(cfg, grid, seed=2)
    assert len(cells) == cfg.robots
    assert len(set(cells)) == cfg.robots
    assert all(grid.is_free(c) for c in cells)
    g = build_interaction_graph(cells, cfg.k)
    assert check_connectivity_condition(g)
    assert cells == sample_start(cfg, grid, seed=2)  # deterministic


def sample_start_reference(cfg, grid, seed):
    """[DERIVED] oracle: one `multivariate_normal` call per attempt, each
    check in Python, the first passing attempt returned."""
    rng = stream_rng(seed, "start")
    mean = np.array([cfg.start_x, cfg.start_y], dtype=float)
    cov = np.eye(2) * cfg.start_std**2
    for _ in range(1000):
        pts = rng.multivariate_normal(mean, cov, size=cfg.robots)
        cells = tuple(Cell(int(round(x)), int(round(y))) for x, y in pts)
        if len(set(cells)) != len(cells):
            continue
        if not all(grid.in_bounds(c) and grid.is_free(c) for c in cells):
            continue
        if check_connectivity_condition(build_interaction_graph(cells, cfg.k, cfg.r_comm)):
            return cells
    return None


def test_sample_start_equals_per_attempt_reference():
    # 210 configs around each scenario's default start: draws are rejected
    # for coincident cells, cells off the map, occupied cells and isolated
    # robots, and a few configs run out of attempts. The last config, twenty
    # robots in a 0.3-cell spread, always does.
    rng = np.random.default_rng(9)
    grids = [
        generate_scenario(kind, ScenarioConfig(scenario=kind), seed=s)
        for kind in ("free", "corridor", "blocks")
        for s in (0, 1)
    ]
    configs = []
    for grid, base in grids:
        for _ in range(35):
            robots = int(rng.integers(2, 21))
            cfg = replace(
                base,
                robots=robots,
                k=int(rng.integers(1, min(robots - 1, 4) + 1)),
                start_x=base.start_x + float(rng.uniform(-3, 3)),
                start_y=base.start_y + float(rng.uniform(-3, 3)),
                start_std=float(rng.choice([1.0, 2.0, 3.0])) + robots / 10,
                r_comm=float(rng.choice([3.0, 6.0, np.inf])),
            )
            configs.append((grid, cfg))
    configs.append((grids[0][0], replace(grids[0][1], robots=20, start_std=0.3)))
    capped = 0
    for seed, (grid, cfg) in enumerate(configs):
        expected = sample_start_reference(cfg, grid, seed)
        if expected is None:
            capped += 1
            with pytest.raises(ConfigError, match="in 1000 attempts"):
                sample_start(cfg, grid, seed)
        else:
            cells = sample_start(cfg, grid, seed)
            assert cells == expected
            assert all(type(c) is Cell and type(c.x) is int and type(c.y) is int for c in cells)
    assert 1 < capped < len(configs) // 10
    assert expected is None


START_GRIDS = {
    kind: generate_scenario(kind, ScenarioConfig(scenario=kind), seed=0)
    for kind in ("free", "corridor", "blocks")
}


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(sorted(START_GRIDS)),
    robots=st.integers(2, 30),
    k_share=st.floats(0.0, 1.0),
    start_std=st.sampled_from([0.1, 0.3, 2.7, 1e-3, 50.0]) | st.floats(1e-3, 50.0),
    # the exact distances 1, sqrt 2 and 2 test the nearest-peer bound at equality
    r_comm=st.sampled_from([np.inf, 1.0, 2.0**0.5, 2.0]) | st.floats(0.5, 12.0),
    offset=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_start_equals_the_reference_on_any_setting(
    kind, robots, k_share, start_std, r_comm, offset, seed
):
    grid, base = START_GRIDS[kind]
    cfg = replace(
        base,
        robots=robots,
        k=1 + int(k_share * (robots - 2)),
        start_std=start_std,
        r_comm=r_comm,
        start_x=base.start_x + offset[0],
        start_y=base.start_y + offset[1],
    )
    expected = sample_start_reference(cfg, grid, seed)
    if expected is None:
        with pytest.raises(ConfigError, match="in 1000 attempts"):
            sample_start(cfg, grid, seed)
    else:
        assert sample_start(cfg, grid, seed) == expected


def test_sample_start_builds_no_graph_and_no_svd(monkeypatch):
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module in (cli, graph):
        monkeypatch.setattr(module, "build_interaction_graph",
                            counted("graph", module.build_interaction_graph))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    grid, cfg = generate_scenario("free", ScenarioConfig(scenario="free"), seed=0)
    for robots, r_comm in ((5, np.inf), (20, np.inf), (20, 3.0)):
        assert len(sample_start(replace(cfg, robots=robots, r_comm=r_comm), grid, 1)) == robots
    assert calls == []


def test_sample_start_draws_doubling_batches_up_to_the_cap(monkeypatch):
    drawn = []
    stream_rng_ = cli.stream_rng

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size):
            drawn.append(size)
            return self.rng.standard_normal(size)

    monkeypatch.setattr(cli, "stream_rng", lambda seed, stream: Counting(stream_rng_(seed, stream)))
    grid, cfg = generate_scenario("free", ScenarioConfig(scenario="free"), seed=0)
    with pytest.raises(ConfigError, match="in 1000 attempts"):
        sample_start(replace(cfg, robots=20, start_std=0.3), grid, 0)
    assert drawn == [(b, 20, 2) for b in (16, 32, 64, 128, 256, 504)]
    assert sum(size[0] for size in drawn) == 1000


def test_build_scenario_validates():
    with pytest.raises(ConfigError):
        build_scenario(ScenarioConfig(robots=1))
    with pytest.raises(ConfigError):
        build_scenario(ScenarioConfig(robots=4, k=4))
    with pytest.raises(ConfigError):
        build_scenario(ScenarioConfig(map_path="/nonexistent/map.txt"))


def test_plan_command_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = run_command(["plan", "--scenario", "free", "--out", str(out)])
    assert code == EXIT_OK
    for name in (
        "energy.csv",
        "discrete_paths.csv",
        "pruned_paths.csv",
        "trajectories.csv",
        "metrics.csv",
        "timing.csv",
        "config.txt",
        "summary.txt",
    ):
        assert (out / name).exists(), name
    assert "status: goal-converged" in (out / "summary.txt").read_text()


def test_plan_command_byte_deterministic(tmp_path):
    stable = [
        "energy.csv",
        "discrete_paths.csv",
        "pruned_paths.csv",
        "trajectories.csv",
        "metrics.csv",
        "config.txt",
        "summary.txt",
    ]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_command(
            ["plan", "--scenario", "free", "--seed", "7", "--out", str(out)]
        )
        assert code == EXIT_OK
        outs.append(out)
    for name in stable:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_plan_outputs_record_each_executed_sweep_once(tmp_path):
    # corridor seed 0 executes 22 sweeps over 12 horizons
    out = tmp_path / "run"
    run_command(["plan", "--scenario", "corridor", "--seed", "0", "--out", str(out)])
    energy = (out / "energy.csv").read_text().splitlines()[1:]
    steps = [r for r in (out / "discrete_paths.csv").read_text().splitlines()[1:] if r.startswith("0,")]
    timing = (out / "timing.csv").read_text().splitlines()[1:]
    assert (len(energy), len(steps), len(timing)) == (23, 23, 22)
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[2] == "sweeps: 22"
    assert summary[3] == f"final_energy: {energy[-1].split(',')[1]}"


def test_pruned_paths_list_each_horizons_anchors_in_the_discrete_cells(tmp_path):
    # corridor N=5 seed 0 runs 12 horizons: in each, every robot lists the
    # same anchor steps from 0, at its own cell that many steps into the
    # horizon, and the last anchor of the last horizon is the last step
    out = tmp_path / "run"
    assert run_command(["plan", "--scenario", "corridor", "--robots", "5", "--seed", "0",
                        "--out", str(out)]) == EXIT_OK
    cells: dict[int, list[tuple[int, int]]] = {}
    for row in (out / "discrete_paths.csv").read_text().splitlines()[1:]:
        r, _, x, y = map(int, row.split(","))
        cells.setdefault(r, []).append((x, y))
    horizons: list[dict[int, list[tuple[int, int, int]]]] = []
    for row in (out / "pruned_paths.csv").read_text().splitlines()[1:]:
        r, w, x, y, s = map(int, row.split(","))
        if r == 0 and w == 0:
            horizons.append({})
        horizons[-1].setdefault(r, []).append((x, y, s))
    assert len(horizons) == 12
    first = 0  # the horizon's first step
    for horizon in horizons:
        assert sorted(horizon) == sorted(cells)
        steps = [s for _, _, s in horizon[0]]
        assert steps[0] == 0
        for r, rows in horizon.items():
            assert [s for _, _, s in rows] == steps
            assert [(x, y) for x, y, _ in rows] == [cells[r][first + s] for s in steps]
        first += steps[-1]
    assert first == len(cells[0]) - 1


@pytest.mark.parametrize("argv, owner, name", [
    (["plan", "--scenario", "corridor", "--max-horizons", "1"], rhp, "run"),
    (["smooth", "--waypoints", "{wp}"], cli, "sample"),
])
def test_a_sample_grid_too_large_to_allocate_is_an_error_line(argv, owner, name, tmp_path, capsys, monkeypatch):
    # a tiny --dt asks numpy for more memory than there is; the stand-in
    # raises numpy's message without allocating anything
    wp = tmp_path / "wp.csv"
    wp.write_text("robot,x,y\n0,2,2\n0,8,2\n")

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.8 GiB for an array with shape (4000000001,)")

    monkeypatch.setattr(owner, name, too_large)
    argv = [a.format(wp=wp) for a in argv] + ["--dt", "1e-9", "--out", str(tmp_path / "o")]
    assert run_command(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: Unable to allocate 29.8 GiB for an array with shape (4000000001,)\n"
    )


def test_plan_command_writes_unrepairable_reason(tmp_path, monkeypatch):
    def failing_execute(*args, **kwargs):
        raise UnrepairableError([Violation("separation", 0, 3.1, other=8)])

    monkeypatch.setattr(rhp, "execute_fraction", failing_execute)
    out = tmp_path / "run"
    code = run_command(["plan", "--scenario", "free", "--out", str(out)])
    assert code == EXIT_UNREPAIRABLE
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[0] == "status: unrepairable"
    assert lines[-1] == (
        "reason: 1 violation(s) remain after repair: "
        "separation robots 0-8 at t=3.100"
    )


def test_plan_command_reaches_the_goal_where_a_step_once_crossed_an_obstacle(tmp_path):
    # every ICM candidate has line of sight from its robot's cell; before
    # candidates were filtered for it, robots 0 and 1 each took a single
    # step through an occupied cell here, and the run ended unrepairable
    # after 5 horizons
    out = tmp_path / "run"
    code = run_command(["plan", "--scenario", "blocks", "--robots", "5", "--seed", "2",
                        "--k", "4", "--goal-amp", "16", "--out", str(out)])
    assert code == EXIT_OK
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[:2] == ["status: goal-converged", "horizons: 12"]
    config = dict(line.split(" = ") for line in (out / "config.txt").read_text().splitlines())
    goal = float(config["goal_x"]), float(config["goal_y"])
    last = {}
    for row in (out / "discrete_paths.csv").read_text().splitlines()[1:]:
        robot, _, x, y = row.split(",")
        last[robot] = int(x), int(y)
    farthest = max(math.hypot(x - goal[0], y - goal[1]) for x, y in last.values())
    assert farthest == 2.0


def test_mrf_only_command(tmp_path):
    # the sweep stream ends at a fixed point (0), at its first repeated
    # state (4) or at the sweep cap (2)
    out = tmp_path / "mrf"
    code = run_command(
        ["mrf-only", "--scenario", "free", "--out", str(out)]
    )
    assert code in (EXIT_OK, 2, EXIT_CYCLE)
    energy = (out / "energy.csv").read_text().splitlines()
    assert energy[0] == "iteration,energy,moved_robots"
    assert len(energy) >= 2
    assert (out / "discrete_paths.csv").exists()


def test_smooth_command(tmp_path):
    wp = tmp_path / "wp.csv"
    wp.write_text("robot,x,y\n0,2,2\n0,8,2\n0,8,8\n1,2,8\n1,8,8\n")
    out = tmp_path / "smooth"
    code = run_command(["smooth", "--waypoints", str(wp), "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "trajectories.csv").read_text().splitlines()
    assert rows[0] == "robot,t,x,y,vx,vy,ax,ay"
    first = rows[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == pytest.approx(2.0, abs=1e-6)
    robots = {r.split(",")[0] for r in rows[1:]}
    assert robots == {"0", "1"}


def test_plan_command_exits_4_on_a_cycle(tmp_path):
    out = tmp_path / "run"
    code = run_command(
        ["plan", "--scenario", "corridor", "--robots", "5", "--seed", "5", "--out", str(out)]
    )
    assert code == EXIT_CYCLE == 4
    assert (out / "summary.txt").read_text().splitlines()[:3] == [
        "status: cycle", "horizons: 16", "sweeps: 30"
    ]


def test_mrf_only_command_exits_4_on_a_cycle(tmp_path, capsys):
    # formation-n20 seed 0 enters a period-6 cycle at sweep 19; the stream
    # ends at its first repeated state instead of replaying to the cap
    config = Path(__file__).resolve().parents[1] / "perfbench/configs/formation-n20.txt"
    out = tmp_path / "mrf"
    code = run_command(["mrf-only", "--config", str(config), "--seed", "0", "--out", str(out)])
    assert code == EXIT_CYCLE
    assert capsys.readouterr().out == "status: cycle (25 sweeps)\n"
    assert len((out / "energy.csv").read_text().splitlines()) == 1 + 26


@pytest.mark.parametrize("r_comm, status", [(5, "goal-converged"), (3, "cycle")])
def test_plan_with_a_finite_r_comm_runs_past_a_horizon_that_isolates_a_robot(tmp_path, capsys, r_comm, status):
    # blocks seed 0 starts connected, and at horizon 4 a robot's graph
    # leaves it isolated: a sweep updates it in its singleton clique, and
    # only the run's start must be connected
    code = run_command(["plan", "--scenario", "blocks", "--robots", "5", "--seed", "0",
                        "--r-comm", str(r_comm), "--out", str(tmp_path / "o")])
    assert capsys.readouterr().out == f"status: {status} (9 horizons)\n"
    assert code == (EXIT_OK if status == "goal-converged" else EXIT_CYCLE)


# two horizons of a pruned_paths.csv: robot 0 moves on in the second, robot 1
# holds its cell through the first
TWO_HORIZONS = """robot,waypoint_index,x,y,source_step
0,0,2,2,0
0,1,5,2,2
1,0,2,8,0
1,1,2,8,0
0,0,5,2,0
0,1,5,4,1
0,2,5,6,2
1,0,2,8,0
1,1,3,8,2
"""


def test_waypoint_problems_join_horizons_at_rest():
    probs = waypoint_problems(TWO_HORIZONS, v_nominal=1.0)
    assert [p.robot for p in probs] == [0, 1]
    assert probs[0].waypoints == [(2.0, 2.0), (5.0, 2.0), (5.0, 4.0), (5.0, 6.0)]
    assert probs[1].waypoints == [(2.0, 8.0), (2.0, 8.0), (3.0, 8.0)]
    assert [p.rest_indices for p in probs] == [{1}, {1}]
    for p in probs:
        # the one segment between equal points is robot 1's hold
        equal = [s for s, (a, b) in enumerate(zip(p.waypoints, p.waypoints[1:])) if a == b]
        assert equal == ([0] if p.robot == 1 else [])
        traj = p.solve()
        joint = traj.times.knots[1]
        assert np.allclose(traj.eval(joint, 1), 0.0, atol=1e-9)


def test_smooth_command_reads_pruned_paths_columns(tmp_path):
    wp = tmp_path / "pruned_paths.csv"
    wp.write_text(TWO_HORIZONS)
    out = tmp_path / "smooth"
    assert run_command(["smooth", "--waypoints", str(wp), "--out", str(out)]) == EXIT_OK
    rows = [r.split(",") for r in (out / "trajectories.csv").read_text().splitlines()[1:]]
    first = {r[0]: r for r in reversed(rows)}
    assert [float(v) for v in first["0"][2:4]] == [2.0, 2.0]
    assert [float(v) for v in first["1"][2:4]] == [2.0, 8.0]
    last = {r[0]: r for r in rows}
    assert np.allclose([float(v) for v in last["0"][2:4]], [5.0, 6.0], atol=1e-9)


@pytest.mark.parametrize("flags, message", [
    # failed as "arange: cannot compute length"
    (["--dt", "nan"], "dt must be positive and finite"),
    # failed as "segment durations must be positive and finite"
    (["--v-nominal", "nan"], "v_nominal must be positive and finite"),
])
def test_smooth_command_names_a_bad_setting(tmp_path, capsys, flags, message):
    wp = tmp_path / "wp.csv"
    wp.write_text("robot,x,y\n0,2,2\n0,8,2\n")
    code = run_command(["smooth", "--waypoints", str(wp), *flags, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def test_smooth_command_missing_file(tmp_path):
    code = run_command(
        ["smooth", "--waypoints", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_CONFIG


def test_smooth_command_reports_a_failed_solve(tmp_path, capsys, monkeypatch):
    # a piece of several segments is solved; its TrajectoryError is an
    # error line and exit code, not a traceback
    wp = tmp_path / "wp.csv"
    wp.write_text("robot,x,y\n0,5,51\n0,1,32\n0,40,3\n0,55,58\n")

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    code = run_command(["smooth", "--waypoints", str(wp), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: KKT system singular (Singular matrix)\n"


def test_smooth_command_solves_a_fast_piece_of_several_segments(tmp_path, capsys):
    # coefficients near 5e8 leave an absolute residual of 1.4e-08, well
    # inside the backward-error bound
    wp = tmp_path / "wp.csv"
    wp.write_text("robot,x,y\n0,5,51\n0,1,32\n0,40,3\n0,55,58\n")
    out = tmp_path / "o"
    code = run_command(["smooth", "--waypoints", str(wp), "--v-nominal", "3000", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert (out / "trajectories.csv").exists()


def _plan_on_map(tmp_path, capsys, coords):
    mapfile = tmp_path / "m.txt"
    mapfile.write_text("gridmap 12 12 1.0\n" + ("0 " * 12 + "\n") * 12)
    argv = ["plan", "--map-path", str(mapfile), "--out", str(tmp_path / "o")]
    for name, value in coords.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    code = run_command(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("coords, message", [
    ({"start_x": 5, "start_y": 5, "goal_x": "inf", "goal_y": 10}, "goal_x must be finite, got inf"),
    ({"start_x": 12, "start_y": 5, "goal_x": 10, "goal_y": 10}, "start position outside the map"),
])
def test_plan_on_a_map_names_a_start_or_goal_off_it(tmp_path, capsys, coords, message):
    code, err = _plan_on_map(tmp_path, capsys, coords)
    assert code == EXIT_CONFIG
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("left_out", ["start_x", "start_y", "goal_x", "goal_y"])
def test_plan_on_a_map_names_each_missing_coordinate(tmp_path, capsys, left_out):
    coords = {"start_x": 5, "start_y": 5, "goal_x": 10, "goal_y": 10}
    del coords[left_out]
    code, err = _plan_on_map(tmp_path, capsys, coords)
    assert code == EXIT_CONFIG
    assert err == f"error: explicit maps require start and goal coordinates; missing {left_out}\n"


def test_plan_on_a_map_names_every_missing_coordinate(tmp_path, capsys):
    code, err = _plan_on_map(tmp_path, capsys, {"start_x": 5, "goal_x": 10})
    assert code == EXIT_CONFIG
    assert "missing start_y, goal_y" in err


def test_mrf_only_on_a_map_without_a_goal_needs_no_goal_coordinates(tmp_path, capsys):
    mapfile = tmp_path / "m.txt"
    mapfile.write_text("gridmap 12 12 1.0\n" + ("0 " * 12 + "\n") * 12)
    out = tmp_path / "o"
    argv = ["mrf-only", "--map-path", str(mapfile), "--start-x", "5", "--start-y", "5", "--no-use-goal"]
    assert run_command(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (out / "discrete_paths.csv").exists()
    # the start is still required, and named alone
    assert run_command(argv[:3] + argv[5:] + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: explicit maps require start coordinates; missing start_x\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("robot,x,y\n0,2,2\n0,3\n", "line 3: cannot read robot, x and y from '0,3'"),
        ("robot,x,y\n0,2,2\n0,a,2\n", "line 3: cannot read robot, x and y from '0,a,2'"),
        ("\n0,2,2\n0,3,2,z\n", "line 3: cannot read robot, x and y from '0,3,2,z'"),
        ("0,2,2\n0,3\n", "line 2: cannot read robot, x and y from '0,3'"),
        ("robot,px,py\n0,2,2\n", "waypoint header has no x or y column"),
        ("robot,x,z\n0,2,2\n", "waypoint header has no y column"),
        ("id,x,y\n0,2,2\n", "line 1: cannot read robot, x and y from 'id,x,y'"),
        ("robot,x,y\n0,2,2\n0,nan,2\n", "line 3: cannot read robot, x and y from '0,nan,2'"),
        ("0,2,2\n0,3,inf\n", "line 2: cannot read robot, x and y from '0,3,inf'"),
    ],
)
def test_smooth_command_names_the_bad_line_or_column(tmp_path, capsys, text, message):
    wp = tmp_path / "wp.csv"
    wp.write_text(text)
    code = run_command(["smooth", "--waypoints", str(wp), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ConfigError, match=message):
        waypoint_problems(text, v_nominal=1.0)


def test_render_field_command(tmp_path):
    out = tmp_path / "field"
    code = run_command(
        ["render-field", "--scenario", "corridor", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = (out / "field.txt").read_text().splitlines()
    assert lines[0].startswith("field 40 40")
    assert len(lines) == 41


def test_render_field_with_robots(tmp_path):
    out = tmp_path / "field"
    code = run_command(
        ["render-field", "--scenario", "free", "--with-robots", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert (out / "field.txt").exists()


def test_config_file_and_override(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(ScenarioConfig(scenario="free", robots=4, k=2, seed=9).to_text())
    out = tmp_path / "run"
    code = run_command(
        ["mrf-only", "--config", str(cfgfile), "--robots", "3", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "robots = 3" in (out / "config.txt").read_text()


def test_invalid_config_path_exit_code(tmp_path):
    code = run_command(
        ["plan", "--config", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_CONFIG


# SHA-256 of each output file except timing.csv (wall times), recorded on
# x86-64 with numpy 2.4 and OpenBLAS. The tests above compare one run with
# another; these pin the bytes themselves, so a refactor of the writers or
# the planner that changes any output byte fails here. The config.txt
# digests were re-recorded when the `corridor_halfwidth = 1.0` line, the
# only change to those files, left with the key.
OUTPUT_DIGESTS = {
    "blocks/config.txt": "674d4d7ca39e028005ddb3524e6ea0dccb8b3bc7800e5f2eeda3814f71bec2cd",
    "blocks/discrete_paths.csv": "1d5f7d04ff61b207fe14154f4fec974230a32653c7ef3568a858324a6b3fd2a9",
    "blocks/energy.csv": "5bbd047e61e06f56ae6a744a67e6ed55d8be0d837ca4545a53e91088abc860d9",
    "blocks/metrics.csv": "1b484b1849ffd971316740b10874dd75f93ca15cb7a23e76b189e61154a8ea19",
    "blocks/pruned_paths.csv": "aa89cd57f6fb5bf31cd5fee26f86204d70a7388e7eb99a79e350d3950d171e18",
    "blocks/summary.txt": "58a0a8c5a1395f42bb4bbe119f1e745bf31f8522bbde2937a80fb06bfd3b3162",
    "blocks/trajectories.csv": "e580fa5ced9cced42d0e2f46234cda9eeade8a7de16e314a57ce0896c71b186b",
    "corridor/config.txt": "a0b361a17486f099e81e49eaa62a1376ff43bc2a4387750c894f47ae18d788b3",
    "corridor/discrete_paths.csv": "c73eae1a4f7a88b1279ab064951d3dfda07476b73dedc5526bd88194987d5d59",
    "corridor/energy.csv": "f43f70cd298d76e21021cd71f0f1008e2eda5ccb1c393c00ea5ff7e7898d986e",
    "corridor/metrics.csv": "c492a657c236c223d5894955b5af2240bd235aa6a5562dac2f1b2e0a936c1057",
    "corridor/pruned_paths.csv": "86ba65a6961b5704909e2662abc56d05eafbbf9237c1ed4778e9efd969e2d0eb",
    "corridor/summary.txt": "c1b4c9daabf281496f977e426f445541be45d155f585f921c9c37c8a1c7b211d",
    "corridor/trajectories.csv": "59c7126f2cf1f4538a1e339cd26298da5166a5764b6746ae400e6b62025a6118",
    "formation/config.txt": "40eba13e66a8e6ee534d60d02b63504d62a34284501d17babf63bf8a6991740d",
    "formation/discrete_paths.csv": "0a2e3377d40617818aa7c6b33491f34366c4bf39b05e1c16bb166d79c51928e6",
    "formation/energy.csv": "894ba845b4af39667016ae24aeacb733e8ed0d759c334a70f615416edc8dcd57",
    "smooth/trajectories.csv": "ff735f2dc9b66ecaa5fd2cc0c2f220d2337433c8d6bbbb92cc2dd972dcc41ef5",
}


def test_output_files_golden_digest(tmp_path):
    formation = Path(__file__).resolve().parents[1] / "perfbench/configs/formation-n20.txt"
    commands = [
        ["plan", "--scenario", "corridor", "--seed", "0", "--out", str(tmp_path / "corridor")],
        ["plan", "--scenario", "blocks", "--seed", "1", "--out", str(tmp_path / "blocks")],
        ["mrf-only", "--config", str(formation), "--seed", "2", "--out", str(tmp_path / "formation")],
        ["smooth", "--waypoints", str(tmp_path / "corridor/pruned_paths.csv"), "--out", str(tmp_path / "smooth")],
    ]
    for argv in commands:
        assert run_command(argv) == EXIT_OK, argv
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*")
        if p.is_file() and p.name != "timing.csv"
    }
    assert digests == OUTPUT_DIGESTS
