"""Command-line tests: configuration round-trips, seeded stream RNG,
scenario generation, subcommand exit codes, and output-file determinism."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from swarmplan import cli, rhp
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


def test_generate_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        generate_scenario("maze", ScenarioConfig(), seed=0)


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


def test_sample_start_draws_doubling_batches_up_to_the_cap(monkeypatch):
    drawn = []
    stream_rng_ = cli.stream_rng

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def multivariate_normal(self, mean, cov, size):
            drawn.append(size)
            return self.rng.multivariate_normal(mean, cov, size=size)

    monkeypatch.setattr(cli, "stream_rng", lambda seed, stream: Counting(stream_rng_(seed, stream)))
    grid, cfg = generate_scenario("free", ScenarioConfig(scenario="free"), seed=0)
    with pytest.raises(ConfigError, match="in 1000 attempts"):
        sample_start(replace(cfg, robots=20, start_std=0.3), grid, 0)
    assert drawn == [(b, 20) for b in (1, 2, 4, 8, 16, 32, 64, 128, 256, 489)]


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


def test_mrf_only_command(tmp_path):
    # cap sweeps via the horizon-free MRF config through a config file so the
    # command finishes quickly whether or not it fully converges
    out = tmp_path / "mrf"
    code = run_command(
        ["mrf-only", "--scenario", "free", "--out", str(out)]
    )
    assert code in (EXIT_OK, 2)
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
    assert (out / "summary.txt").read_text().splitlines()[:2] == ["status: cycle", "horizons: 15"]


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


def test_smooth_command_missing_file(tmp_path):
    code = run_command(
        ["smooth", "--waypoints", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_CONFIG


def _plan_on_map(tmp_path, capsys, coords):
    mapfile = tmp_path / "m.txt"
    mapfile.write_text("gridmap 12 12 1.0\n" + ("0 " * 12 + "\n") * 12)
    argv = ["plan", "--map-path", str(mapfile), "--out", str(tmp_path / "o")]
    for name, value in coords.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    code = run_command(argv)
    return code, capsys.readouterr().err


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
# the planner that changes any output byte fails here.
OUTPUT_DIGESTS = {
    "blocks/config.txt": "0216f234a4dc23c27e4e6f00506c40d46e40de9aedb56604fbb122e9d77e3682",
    "blocks/discrete_paths.csv": "1d5f7d04ff61b207fe14154f4fec974230a32653c7ef3568a858324a6b3fd2a9",
    "blocks/energy.csv": "3c6c43c127f4aec3925668863b257e7fa8593bfe5ca0ab4aa6d23f4921ad5d92",
    "blocks/metrics.csv": "8e0ce086747fb26adc18f89d88b8ec0f6e4729ea7ec3f7dcd7184058089b0ca5",
    "blocks/pruned_paths.csv": "6c524438336a63997e854adb68c59099f93d4d212b6661943ef8b4fca8361266",
    "blocks/summary.txt": "c41e0f78be5b5bdfe16b9b340d5cdbbd4887b8df9ee43eb8e13fdbcca0f67207",
    "blocks/trajectories.csv": "bffc1cf1a21e93127179fefd7df763e4a338f592a9576b52df328e4342dd066f",
    "corridor/config.txt": "022b13af02259baadc1ac71a2591c00274a53954639d19843a04e327a4f833f7",
    "corridor/discrete_paths.csv": "c73eae1a4f7a88b1279ab064951d3dfda07476b73dedc5526bd88194987d5d59",
    "corridor/energy.csv": "63a7fa8c5860408a2d002105f211e43a68cdfbb2d505de3388c80d69ba1a7fa2",
    "corridor/metrics.csv": "463b46fffcc947ad44150b12b532e6a503e2db234ea5aa05bd6c934751bd996c",
    "corridor/pruned_paths.csv": "ef3f6846d0534f18d736574866db970551a8708f425305cc6d593de1152b9616",
    "corridor/summary.txt": "9da809d709fdc43ba7ad59ae0b4048f70fea614306a435efa6e3f4d5cd1bfedb",
    "corridor/trajectories.csv": "f88211926f59525f172eadb0082c5a24fd6cab794126995c1d09fa56b661a811",
    "formation/config.txt": "152ce39a0cfe8050a0087aff8007f351a200b139c730b6ca3898114d78aafe7f",
    "formation/discrete_paths.csv": "0a2e3377d40617818aa7c6b33491f34366c4bf39b05e1c16bb166d79c51928e6",
    "formation/energy.csv": "894ba845b4af39667016ae24aeacb733e8ed0d759c334a70f615416edc8dcd57",
    "smooth/trajectories.csv": "9d084546b6b8045cb11d352874a75df49df3dc1a977b69763e178d827d7163d5",
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
