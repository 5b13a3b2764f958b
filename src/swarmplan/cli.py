"""Command-line front end: scenario configuration and generation, seeded
start sampling, run orchestration and result-file emission.

Subcommands: plan, mrf-only, smooth, render-field.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
from scipy import ndimage

from . import fields as fmod
from . import rhp
from .fields import (
    GoalParams,
    InteractionParams,
    ObstacleParams,
    build_goal_field,
    build_obstacle_field,
    dump_field,
    static_field,
    zero_field,
)
# not called here: perfbench's trace patches the name in this module too
from .graph import build_interaction_graph  # noqa: F401
from .grid import Cell, OccupancyGrid, load_map, threshold_map
from .mrf import OptimizeConfig, make_state, optimize
from .paths import PrunedPath
from .trajopt import SmoothingProblem, TrajectoryError, allocate_times, sample, solve_problems

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_HORIZONS = 2
EXIT_UNREPAIRABLE = 3
EXIT_CYCLE = 4


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    """Flat run configuration. Each field is both a config-file key and a
    command-line flag; defaults owned by a library dataclass are read from it."""

    scenario: str = "free"  # free | corridor | blocks, ignored when map_path set
    map_path: str | None = None
    robots: int = 5
    k: int = OptimizeConfig.k
    order: int = OptimizeConfig.search_order
    r_comm: float = OptimizeConfig.r_comm
    attract_amp: float = InteractionParams.attract_amp
    repulse_amp: float = InteractionParams.repulse_amp
    attract_len: float = InteractionParams.attract_len
    repulse_len: float = InteractionParams.repulse_len
    goal_amp: float = GoalParams.amp
    goal_len: float = GoalParams.length_scale
    sigma: float = ObstacleParams.sigma
    occupied_value: float = ObstacleParams.occupied_value
    start_x: float | None = None
    start_y: float | None = None
    start_std: float = 2.0
    goal_x: float | None = None
    goal_y: float | None = None
    horizon: int = rhp.RhpConfig.planning_horizon
    execution_fraction: float = rhp.RhpConfig.execution_fraction
    goal_radius: float = rhp.RhpConfig.goal_radius
    max_horizons: int = rhp.RhpConfig.max_horizons
    v_nominal: float = rhp.RhpConfig.v_nominal
    d_safe: float = rhp.RhpConfig.d_safe
    dt: float = rhp.RhpConfig.dt
    trim_backward: bool | None = None  # None: True for corridor, else False
    use_goal: bool = True
    seed: int = 0
    map_size: int = 30
    corridor_width: int = 3
    wall_thickness: int = 2
    n_blocks: int = 6
    block_max: int = 6

    def to_text(self) -> str:
        lines = []
        for f in dc_fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        """Parse `key = value` lines, each value typed as its flag is:
        `none` for a `| None` field, `true`/`false` for a bool, else the
        annotated type."""
        kwargs = {}
        kinds = _field_kinds()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in kinds:
                raise ConfigError(f"line {lineno}: unknown key '{key}'")
            kind, optional = kinds[key]
            try:
                kwargs[key] = _typed(val, kind, optional)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: cannot read {val!r} as {kind.__name__} for '{key}'"
                ) from None
        return cls(**kwargs)


def _field_kinds() -> dict[str, tuple[type, bool]]:
    """Each `ScenarioConfig` field's type with `| None` dropped, and whether
    it admits None."""
    kinds = {}
    for name, hint in get_type_hints(ScenarioConfig).items():
        args = get_args(hint) or (hint,)
        kinds[name] = (next(t for t in args if t is not type(None)), type(None) in args)
    return kinds


def _typed(val: str, kind: type, optional: bool):
    low = val.lower()
    if optional and low == "none":
        return None
    if kind is bool:
        if low not in ("true", "false"):
            raise ValueError(val)
        return low == "true"
    return kind(val)


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator for a named stream: PCG64 seeded by the run seed
    XOR the first 8 bytes of SHA-256 of the stream name."""
    h = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "big")
    return np.random.default_rng((seed ^ h) & 0xFFFFFFFFFFFFFFFF)


def generate_scenario(kind: str, cfg: ScenarioConfig, seed: int) -> tuple[OccupancyGrid, ScenarioConfig]:
    """Build the map for one of the standard scenario families and fill in
    default start/goal positions and `trim_backward` (on for the corridor)."""
    sizes = {"free": cfg.map_size, "corridor": 40, "blocks": 30}
    if kind not in sizes:
        raise ConfigError(f"unknown scenario kind '{kind}'")
    s = sizes[kind]
    defaults = {  # start_x, start_y, goal_x, goal_y
        "free": (s / 2, s / 2, s / 2, s / 2),
        "corridor": (s / 2, 8.0, s / 2, float(s - 8)),
        "blocks": (5.0, s / 2, float(s - 5), s / 2),
    }[kind]
    names = ("start_x", "start_y", "goal_x", "goal_y")
    cfg = replace(cfg, **{k: d for k, d in zip(names, defaults) if getattr(cfg, k) is None})
    if cfg.trim_backward is None:
        cfg = replace(cfg, trim_backward=kind == "corridor")
    prob = np.zeros((s, s))
    if kind == "free":
        return OccupancyGrid(prob=prob), cfg
    if kind == "corridor":
        for name in ("corridor_width", "wall_thickness"):
            if not 1 <= getattr(cfg, name) <= s:
                raise ConfigError(f"{name} must be in [1, {s}]")
        y0 = s // 2 - cfg.wall_thickness // 2
        gap_lo = s // 2 - cfg.corridor_width // 2
        prob[y0 : y0 + cfg.wall_thickness, :] = 1.0
        prob[y0 : y0 + cfg.wall_thickness, gap_lo : gap_lo + cfg.corridor_width] = 0.0
        return OccupancyGrid(prob=prob), cfg
    if cfg.n_blocks < 0:
        raise ConfigError("n_blocks must be at least 0")
    if not 2 <= cfg.block_max < s:  # a block's corner is drawn from [0, s - size)
        raise ConfigError(f"block_max must be in [2, {s - 1}]")
    start, goal = (cfg.start_x, cfg.start_y), (cfg.goal_x, cfg.goal_y)
    # `_connected` reads the cells they round to
    _check_on_map("start", start, (s, s))
    _check_on_map("goal", goal, (s, s))
    rng = stream_rng(seed, "map")
    for _ in range(100):
        prob = np.zeros((s, s))
        for _ in range(cfg.n_blocks):
            w = int(rng.integers(2, cfg.block_max + 1))
            h = int(rng.integers(2, cfg.block_max + 1))
            x = int(rng.integers(0, s - w))
            y = int(rng.integers(0, s - h))
            prob[y : y + h, x : x + w] = 1.0
        # keep a clear pocket at the start and goal
        for cx, cy in (start, goal):
            x0, y0 = int(round(cx)), int(round(cy))
            prob[max(0, y0 - 3) : y0 + 4, max(0, x0 - 3) : x0 + 4] = 0.0
        grid = OccupancyGrid(prob=prob)
        if _connected(grid, start, goal):
            return grid, cfg
    raise ConfigError("could not generate a connected random-blocks map in 100 tries")


def _check_on_map(name: str, point: tuple[float, float], shape: tuple[int, int]) -> None:
    """Raise ConfigError unless `point` rounds to a cell of a map of `shape`
    (height, width), naming a coordinate that is not finite."""
    for axis, v in zip("xy", point):
        if not math.isfinite(v):
            raise ConfigError(f"{name}_{axis} must be finite, got {v}")
    height, width = shape
    if not (0 <= round(point[0]) < width and 0 <= round(point[1]) < height):
        raise ConfigError(f"{name} position outside the map")


def _connected(grid: OccupancyGrid, a, b) -> bool:
    free = grid.free_mask()
    labels, _ = ndimage.label(free)
    ax, ay = int(round(a[0])), int(round(a[1]))
    bx, by = int(round(b[0])), int(round(b[1]))
    return labels[ay, ax] != 0 and labels[ay, ax] == labels[by, bx]


_START_ATTEMPTS = 1000
_FIRST_BATCH = 16


def sample_start(cfg: ScenarioConfig, grid: OccupancyGrid, seed: int) -> tuple[Cell, ...]:
    """Draw N distinct free start cells from an isotropic Gaussian around the
    start mean, rejecting draws that violate the connectivity condition.

    Two guarantees fix which start this returns:
    - The draws are the ones `multivariate_normal(mean, start_std²·I)`
      gives. Its factor of that covariance is exactly `start_std·I`, and
      `standard_normal` yields the same numbers however it is batched.
    - Any batch schedule returns the first passing attempt, because the
      attempts of a batch are checked in attempt order. Batches double
      from 16 attempts up to the cap.

    An attempt passes when its cells (rounded half to even, like `round`)
    are on the map, pairwise distinct and free, and every robot's nearest
    peer lies within `r_comm`. For every k >= 1 that is the connectivity
    condition of the k-nearest-neighbor graph: a robot's nearest peer is
    among the k it selects, so it has a neighbor when that peer is in
    range, and a peer can select it only from within `r_comm`, so it has
    none otherwise.
    """
    rng = stream_rng(seed, "start")
    mean = np.array([cfg.start_x, cfg.start_y], dtype=float)
    free = grid.free_mask()
    height, width = free.shape
    tried, batch = 0, _FIRST_BATCH
    while tried < _START_ATTEMPTS:
        size = min(batch, _START_ATTEMPTS - tried)
        tried, batch = tried + size, 2 * batch
        pts = np.rint(rng.standard_normal((size, cfg.robots, 2)) * cfg.start_std + mean)
        xs, ys = pts[..., 0], pts[..., 1]
        fit = ((xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)).all(axis=1)
        xs = np.where(fit[:, None], xs, 0).astype(np.intp)
        ys = np.where(fit[:, None], ys, 0).astype(np.intp)
        fit &= (np.diff(np.sort(ys * width + xs, axis=1), axis=1) != 0).all(axis=1)
        fit &= free[ys, xs].all(axis=1)
        (survivors,) = np.nonzero(fit)
        diff = pts[survivors, :, None] - pts[survivors, None, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        dist[:, range(cfg.robots), range(cfg.robots)] = np.inf
        (passed,) = np.nonzero((dist.min(axis=2) <= cfg.r_comm).all(axis=1))
        if len(passed):
            return tuple(Cell(int(x), int(y)) for x, y in pts[survivors[passed[0]]].tolist())
    raise ConfigError(f"could not sample a feasible start state in {_START_ATTEMPTS} attempts")


def build_scenario(cfg: ScenarioConfig) -> tuple[rhp.Scenario, ScenarioConfig]:
    """Materialize grid, fields, and start state from a configuration."""
    if cfg.robots < 2:
        raise ConfigError("need at least 2 robots")
    if not 1 <= cfg.k <= cfg.robots - 1:
        raise ConfigError("k must satisfy 1 <= k <= robots-1")
    if not 0 < cfg.start_std < math.inf:
        raise ConfigError("start_std must be positive and finite")
    if not cfg.r_comm > 0:
        raise ConfigError("r_comm must be positive")
    if cfg.map_path is not None:
        path = Path(cfg.map_path)
        if not path.exists():
            raise ConfigError(f"map file not found: {path}")
        grid = load_map(path.read_text())
        # the goal is read only when it is used
        needed = ("start_x", "start_y", "goal_x", "goal_y") if cfg.use_goal else ("start_x", "start_y")
        missing = [k for k in needed if getattr(cfg, k) is None]
        if missing:
            what = "start and goal" if cfg.use_goal else "start"
            raise ConfigError(f"explicit maps require {what} coordinates; missing {', '.join(missing)}")
        if cfg.trim_backward is None:
            cfg = replace(cfg, trim_backward=False)
    else:
        grid, cfg = generate_scenario(cfg.scenario, cfg, cfg.seed)

    iparams = InteractionParams(
        attract_amp=cfg.attract_amp,
        repulse_amp=cfg.repulse_amp,
        attract_len=cfg.attract_len,
        repulse_len=cfg.repulse_len,
    )
    goal = (cfg.goal_x, cfg.goal_y) if cfg.use_goal else None
    _check_on_map("start", (cfg.start_x, cfg.start_y), grid.prob.shape)
    if goal is not None:
        _check_on_map("goal", goal, grid.prob.shape)

    obstacle = build_obstacle_field(
        threshold_map(grid, cfg.occupied_value),
        ObstacleParams(sigma=cfg.sigma, occupied_value=cfg.occupied_value),
    )
    if goal is not None:
        goal_field = build_goal_field(grid, GoalParams(goal=goal, amp=cfg.goal_amp, length_scale=cfg.goal_len))
        static = static_field(goal_field, obstacle)
    elif np.any(obstacle.value > 0):
        static = obstacle
    else:
        static = None

    start = sample_start(cfg, grid, cfg.seed)
    return rhp.Scenario(grid=grid, static=static, iparams=iparams, goal=goal, start=start), cfg


def rhp_config(cfg: ScenarioConfig) -> rhp.RhpConfig:
    return rhp.RhpConfig(
        mrf=OptimizeConfig(
            k=cfg.k,
            search_order=cfg.order,
            r_comm=cfg.r_comm,
            trim_backward=cfg.trim_backward,
        ),
        planning_horizon=cfg.horizon,
        execution_fraction=cfg.execution_fraction,
        goal_radius=cfg.goal_radius,
        max_horizons=cfg.max_horizons,
        v_nominal=cfg.v_nominal,
        d_safe=cfg.d_safe,
        dt=cfg.dt,
    )


def _fmt(x: float) -> str:
    return f"{x:.9g}"


_TRAJECTORY_HEADER = "robot,t,x,y,vx,vy,ax,ay"


def _trajectory_row(robot: int, t: float, p, v, a) -> str:
    """One `trajectories.csv` row: time, position, velocity, acceleration."""
    return ",".join([str(robot), *map(_fmt, (t, p[0], p[1], v[0], v[1], a[0], a[1]))])


def write_energy_csv(path: Path, energies, moved_counts):
    lines = ["iteration,energy,moved_robots"]
    for i, e in enumerate(energies):
        moved = moved_counts[i - 1] if i > 0 else 0
        lines.append(f"{i},{_fmt(e)},{moved}")
    path.write_text("\n".join(lines) + "\n")


def write_discrete_csv(path: Path, discrete):
    lines = ["robot,step,x,y"]
    for r, cells in enumerate(discrete):
        for s, c in enumerate(cells):
            lines.append(f"{r},{s},{c[0]},{c[1]}")
    path.write_text("\n".join(lines) + "\n")


def write_pruned_csv(path: Path, pruned_log):
    lines = ["robot,waypoint_index,x,y,source_step"]
    for horizon in pruned_log:
        for p in horizon:
            for w, (c, s) in enumerate(zip(p.waypoints, p.source_steps)):
                lines.append(f"{p.robot},{w},{c[0]},{c[1]},{s}")
    path.write_text("\n".join(lines) + "\n")


def write_trajectories_csv(path: Path, result: rhp.RunResult):
    lines = [_TRAJECTORY_HEADER]
    for r in range(result.pos.shape[0]):
        for m, t in enumerate(result.t):
            p, v, a = result.pos[r, m], result.vel[r, m], result.acc[r, m]
            lines.append(_trajectory_row(r, t, p, v, a))
    path.write_text("\n".join(lines) + "\n")


def write_metrics_csv(path: Path, m: rhp.RunMetrics):
    lines = ["t,min_dist,avg_dist"]
    for i, t in enumerate(m.t):
        lines.append(f"{_fmt(t)},{_fmt(m.min_dist[i])},{_fmt(m.avg_dist[i])}")
    path.write_text("\n".join(lines) + "\n")


def write_timing_csv(path: Path, sweep_seconds):
    lines = ["sweep,seconds"]
    for i, s in enumerate(sweep_seconds):
        lines.append(f"{i},{s:.6f}")
    path.write_text("\n".join(lines) + "\n")


def write_run_outputs(out: Path, result: rhp.RunResult, cfg: ScenarioConfig, resolution: float):
    out.mkdir(parents=True, exist_ok=True)
    write_energy_csv(out / "energy.csv", result.energies, result.moved_counts)
    write_discrete_csv(out / "discrete_paths.csv", result.discrete)
    write_pruned_csv(out / "pruned_paths.csv", result.pruned)
    write_trajectories_csv(out / "trajectories.csv", result)
    if result.pos.shape[1] > 0:
        m = rhp.metrics(result, resolution)
        write_metrics_csv(out / "metrics.csv", m)
        lengths = ",".join(_fmt(v) for v in m.path_lengths)
    else:
        (out / "metrics.csv").write_text("t,min_dist,avg_dist\n")
        lengths = ""
    write_timing_csv(out / "timing.csv", result.sweep_seconds)
    (out / "config.txt").write_text(cfg.to_text())
    summary = [
        f"status: {result.status}",
        f"horizons: {result.horizons}",
        f"sweeps: {len(result.sweep_seconds)}",
        f"final_energy: {_fmt(result.energies[-1]) if result.energies else 'n/a'}",
        f"path_lengths: {lengths}",
    ]
    if result.reason is not None:
        summary.append(f"reason: {result.reason}")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")


def _load_cfg(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        cfg = ScenarioConfig.from_text(path.read_text())
    else:
        cfg = ScenarioConfig()
    names = {f.name for f in dc_fields(ScenarioConfig)}
    return replace(cfg, **{k: v for k, v in vars(args).items() if k in names})


def cmd_plan(args) -> int:
    cfg = _load_cfg(args)
    scenario, cfg = build_scenario(cfg)
    result = rhp.run(scenario, rhp_config(cfg))
    write_run_outputs(Path(args.out), result, cfg, scenario.grid.resolution)
    print(f"status: {result.status} ({result.horizons} horizons)")
    if result.status == rhp.STATUS_GOAL:
        return EXIT_OK
    if result.status == rhp.STATUS_MAX_HORIZONS:
        return EXIT_MAX_HORIZONS
    if result.status == rhp.STATUS_CYCLE:
        return EXIT_CYCLE
    return EXIT_UNREPAIRABLE


def cmd_mrf_only(args) -> int:
    cfg = _load_cfg(args)
    scenario, cfg = build_scenario(cfg)
    state = make_state(scenario.start, scenario.grid, cfg.k, cfg.r_comm)
    mrf_cfg = replace(rhp_config(cfg).mrf, goal=scenario.goal)
    paths, trace = optimize(state, scenario.grid, scenario.static, scenario.iparams, mrf_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_energy_csv(out / "energy.csv", trace.energies, trace.moved_counts)
    write_discrete_csv(out / "discrete_paths.csv", [p.cells for p in paths])
    write_timing_csv(out / "timing.csv", trace.sweep_seconds)
    (out / "config.txt").write_text(cfg.to_text())
    print(f"status: {trace.status} ({trace.iterations} sweeps)")
    return {"converged": EXIT_OK, "cycle": EXIT_CYCLE}.get(trace.status, EXIT_MAX_HORIZONS)


def waypoint_problems(text: str, v_nominal: float) -> list[SmoothingProblem]:
    """One smoothing problem per robot from waypoint CSV text.

    Columns are found by the header's `robot`, `x` and `y`; without a header
    they are the first and the last two. A row with `waypoint_index` 0
    starts a new rest-to-rest piece, as each horizon of a `pruned_paths.csv`
    does: its first point is the previous piece's last, kept once as a rest
    waypoint. Repeated points within a piece are dropped, so the only
    segment between equal points is the hold of a robot that stays put
    for a whole piece.

    A header without an `x` or `y` column, and a row whose fields cannot be
    read or whose x or y is not finite, raise ConfigError naming the column
    or the line.
    """
    # line numbers count the blank lines that strip() drops
    first_line = 1 + text[: len(text) - len(text.lstrip())].count("\n")
    rows = [line.split(",") for line in text.strip().splitlines()]
    cols = {"robot": 0, "x": -2, "y": -1}
    if rows and rows[0][0].strip().lower() == "robot":
        cols = {name.strip().lower(): i for i, name in enumerate(rows.pop(0))}
        first_line += 1
        missing = [name for name in ("x", "y") if name not in cols]
        if missing:
            raise ConfigError(f"waypoint header has no {' or '.join(missing)} column")
    pieces: dict[int, list[list[tuple[float, float]]]] = {}
    for lineno, row in enumerate(rows, start=first_line):
        try:
            if len(row) < 3:  # without a header, x would be the robot field
                raise IndexError
            robot = pieces.setdefault(int(row[cols["robot"]]), [])
            point = (float(row[cols["x"]]), float(row[cols["y"]]))
            if not all(map(math.isfinite, point)):
                raise ValueError
            new_piece = "waypoint_index" in cols and int(row[cols["waypoint_index"]]) == 0
        except (IndexError, ValueError):
            line = ",".join(row)
            raise ConfigError(f"line {lineno}: cannot read robot, x and y from {line!r}") from None
        if not robot or new_piece:
            robot.append([point])
        elif point != robot[-1][-1]:
            robot[-1].append(point)
    problems = []
    for r in sorted(pieces):
        waypoints: list[tuple[float, float]] = []
        rests = set()
        for piece in pieces[r]:
            if len(piece) == 1:
                piece = piece * 2  # a stationary robot holds its cell
            if waypoints:
                rests.add(len(waypoints) - 1)
                if waypoints[-1] == piece[0]:
                    piece = piece[1:]
            waypoints += piece
        problem = SmoothingProblem.from_waypoints(r, waypoints, allocate_times(waypoints, v_nominal))
        problem.rest_indices = rests
        problems.append(problem)
    return problems


def cmd_smooth(args) -> int:
    src = Path(args.waypoints)
    if not src.exists():
        raise ConfigError(f"waypoint file not found: {src}")
    out_lines = [_TRAJECTORY_HEADER]
    problems = waypoint_problems(src.read_text(), args.v_nominal)
    for problem, traj in zip(problems, solve_problems(problems)):
        samples = sample(traj, args.dt)
        for i, t in enumerate(samples.t):
            p, v, a = samples.pos[i], samples.vel[i], samples.acc[i]
            out_lines.append(_trajectory_row(problem.robot, t, p, v, a))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectories.csv").write_text("\n".join(out_lines) + "\n")
    return EXIT_OK


def cmd_render_field(args) -> int:
    cfg = _load_cfg(args)
    scenario, cfg = build_scenario(cfg)
    fld = scenario.static if scenario.static is not None else zero_field(scenario.grid)
    if args.with_robots:
        fld = fmod.render_combined_field(fld, scenario.start, scenario.iparams)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "field.txt").write_text(dump_field(fld))
    return EXIT_OK


def _add_scenario_flags(p: argparse.ArgumentParser):
    """One flag per `ScenarioConfig` field, typed by its annotation; a flag
    left out sets nothing, so the config file or the field default holds."""
    p.add_argument("--config", help="key = value config file")
    for name, (kind, _) in _field_kinds().items():
        kw = {"action": argparse.BooleanOptionalAction} if kind is bool else {"type": kind}
        p.add_argument("--" + name.replace("_", "-"), dest=name, default=argparse.SUPPRESS, **kw)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a configuration error (exit 1) instead
    of argparse's exit 2, which here means the horizon cap was reached."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swarmplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="full receding-horizon planning pipeline")
    _add_scenario_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("mrf-only", help="discrete MRF paths, no smoothing")
    _add_scenario_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mrf_only)

    p = sub.add_parser("smooth", help="smooth a waypoint CSV into trajectories")
    p.add_argument("--waypoints", required=True, help="CSV: robot,...,x,y")
    p.add_argument("--v-nominal", dest="v_nominal", type=float, default=rhp.RhpConfig.v_nominal)
    p.add_argument("--dt", type=float, default=rhp.RhpConfig.dt)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("render-field", help="write the static field dump")
    _add_scenario_flags(p)
    p.add_argument("--with-robots", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render_field)

    return parser


def run_command(argv) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, TrajectoryError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
