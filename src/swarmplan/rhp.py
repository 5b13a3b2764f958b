"""Receding-horizon driver: plan a few MRF sweeps ahead, then execute a
fraction of that plan (prune, minimum-snap smoothing, validation, the
execution-schedule fallback, sampling), looped until the swarm reaches the
goal.

Only the executed fraction is ever pruned and smoothed: there is no
lookahead prune, and the rest of the lookahead is discarded when the next
horizon replans from the new positions. A horizon depends only on the
positions it starts from, so a run that returns to an earlier start state
stops: the rest would replay the same cycle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .fields import InteractionParams, ScalarField
from .grid import Cell, OccupancyGrid
from .mrf import (
    DiscretePath,
    EnergyTrace,
    OptimizeConfig,
    SwarmState,
    make_state,
    optimize,
)
from .paths import PrunedPath, prune
from .trajopt import (
    SmoothingProblem,
    UnrepairableError,
    allocate_times,
    smooth_and_validate,
)

STATUS_GOAL = "goal-converged"
STATUS_MAX_HORIZONS = "max-horizons"
STATUS_UNREPAIRABLE = "unrepairable"
STATUS_CYCLE = "cycle"


@dataclass(frozen=True)
class Scenario:
    """A planning problem: map, static energy field, interaction parameters,
    group goal (None for pure formation runs) and start cells."""

    grid: OccupancyGrid
    static: ScalarField | None
    iparams: InteractionParams
    goal: tuple[float, float] | None
    start: tuple[Cell, ...]


@dataclass(frozen=True)
class RhpConfig:
    """Horizon loop parameters on top of the MRF configuration."""

    mrf: OptimizeConfig = field(default_factory=OptimizeConfig)
    planning_horizon: int = 4
    execution_fraction: float = 0.5
    goal_radius: float = 2.0
    max_horizons: int = 200
    v_nominal: float = 1.0
    d_safe: float = 1.0
    corridor_halfwidth: float = 1.0
    dt: float = 0.05


@dataclass
class HorizonPlan:
    """One horizon's lookahead: the discrete sweep paths only. Nothing here
    is pruned or smoothed; `execute_fraction` prunes and smooths the part it
    executes."""

    discrete: list[DiscretePath]
    trace: EnergyTrace
    terminal: bool


@dataclass
class ExecutionRecord:
    """Executed portion of a horizon, sampled on a common time grid.
    `steps` is the number of discrete steps each robot advanced; `pruned`
    holds the chords that were smoothed, or every step cell (`source_steps`
    0..steps) when the execution schedule ran instead."""

    t: np.ndarray
    pos: np.ndarray  # (robots, samples, 2)
    vel: np.ndarray
    acc: np.ndarray
    end_cells: tuple[Cell, ...]
    steps: int
    pruned: list[PrunedPath]


@dataclass
class RunResult:
    """Concatenated executed run."""

    status: str
    horizons: int
    t: np.ndarray
    pos: np.ndarray  # (robots, samples, 2)
    vel: np.ndarray
    acc: np.ndarray
    energies: list[float]
    moved_counts: list[int]
    sweep_seconds: list[float]
    discrete: list[list[Cell]]  # executed cells per robot, all horizons
    pruned: list[list[PrunedPath]]  # per executed horizon
    reason: str | None = None  # the UnrepairableError message of an unrepairable run


def plan_horizon(state: SwarmState, scenario: Scenario, config: RhpConfig) -> HorizonPlan:
    """Run up to H MRF sweeps.

    The plan is lookahead only: `execute_fraction` prunes, smooths,
    validates and samples the fraction that is executed, and the next
    horizon replans the rest.
    """
    mrf_cfg = replace(
        config.mrf, max_sweeps=config.planning_horizon, goal=scenario.goal
    )
    paths, trace = optimize(state, scenario.grid, scenario.static, scenario.iparams, mrf_cfg)
    terminal = len(paths[0].cells) == 1  # no robot moved
    return HorizonPlan(discrete=paths, trace=trace, terminal=terminal)


def execute_fraction(
    plan: HorizonPlan, fraction: float, scenario: Scenario, config: RhpConfig
) -> ExecutionRecord:
    """Advance each robot ceil(fraction * steps) discrete steps.

    The executed sub-path is pruned and smoothed rest-to-rest so the horizon
    joint is a genuine stop point, then sampled on a common grid; a robot
    that finishes early holds its final position at rest. The record holds
    the samples that passed validation. If the smoothed paths fail it, the
    discrete steps run one by one in the execution schedule of
    `trajopt.repair` instead.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    steps = len(plan.discrete[0].cells) - 1
    e = max(1, math.ceil(fraction * steps)) if steps > 0 else 0
    end_cells = tuple(p.cells[min(e, steps)] for p in plan.discrete)
    if e == 0:
        empty = np.zeros((len(plan.discrete), 0, 2))
        return ExecutionRecord(
            t=np.zeros(0), pos=empty, vel=empty.copy(), acc=empty.copy(),
            end_cells=end_cells, steps=0, pruned=[],
        )

    truncated = [DiscretePath(p.robot, p.cells[: e + 1]) for p in plan.discrete]
    pruned = prune(truncated, scenario.grid)
    res = scenario.grid.resolution
    problems = [
        SmoothingProblem.from_waypoints(
            p.robot, p.waypoints, allocate_times(p.waypoints, config.v_nominal, resolution=res)
        )
        for p in pruned
    ]
    steps = [p.cells for p in truncated]
    s, scheduled = smooth_and_validate(
        problems,
        scenario.grid,
        steps,
        d_safe=config.d_safe,
        corridor_halfwidth=config.corridor_halfwidth,
        dt=config.dt,
        v_nominal=config.v_nominal,
    )
    if scheduled:
        pruned = [PrunedPath(p.robot, p.cells, tuple(range(e + 1))) for p in truncated]
    return ExecutionRecord(
        t=s.t, pos=s.pos, vel=s.vel, acc=s.acc, end_cells=end_cells, steps=e, pruned=pruned
    )


def _all_at_goal(positions: Sequence[Cell], goal, radius: float) -> bool:
    return all(math.hypot(p[0] - goal[0], p[1] - goal[1]) <= radius for p in positions)


def run(scenario: Scenario, config: RhpConfig) -> RunResult:
    """Plan-execute loop until goal convergence, a swarm fixed point, a
    repeated start state, the horizon cap, or an unrepairable plan."""
    grid = scenario.grid
    state = make_state(scenario.start, grid, config.mrf.k, config.mrf.r_comm)
    n = len(state.positions)

    all_t: list[np.ndarray] = []
    all_pos: list[np.ndarray] = []
    all_vel: list[np.ndarray] = []
    all_acc: list[np.ndarray] = []
    energies: list[float] = []
    moved_counts: list[int] = []
    sweep_seconds: list[float] = []
    discrete: list[list[Cell]] = [[c] for c in state.positions]
    pruned_log: list[list[PrunedPath]] = []
    t_offset = 0.0
    status = STATUS_MAX_HORIZONS
    horizons = 0
    reason = None
    seen: set[tuple[Cell, ...]] = set()

    for h in range(config.max_horizons):
        if scenario.goal is not None and _all_at_goal(
            state.positions, scenario.goal, config.goal_radius
        ):
            status = STATUS_GOAL
            break
        if state.positions in seen:
            status = STATUS_CYCLE
            break
        seen.add(state.positions)
        plan = plan_horizon(state, scenario, config)
        horizons = h + 1
        if not energies:
            energies.append(plan.trace.energies[0])
        energies.extend(plan.trace.energies[1:])
        moved_counts.extend(plan.trace.moved_counts)
        sweep_seconds.extend(plan.trace.sweep_seconds)

        if plan.terminal:
            # swarm energy converged with unchanged positions: MRF fixed point
            status = STATUS_GOAL
            break

        try:
            record = execute_fraction(plan, config.execution_fraction, scenario, config)
        except UnrepairableError as exc:
            status = STATUS_UNREPAIRABLE
            reason = str(exc)
            break
        pruned_log.append(record.pruned)
        if len(record.t):
            all_t.append(record.t + t_offset)
            all_pos.append(record.pos)
            all_vel.append(record.vel)
            all_acc.append(record.acc)
            t_offset += float(record.t[-1]) + config.dt

        for r in range(n):
            discrete[r].extend(plan.discrete[r].cells[1 : record.steps + 1])
        state = make_state(record.end_cells, grid, config.mrf.k, config.mrf.r_comm)

    if scenario.goal is not None and status == STATUS_MAX_HORIZONS and _all_at_goal(
        state.positions, scenario.goal, config.goal_radius
    ):
        status = STATUS_GOAL

    if all_t:
        t = np.concatenate(all_t)
        pos = np.concatenate(all_pos, axis=1)
        vel = np.concatenate(all_vel, axis=1)
        acc = np.concatenate(all_acc, axis=1)
    else:
        t = np.zeros(0)
        pos = np.zeros((n, 0, 2))
        vel = np.zeros((n, 0, 2))
        acc = np.zeros((n, 0, 2))

    return RunResult(
        status=status,
        horizons=horizons,
        t=t,
        pos=pos,
        vel=vel,
        acc=acc,
        energies=energies,
        moved_counts=moved_counts,
        sweep_seconds=sweep_seconds,
        discrete=discrete,
        pruned=pruned_log,
        reason=reason,
    )


@dataclass
class RunMetrics:
    """Summary series and totals for a finished run."""

    t: np.ndarray
    min_dist: np.ndarray
    avg_dist: np.ndarray
    path_lengths: np.ndarray


def metrics(result: RunResult, resolution: float = 1.0) -> RunMetrics:
    """Min/avg pairwise inter-robot distance over time and sampled path
    lengths."""
    n, m, _ = result.pos.shape
    if m == 0:
        raise ValueError("run produced no samples")
    min_d = np.full(m, np.inf)
    sum_d = np.zeros(m)
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(result.pos[i] - result.pos[j], axis=1) * resolution
            min_d = np.minimum(min_d, d)
            sum_d += d
            pairs += 1
    avg_d = sum_d / max(pairs, 1)
    lengths = np.array(
        [
            float(np.sum(np.linalg.norm(np.diff(result.pos[i], axis=0), axis=1))) * resolution
            for i in range(n)
        ]
    )
    return RunMetrics(
        t=result.t,
        min_dist=min_d,
        avg_dist=avg_d,
        path_lengths=lengths,
    )
