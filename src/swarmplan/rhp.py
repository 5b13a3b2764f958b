"""Receding-horizon driver: plan a few MRF sweeps ahead, then execute a
fraction of that plan (prune, minimum-snap smoothing, validation, the
execution-schedule fallback, sampling), looped until the swarm reaches the
goal.

Only the executed fraction is ever pruned and smoothed: there is no
lookahead prune. The next horizon starts where the executed steps end, and
an ICM sweep is a function of the positions it starts from, so a run's
sweeps form one stream (`mrf.sweeps`) and each horizon's lookahead is the
next few sweeps of it: `run` carries computed, unexecuted sweeps into the
next lookahead, which reads only the rest from the stream. Each sweep is
computed once, and the run's executed sweeps are its stream, with their
energies, moved counts and sweep seconds; the start's state and energy are
built once per run. The stream ends at its first repeated state, so a run
that returns to an earlier state stops with `cycle` once it has executed
the sweep that closes the cycle: the rest would replay it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .fields import InteractionParams, ScalarField
from .grid import Cell, OccupancyGrid
from .mrf import DiscretePath, OptimizeConfig, Sweep, make_state, swarm_energy, sweeps
# not called here: perfbench's trace patches the name in this module too
from .mrf import optimize  # noqa: F401
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

    def __post_init__(self):
        # a NaN fails every comparison, so it would switch a check off
        for name in ("planning_horizon", "max_horizons"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("d_safe", "corridor_halfwidth", "dt", "v_nominal"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 < self.execution_fraction <= 1:
            raise ValueError("execution_fraction must be in (0, 1]")
        if not 0 <= self.goal_radius < math.inf:
            raise ValueError("goal_radius must be nonnegative and finite")


@dataclass
class HorizonPlan:
    """One horizon's lookahead: its sweeps, carried or newly computed, and
    the discrete paths through the states they end in (a sweep that moves no
    robot adds no step). Nothing here is pruned or smoothed;
    `execute_fraction` prunes and smooths the part it executes."""

    discrete: list[DiscretePath]
    sweeps: list[Sweep]

    @property
    def terminal(self) -> bool:
        """No robot moved: the swarm is at a fixed point of ICM."""
        return len(self.discrete[0].cells) == 1


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
    energies: list[float]  # the start's, then after each executed sweep
    moved_counts: list[int]  # per executed sweep
    sweep_seconds: list[float]  # per executed sweep, and a final zero-move one
    discrete: list[list[Cell]]  # executed cells per robot, all horizons
    pruned: list[list[PrunedPath]]  # per executed horizon
    reason: str | None = None  # the UnrepairableError message of an unrepairable run


def plan_horizon(
    start: Sequence[Cell], carried: list[Sweep], stream: Iterator[Sweep], horizon: int
) -> HorizonPlan:
    """The next `horizon` sweeps from `start`: the `carried` ones, which an
    earlier horizon computed and did not execute, then new ones read from
    `stream`, the run's sweeps after them (fewer where it ends).

    The plan is lookahead only: `execute_fraction` prunes, smooths,
    validates and samples the fraction that is executed.
    """
    read = carried + list(islice(stream, horizon - len(carried)))
    # only a stream's last sweep can move no robot
    steps = zip(start, *(s.positions for s in read if s.moved))
    return HorizonPlan([DiscretePath(i, cells) for i, cells in enumerate(steps)], read)


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
    closed cycle, the horizon cap, or an unrepairable plan."""
    state = make_state(scenario.start, scenario.grid, config.mrf.k, config.mrf.r_comm)
    positions = state.positions
    n = len(positions)

    all_t: list[np.ndarray] = []
    all_pos: list[np.ndarray] = []
    all_vel: list[np.ndarray] = []
    all_acc: list[np.ndarray] = []
    energies: list[float] = []
    moved_counts: list[int] = []
    sweep_seconds: list[float] = []
    discrete: list[list[Cell]] = [[c] for c in positions]
    pruned_log: list[list[PrunedPath]] = []
    t_offset = 0.0
    status = STATUS_MAX_HORIZONS
    horizons = 0
    reason = None
    closed = False  # the executed sweeps end where the stream ended on a cycle
    mrf_cfg = replace(config.mrf, goal=scenario.goal)
    stream = sweeps(positions, scenario.grid, scenario.static, scenario.iparams, mrf_cfg)
    carried: list[Sweep] = []  # computed by the last lookahead, not executed

    for h in range(config.max_horizons):
        if scenario.goal is not None and _all_at_goal(positions, scenario.goal, config.goal_radius):
            status = STATUS_GOAL
            break
        if closed:
            status = STATUS_CYCLE
            break
        plan = plan_horizon(positions, carried, stream, config.planning_horizon)
        horizons = h + 1
        if h == 0:
            energies.append(swarm_energy(state, scenario.static, scenario.iparams))

        if plan.terminal:
            # swarm energy converged with unchanged positions: MRF fixed point
            sweep_seconds.extend(s.seconds for s in plan.sweeps)
            status = STATUS_GOAL
            break

        try:
            record = execute_fraction(plan, config.execution_fraction, scenario, config)
        except UnrepairableError as exc:
            status = STATUS_UNREPAIRABLE
            reason = str(exc)
            break
        e = record.steps
        done, carried = plan.sweeps[:e], plan.sweeps[e:]
        energies.extend(s.energy for s in done)
        moved_counts.extend(s.moved for s in done)
        sweep_seconds.extend(s.seconds for s in done)
        closed = done[-1].last
        pruned_log.append(record.pruned)
        if len(record.t):
            all_t.append(record.t + t_offset)
            all_pos.append(record.pos)
            all_vel.append(record.vel)
            all_acc.append(record.acc)
            t_offset += float(record.t[-1]) + config.dt

        for r in range(n):
            discrete[r].extend(plan.discrete[r].cells[1 : e + 1])
        positions = record.end_cells

    if scenario.goal is not None and status == STATUS_MAX_HORIZONS and _all_at_goal(
        positions, scenario.goal, config.goal_radius
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
