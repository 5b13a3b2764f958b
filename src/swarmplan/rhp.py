"""Receding-horizon driver: plan a few MRF sweeps ahead, then execute a
fraction of that plan as transitions of the whole swarm between formation
shapes, looped until the swarm reaches the goal. A horizon is a list of
swarm states, each the tuple of every robot's cell after a sweep; only the
outputs list cells robot by robot (`RunResult.discrete`).

A horizon's executed steps run shape to shape: each transition moves every
robot along its straight chord from one anchor step to a later one, all on
one smoothstep timing, so every robot is at rest at every anchor (the
synchronized straight-line motion of CAPT, Turpin, Michael & Kumar, RSS
2013). Every transition, a single step included, passes the same two exact
tests: every chord has line of sight, and every pair's exact least
separation is at least `d_safe`. A single ICM step passes both: ICM's
candidates have line of sight from their robot's cell (`mrf`), and lemma
(Y), the synchronous bound beside the separation lemma in `mrf` (checked
exhaustively, not proven), keeps every pair 1.0 cell apart. The tests
still run on it (`execute_fraction`). A chord with line of sight puts no
sample in an occupied cell, since every sample rounds into the chord's
supercover. Nothing is pruned per robot, smoothed, validated on samples,
or scheduled.

The next horizon starts where the executed steps end, and
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
from .mrf import OptimizeConfig, Sweep, make_state, swarm_energy, sweeps
# not called here: perfbench's trace patches these names in this module too
from .mrf import optimize  # noqa: F401
from .paths import line_of_sight
from .paths import prune  # noqa: F401
from .trajopt import smooth_and_validate  # noqa: F401
from .trajopt import (
    DIST_TOL,
    T_FLOOR,
    UnrepairableError,
    Violation,
    sample_transitions,
    transition_separations,
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
    dt: float = 0.05

    def __post_init__(self):
        # a NaN fails every comparison, so it would switch a check off
        for name in ("planning_horizon", "max_horizons"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("d_safe", "dt", "v_nominal"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 < self.execution_fraction <= 1:
            raise ValueError("execution_fraction must be in (0, 1]")
        if not 0 <= self.goal_radius < math.inf:
            raise ValueError("goal_radius must be nonnegative and finite")


@dataclass
class HorizonPlan:
    """One horizon's lookahead: its sweeps, carried or newly computed, and
    the swarm states it steps through, the start first and then the state
    each moving sweep ends in (a sweep that moves no robot adds no step).
    `execute_fraction` runs the first steps as swarm transitions."""

    states: list[tuple[Cell, ...]]
    sweeps: list[Sweep]

    @property
    def terminal(self) -> bool:
        """No robot moved: the swarm is at a fixed point of ICM."""
        return len(self.states) == 1


@dataclass
class ExecutionRecord:
    """Executed portion of a horizon, sampled on one time grid. `anchors`
    are the steps its transitions run between, 0 first and the last
    executed step last: every robot is at rest at each of them."""

    t: np.ndarray
    pos: np.ndarray  # (robots, samples, 2)
    vel: np.ndarray
    acc: np.ndarray
    anchors: tuple[int, ...]


@dataclass
class RunResult:
    """Concatenated executed run: its executed swarm states, listed robot by
    robot, and each executed horizon's anchor steps."""

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
    anchors: list[tuple[int, ...]]  # per executed horizon, steps from its start
    reason: str | None = None  # the UnrepairableError message of an unrepairable run


def plan_horizon(
    start: Sequence[Cell], carried: list[Sweep], stream: Iterator[Sweep], horizon: int
) -> HorizonPlan:
    """The next `horizon` sweeps from `start`: the `carried` ones, which an
    earlier horizon computed and did not execute, then new ones read from
    `stream`, the run's sweeps after them (fewer where it ends).

    The plan is lookahead only: `execute_fraction` runs the fraction that
    is executed.
    """
    read = carried + list(islice(stream, horizon - len(carried)))
    # only a stream's last sweep can move no robot
    return HorizonPlan([tuple(start), *(s.positions for s in read if s.moved)], read)


def execute_fraction(plan: HorizonPlan, scenario: Scenario, config: RhpConfig) -> ExecutionRecord:
    """Advance the swarm ceil(`config.execution_fraction` * steps) of the
    plan's steps, as transitions of the whole swarm from one anchor step to
    a later one. A terminal plan has no step to execute: ValueError.

    From each anchor, the next is the farthest later executed step to which
    every robot's chord has line of sight and every pair keeps `d_safe` at
    its exact least separation (`trajopt.transition_separations`). The next
    step passes both tests on ICM's steps (module docstring): its chords
    have line of sight, and by lemma (Y) every pair keeps 1.0 cell, which is
    at least `d_safe` when `d_safe` is at most the grid resolution. Lemma
    (Y) is checked, not proven, so when no later step passes,
    UnrepairableError names the next step's robots without line of sight
    and its pairs closer than `d_safe`, at the time the step starts. Every
    sample of a chord with line of sight rounds (`np.rint`, as
    `trajopt.validate` does) into a free cell of its supercover.

    A transition lasts T = max(longest chord * resolution / v_nominal,
    `T_FLOOR`), and every robot runs its chord on one smoothstep timing
    (`trajopt.sample_transitions`), at rest at every anchor. The horizon is
    sampled in closed form on one grid.
    """
    if plan.terminal:
        raise ValueError("a terminal plan has no step to execute")
    # a fraction in (0, 1] of at least one step: 1 <= e <= steps
    e = math.ceil(config.execution_fraction * (len(plan.states) - 1))
    grid, res, states = scenario.grid, scenario.grid.resolution, plan.states
    at = np.array(states[: e + 1], dtype=float)  # (steps + 1, robots, 2)

    def unseen(a: int, j: int) -> list[int]:
        """The robots whose chord from step a to step j lacks line of sight."""
        pairs = enumerate(zip(states[a], states[j]))
        return [r for r, (p, q) in pairs if p != q and not line_of_sight(grid, p, q)]

    def close(a: int, j: int) -> list[tuple[int, int]]:
        """The pairs that come closer than d_safe from step a to step j."""
        first, second, dist = transition_separations(at[a], at[j])
        k = np.flatnonzero(dist * res < config.d_safe - DIST_TOL)
        return list(zip(first[k].tolist(), second[k].tolist()))

    anchors, durations = [0], []
    while anchors[-1] < e:
        a = anchors[-1]
        j = next((j for j in range(e, a, -1) if not unseen(a, j) and not close(a, j)), None)
        if j is None:
            t = math.fsum(durations)
            raise UnrepairableError(
                [Violation("obstacle", r, t) for r in unseen(a, a + 1)]
                + [Violation("separation", i, t, other=k) for i, k in close(a, a + 1)],
                "on a single step",
            )
        longest = math.sqrt(float(((at[j] - at[a]) ** 2).sum(axis=1).max()))
        durations.append(max(longest * res / config.v_nominal, T_FLOOR))
        anchors.append(j)

    s = sample_transitions(at[anchors], durations, config.dt)
    return ExecutionRecord(s.t, s.pos, s.vel, s.acc, tuple(anchors))


def _all_at_goal(positions: Sequence[Cell], goal, radius: float) -> bool:
    return all(math.hypot(p[0] - goal[0], p[1] - goal[1]) <= radius for p in positions)


def run(scenario: Scenario, config: RhpConfig) -> RunResult:
    """Plan-execute loop until goal convergence, a swarm fixed point, a
    closed cycle, the horizon cap, or an unrepairable plan. It keeps the
    executed swarm states and lists them robot by robot at the end.

    Raises ValueError when `d_safe` exceeds the grid resolution: distinct
    cells, and by lemma (Y) a single ICM step, keep 1.0 cell between robots
    and no more.
    """
    if not config.d_safe <= scenario.grid.resolution:
        raise ValueError(
            f"d_safe must not exceed the grid resolution ({scenario.grid.resolution:g} m)"
        )
    state = make_state(scenario.start, scenario.grid, config.mrf.k, config.mrf.r_comm)
    positions = state.positions
    states = [positions]  # executed swarm states, all horizons

    executed: list[ExecutionRecord] = []  # each horizon's, on the run's clock
    energies: list[float] = []
    moved_counts: list[int] = []
    sweep_seconds: list[float] = []
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
            record = execute_fraction(plan, scenario, config)
        except UnrepairableError as exc:
            status = STATUS_UNREPAIRABLE
            reason = str(exc)
            break
        e = record.anchors[-1]
        done, carried = plan.sweeps[:e], plan.sweeps[e:]
        energies.extend(s.energy for s in done)
        moved_counts.extend(s.moved for s in done)
        sweep_seconds.extend(s.seconds for s in done)
        closed = done[-1].last
        executed.append(replace(record, t=record.t + t_offset))
        t_offset += float(record.t[-1]) + config.dt
        states.extend(plan.states[1 : e + 1])
        positions = states[-1]

    if scenario.goal is not None and status == STATUS_MAX_HORIZONS and _all_at_goal(
        positions, scenario.goal, config.goal_radius
    ):
        status = STATUS_GOAL

    empty = np.zeros((len(states[0]), 0, 2))
    return RunResult(
        status=status,
        horizons=horizons,
        t=np.concatenate([np.zeros(0), *(r.t for r in executed)]),
        pos=np.concatenate([empty, *(r.pos for r in executed)], axis=1),
        vel=np.concatenate([empty, *(r.vel for r in executed)], axis=1),
        acc=np.concatenate([empty, *(r.acc for r in executed)], axis=1),
        energies=energies,
        moved_counts=moved_counts,
        sweep_seconds=sweep_seconds,
        discrete=[list(cells) for cells in zip(*states)],
        anchors=[r.anchors for r in executed],
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
