"""End-to-end acceptance suite.

Each test is one pass/fail check of a headline engine property, at the
stated tolerance. The heavyweight corridor and blocks runs are shared
between checks through module-scoped fixtures.
"""

import functools
import itertools
import math
import operator
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from swarmplan.cli import ScenarioConfig, build_scenario, rhp_config, run_command
from swarmplan.fields import (
    GoalParams,
    InteractionParams,
    build_goal_field,
    equilibrium_distance,
    interaction_energy,
    morse_potential,
)
from swarmplan.graph import maximal_cliques
from swarmplan.grid import Cell, OccupancyGrid
from swarmplan.mrf import (
    DiscretePath,
    OptimizeConfig,
    apply_heuristics,
    clique_energy,
    icm_update,
    local_search_space,
    make_state,
    optimize,
    swarm_energy,
)
from swarmplan.paths import prune
from swarmplan.rhp import run
from swarmplan.trajopt import TimeAllocation, min_snap, qp_objective


IPARAMS = InteractionParams()


@pytest.fixture(scope="module")
def corridor_run():
    cfg = ScenarioConfig(scenario="corridor")
    scenario, cfg = build_scenario(cfg)
    tic = time.perf_counter()
    result = run(scenario, rhp_config(cfg))
    wall = time.perf_counter() - tic
    return scenario, result, wall


@pytest.fixture(scope="module")
def blocks_runs(tmp_path_factory):
    outs = []
    codes = []
    for name in ("first", "second"):
        out = tmp_path_factory.mktemp("blocks") / name
        codes.append(
            run_command(["plan", "--scenario", "blocks", "--seed", "0", "--out", str(out)])
        )
        outs.append(out)
    return codes, outs


def test_01_free_space_converges_within_five_sweeps():
    grid = OccupancyGrid(prob=np.zeros((30, 30)), resolution=1.0)
    starts = [(13, 13), (17, 13), (13, 17), (17, 17), (15, 15)]
    cx = sum(s[0] for s in starts) / 5
    cy = sum(s[1] for s in starts) / 5
    static = build_goal_field(grid, GoalParams(goal=(cx, cy)))
    state = make_state(starts, grid, k=3)
    tic = time.perf_counter()
    _, trace = optimize(
        state, grid, static, IPARAMS, OptimizeConfig(k=3, goal=(cx, cy))
    )
    wall = time.perf_counter() - tic
    assert trace.converged
    assert trace.iterations <= 5
    assert wall < 1.0


def test_02_two_robot_equilibrium_matches_lattice_argmin():
    # oracle 1: exhaustive scan of lattice separations 1..30
    lattice = min(
        range(1, 31), key=lambda d: interaction_energy((0, 0), (d, 0), IPARAMS)
    )
    # oracle 2: 1e-3 scalar scan of the pair potential
    d_grid = np.arange(0.001, 30.0, 0.001)
    vals = morse_potential(
        d_grid, IPARAMS.attract_amp, IPARAMS.repulse_amp,
        IPARAMS.attract_len, IPARAMS.repulse_len,
    )
    scan_min = float(d_grid[np.argmin(vals)])
    assert abs(scan_min - 8.42) < 0.01
    assert abs(lattice - scan_min) <= 1.0
    assert abs(equilibrium_distance(IPARAMS) - scan_min) <= 1e-3

    grid = OccupancyGrid(prob=np.zeros((20, 60)), resolution=1.0)
    state = make_state([(20, 10), (40, 10)], grid, k=1)
    paths, trace = optimize(
        state, grid, None, IPARAMS, OptimizeConfig(k=1, search_order=4, max_sweeps=200)
    )
    final = [p.cells[-1] for p in paths]
    sep = math.hypot(final[0][0] - final[1][0], final[0][1] - final[1][1])
    assert abs(sep - lattice) <= 1.0 + 1e-9


def test_03_icm_update_equals_exhaustive_argmin_on_200_states():
    rng = np.random.default_rng(12345)
    goal = (6.0, 6.0)
    grid = OccupancyGrid(prob=np.zeros((12, 12)), resolution=1.0)
    static = build_goal_field(grid, GoalParams(goal=goal))
    for _ in range(200):
        cells = set()
        while len(cells) < 4:
            cells.add((int(rng.integers(0, 12)), int(rng.integers(0, 12))))
        state = make_state(sorted(cells), grid, k=2)
        spaces = apply_heuristics(
            [local_search_space(grid, state, i, 2) for i in range(4)], state
        )
        for i in range(4):
            got = icm_update(state, i, spaces, static, IPARAMS, goal)
            cliques_i = [c for c in state.graph.cliques if i in c]
            best = None
            for cand in spaces[i]:
                positions = list(state.positions)
                positions[i] = cand
                # added left to right from 0.0, as icm_update adds them
                e = functools.reduce(
                    operator.add, (clique_energy(cl, positions, static, IPARAMS) for cl in cliques_i), 0.0
                )
                gd = math.hypot(cand[0] - goal[0], cand[1] - goal[1])
                key = (e, gd, cand[1], cand[0])
                if best is None or key < best[0]:
                    best = (key, cand)
            assert got == best[1]


def test_04_frozen_graph_energy_never_increases():
    grid = OccupancyGrid(prob=np.zeros((25, 25)), resolution=1.0)
    state = make_state([(8, 8), (11, 8), (8, 11), (11, 11), (14, 14)], grid, k=3)
    last = {}

    def hook(sweep, robot, s):
        e = swarm_energy(s, None, IPARAMS)
        if sweep in last:
            assert e <= last[sweep] + 1e-9
        last[sweep] = e

    optimize(
        state, grid, None, IPARAMS,
        OptimizeConfig(k=3, goal=(20.0, 20.0), max_sweeps=50),
        update_hook=hook,
    )
    assert last


def test_05_bron_kerbosch_matches_brute_force_on_100_graphs():
    rng = np.random.default_rng(777)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
        adj = adj | adj.T
        cliques = []
        for r in range(1, n + 1):
            for subset in itertools.combinations(range(n), r):
                if all(adj[a, b] for a, b in itertools.combinations(subset, 2)):
                    cliques.append(set(subset))
        brute = tuple(
            sorted(
                tuple(sorted(c))
                for c in cliques
                if not any(c < d for d in cliques)
            )
        )
        assert maximal_cliques(adj) == brute


def test_06_minimum_snap_analytic_checks():
    # closed-form rest-to-rest coefficients
    traj = min_snap(np.array([0.0, 1.0]), TimeAllocation(np.array([1.0])))
    assert np.allclose(
        traj.coeffs[0, 0],
        [0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0],
        atol=1e-6,
    )
    # interior continuity of derivatives 0..4 on random 5-waypoint problems
    rng = np.random.default_rng(42)
    for _ in range(5):
        wp = rng.uniform(-5, 5, size=(5, 2))
        ta = TimeAllocation(rng.uniform(0.5, 2.0, size=4))
        tr = min_snap(wp, ta)
        for knot in ta.knots[1:-1]:
            for order in range(5):
                assert np.allclose(
                    tr.eval(knot - 1e-9, order), tr.eval(knot + 1e-9, order), atol=1e-6
                )
    # QP objective against Simpson quadrature of the squared fourth derivative
    wp = rng.uniform(-3, 3, size=(5, 2))
    ta = TimeAllocation(rng.uniform(0.8, 1.6, size=4))
    tr = min_snap(wp, ta)
    ts = np.linspace(0.0, ta.total, 20001)
    snap2 = np.array([float(np.sum(tr.eval(t, 4) ** 2)) for t in ts])
    assert qp_objective(tr) == pytest.approx(
        float(simpson(snap2, x=ts)), rel=1e-6, abs=1e-6
    )


def test_07_corridor_run_feasible_and_fast(corridor_run):
    scenario, result, wall = corridor_run
    assert result.status == "goal-converged"
    assert result.horizons <= 200
    assert wall < 60.0
    # separation and obstacle checks on the executed dt = 0.05 samples
    n = result.pos.shape[0]
    assert result.pos.shape[1] > 0
    min_d = np.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(result.pos[i] - result.pos[j], axis=1)
            min_d = min(min_d, float(d.min()))
    assert min_d >= 1.0 - 1e-9
    for r in range(n):
        for x, y in result.pos[r]:
            c = (round(x), round(y))
            assert scenario.grid.in_bounds(c) and scenario.grid.is_free(c)


def test_08_blocks_run_feasible_and_byte_deterministic(blocks_runs):
    codes, outs = blocks_runs
    assert codes == [0, 0]  # goal-converged exit status, twice
    for out in outs:
        assert "status: goal-converged" in (out / "summary.txt").read_text()
        # zero violations: every sampled min distance is safe
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        min_d = min(float(r.split(",")[1]) for r in rows)
        assert min_d >= 1.0 - 1e-9
    for name in (
        "energy.csv",
        "discrete_paths.csv",
        "pruned_paths.csv",
        "trajectories.csv",
        "metrics.csv",
        "config.txt",
        "summary.txt",
    ):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_09_corridor_min_distance_rises_initially(corridor_run):
    _, result, _ = corridor_run
    n = result.pos.shape[0]
    m = result.pos.shape[1]
    min_d = np.full(m, np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(result.pos[i] - result.pos[j], axis=1)
            min_d = np.minimum(min_d, d)
    first_third = min_d[: max(1, m // 3)]
    assert float(first_third.max()) > float(min_d[0])


def test_10_pruning_collapses_idempotent_and_clear():
    grid_free = OccupancyGrid(prob=np.zeros((20, 20)), resolution=1.0)
    # five collinear waypoints collapse to two
    path = DiscretePath(robot=0, cells=tuple(Cell(x, 5) for x in range(5)))
    out = prune([path], grid_free)
    assert len(out[0].waypoints) == 2

    # idempotence and chord clearance on an obstacle dog-leg
    prob = np.zeros((12, 12))
    prob[0:9, 6] = 1.0
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    cells = (
        Cell(2, 2), Cell(3, 3), Cell(4, 4), Cell(4, 5), Cell(4, 6), Cell(4, 7),
        Cell(4, 8), Cell(5, 9), Cell(6, 9), Cell(7, 9), Cell(8, 8), Cell(8, 7),
        Cell(9, 6), Cell(9, 5),
    )
    paths = [DiscretePath(robot=0, cells=cells), path]
    for p, g in ((paths[0], grid), (path, grid_free)):
        first = prune([p], g)[0]
        again = prune([DiscretePath(robot=p.robot, cells=first.waypoints)], g)[0]
        assert again.waypoints == first.waypoints
        assert again.source_steps == tuple(range(len(first.waypoints)))
        # supercover occupancy sampling at 0.1-cell steps along every chord
        for a, b in zip(first.waypoints, first.waypoints[1:]):
            length = math.hypot(b[0] - a[0], b[1] - a[1])
            for t in np.linspace(0.0, 1.0, max(2, int(length / 0.1) + 1)):
                x = a[0] + t * (b[0] - a[0])
                y = a[1] + t * (b[1] - a[1])
                c = (round(x), round(y))
                assert g.in_bounds(c) and g.is_free(c), (a, b, c)
