"""Swarm-energy model and coordinate-descent tests: candidate spaces,
heuristics, clique energies, the update rule against an exhaustive-argmin
oracle, energy monotonicity, and convergence behavior."""

import builtins
import functools
import gc
import hashlib
import itertools
import math
import operator
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from swarmplan.cli import ScenarioConfig, build_scenario
from swarmplan.fields import (
    GoalParams,
    InteractionParams,
    ScalarField,
    build_goal_field,
    interaction_energy,
)
from swarmplan.grid import Cell, OccupancyGrid, disk_cells
from swarmplan import mrf
from swarmplan.mrf import (
    ConnectivityError,
    _blocked_moves,
    _candidate_energies,
    _conflict_rows,
    _pair_energies,
    DiscretePath,
    OptimizeConfig,
    apply_heuristics,
    clique_energy,
    icm_update,
    local_search_space,
    make_state,
    optimize,
    paths_noncrossing_check,
    swarm_energy,
    sweeps,
)
from swarmplan.paths import point_segment_distance, segments_intersect


IPARAMS = InteractionParams()


def fold_sum(values):
    """[DERIVED] oracle: floats added left to right from 0.0, as the energy
    sums add them; `sum()` compensates from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


def free_grid(w=20, h=20):
    return OccupancyGrid(prob=np.zeros((h, w)), resolution=1.0)


def test_make_state_validates_positions():
    grid = free_grid(5, 5)
    with pytest.raises(ValueError):
        make_state([(0, 0), (0, 0)], grid, k=1)
    with pytest.raises(ValueError):
        make_state([(0, 0), (9, 9)], grid, k=1)
    prob = np.zeros((5, 5))
    prob[2, 2] = 1.0
    occ = OccupancyGrid(prob=prob, resolution=1.0)
    with pytest.raises(ValueError):
        make_state([(0, 0), (2, 2)], occ, k=1)


def test_local_search_space_excludes_occupied_and_oob():
    prob = np.zeros((6, 6))
    prob[0, 1] = 1.0  # (1, 0) occupied
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    state = make_state([(0, 0), (5, 5)], grid, k=1)
    space = local_search_space(grid, state, 0, order=4)
    assert Cell(0, 0) in space  # own cell
    assert Cell(1, 0) not in space  # occupied
    assert all(grid.in_bounds(c) and grid.is_free(c) for c in space)
    # order-4 disk around a corner: only the in-bounds quadrant survives
    assert set(space) <= {
        (dx, dy) for dx in range(3) for dy in range(3) if dx * dx + dy * dy <= 4
    }


def test_apply_heuristics_removes_other_robot_cells():
    grid = free_grid()
    state = make_state([(5, 5), (7, 5)], grid, k=1)
    spaces = [local_search_space(grid, state, i, 4) for i in range(2)]
    out = apply_heuristics(spaces, state)
    assert Cell(7, 5) not in out[0]
    assert Cell(5, 5) not in out[1]
    assert Cell(5, 5) in out[0] and Cell(7, 5) in out[1]


def test_apply_heuristics_contested_cell_goes_to_nearest():
    grid = free_grid()
    # (6, 5) is distance 1 from robot 0 and 2 from robot 1
    state = make_state([(5, 5), (8, 5)], grid, k=1)
    spaces = [[Cell(5, 5), Cell(6, 5)], [Cell(8, 5), Cell(6, 5)]]
    out = apply_heuristics(spaces, state)
    assert Cell(6, 5) in out[0]
    assert Cell(6, 5) not in out[1]


def test_apply_heuristics_contested_tie_goes_to_lower_id():
    grid = free_grid()
    state = make_state([(5, 5), (7, 5)], grid, k=1)
    spaces = [[Cell(5, 5), Cell(6, 5)], [Cell(7, 5), Cell(6, 5)]]
    out = apply_heuristics(spaces, state)
    assert Cell(6, 5) in out[0]
    assert Cell(6, 5) not in out[1]


def test_apply_heuristics_trim_backward():
    grid = free_grid()
    state = make_state([(5, 5), (15, 15)], grid, k=1)
    spaces = [[Cell(5, 5), Cell(6, 5), Cell(4, 5)], [Cell(15, 15)]]
    out = apply_heuristics(spaces, state, goal=(10.0, 5.0), trim_backward=True)
    assert Cell(6, 5) in out[0]  # toward goal
    assert Cell(4, 5) not in out[0]  # strictly backward
    assert Cell(5, 5) in out[0]  # own cell always kept


def test_clique_energy_by_hand():
    # [DERIVED] two-member clique: two static samples plus one pair term.
    static = ScalarField(value=np.arange(9.0).reshape(3, 3))
    positions = [Cell(0, 0), Cell(2, 1)]
    e = clique_energy((0, 1), positions, static, IPARAMS)
    from swarmplan.fields import interaction_energy

    expected = static.at((0, 0)) + static.at((2, 1)) + interaction_energy(
        (0, 0), (2, 1), IPARAMS
    )
    assert e == pytest.approx(expected, abs=1e-12)


def test_swarm_energy_sums_maximal_cliques():
    grid = free_grid()
    state = make_state([(0, 0), (1, 0), (10, 0)], grid, k=1)
    # graph: edges {0,1} and {1,2}? robot 2's nearest is robot 1
    total = swarm_energy(state, None, IPARAMS)
    expected = fold_sum(
        clique_energy(c, state.positions, None, IPARAMS) for c in state.graph.cliques
    )
    assert total == pytest.approx(expected)


def exhaustive_argmin(state, i, spaces, static, goal, blocked=(), iparams=IPARAMS):
    """[DERIVED] oracle: skip candidates whose move conflicts with a block
    (a point block needs clearance 1.0, a segment must not be crossed; the
    own cell is exempt), evaluate every other candidate's clique-sum energy
    directly and apply the same deterministic tie-breaks."""
    cliques_i = [c for c in state.graph.cliques if i in c]
    own = state.positions[i]
    best = None
    for cand in spaces[i]:
        if cand != own and any(
            point_segment_distance(s0, own, cand) < 1.0
            if s0 == s1
            else segments_intersect(own, cand, s0, s1)
            for s0, s1 in blocked
        ):
            continue
        positions = list(state.positions)
        positions[i] = cand
        e = fold_sum(clique_energy(cl, positions, static, iparams) for cl in cliques_i)
        gd = math.hypot(cand[0] - goal[0], cand[1] - goal[1]) if goal else 0.0
        kk = (e, gd, cand[1], cand[0])
        if best is None or kk < best[0]:
            best = (kk, cand)
    return best[1]


def test_icm_update_matches_exhaustive_argmin_on_random_states():
    # [DERIVED] 200 random 4-robot states on 12x12 maps, search order 2.
    rng = np.random.default_rng(99)
    goal_params = GoalParams(goal=(6.0, 6.0))
    for _ in range(200):
        grid = free_grid(12, 12)
        static = build_goal_field(grid, goal_params)
        cells = set()
        while len(cells) < 4:
            cells.add((int(rng.integers(0, 12)), int(rng.integers(0, 12))))
        state = make_state(sorted(cells), grid, k=2)
        spaces = [local_search_space(grid, state, i, 2) for i in range(4)]
        spaces = apply_heuristics(spaces, state)
        i = int(rng.integers(0, 4))
        got = icm_update(state, i, spaces, static, IPARAMS, goal_params.goal)
        assert got == exhaustive_argmin(state, i, spaces, static, goal_params.goal)


def random_blocks(rng, state, i, n_blocks):
    """Point blocks at other robots' cells and segments near robot i, some
    longer than any disk radius used here."""
    own = state.positions[i]
    blocks = []
    for _ in range(n_blocks):
        if rng.random() < 0.4:
            j = int(rng.integers(0, len(state.positions)))
            if j != i:
                blocks.append((state.positions[j], state.positions[j]))
            continue
        s0 = Cell(own[0] + int(rng.integers(-6, 7)), own[1] + int(rng.integers(-6, 7)))
        reach = int(rng.choice([1, 2, 3, 6]))
        s1 = Cell(s0[0] + int(rng.integers(-reach, reach + 1)), s0[1] + int(rng.integers(-reach, reach + 1)))
        blocks.append((s0, s1))
    return blocks


def test_icm_update_matches_exhaustive_argmin_with_blocked_moves():
    # [DERIVED] 200 random 4-robot states on 12x12 maps; orders 2, 4, 9 and
    # 16 give disk radii 1 to 4 (radius 4 is checked without the table).
    rng = np.random.default_rng(7)
    goal_params = GoalParams(goal=(6.0, 6.0))
    grid = free_grid(12, 12)
    static = build_goal_field(grid, goal_params)
    n_blocked = 0
    for _ in range(200):
        cells = set()
        while len(cells) < 4:
            cells.add((int(rng.integers(0, 12)), int(rng.integers(0, 12))))
        state = make_state(sorted(cells), grid, k=2)
        order = int(rng.choice([2, 4, 9, 16]))
        spaces = apply_heuristics(
            [local_search_space(grid, state, i, order) for i in range(4)], state
        )
        i = int(rng.integers(0, 4))
        blocks = random_blocks(rng, state, i, int(rng.integers(1, 8)))
        got = icm_update(state, i, spaces, static, IPARAMS, goal_params.goal, blocks)
        assert got == exhaustive_argmin(state, i, spaces, static, goal_params.goal, blocks)
        n_blocked += got != exhaustive_argmin(state, i, spaces, static, goal_params.goal)
    assert n_blocked > 20  # the blocks decide a good share of the updates


def scalar_conflict(own, c, s0, s1):
    """[DERIVED] the move own -> c against the block s0 -> s1: a point
    block needs clearance 1.0, a segment must not be crossed."""
    if s0 == s1:
        return point_segment_distance(s0, own, c) < 1.0
    return segments_intersect(own, c, s0, s1)


def test_blocked_moves_equal_scalar_predicates():
    # [DERIVED] the packed conflict rows (disk radius <= 3) and the scalar
    # fallback (radius 4) against the predicates, at the map's coordinates
    # and shifted by 1000 along either axis.
    rng = np.random.default_rng(17)
    grid = free_grid(12, 12)
    n_hit = 0
    for _ in range(300):
        cells = set()
        while len(cells) < 5:
            cells.add((int(rng.integers(0, 12)), int(rng.integers(0, 12))))
        state = make_state(sorted(cells), grid, k=2)
        i = int(rng.integers(0, 5))
        order = int(rng.choice([1, 2, 4, 5, 9, 16]))
        shift = Cell(*(int(v) for v in rng.choice([0, 1000], size=2)))
        own = Cell(state.positions[i][0] + shift[0], state.positions[i][1] + shift[1])
        candidates = [Cell(c[0] + shift[0], c[1] + shift[1]) for c in disk_cells(state.positions[i], order, grid)]
        blocks = [
            (Cell(a[0] + shift[0], a[1] + shift[1]), Cell(b[0] + shift[0], b[1] + shift[1]))
            for a, b in random_blocks(rng, state, i, int(rng.integers(1, 8)))
        ]
        expected = [any(scalar_conflict(own, c, s0, s1) for s0, s1 in blocks) for c in candidates]
        assert _blocked_moves(own, candidates, blocks) == expected
        n_hit += sum(expected)
    assert n_hit > 300


@pytest.mark.parametrize("r", [1, 2, 3])
def test_blocked_moves_at_the_window_edge(r):
    # [DERIVED] one block at a time, starting on the two outer rings of the
    # 4r + 1 window or on the ring just outside it, with every extent up to
    # r, against every move of Chebyshev radius <= r.
    own = Cell(40, 50)
    span = range(-r, r + 1)
    candidates = [Cell(own[0] + vx, own[1] + vy) for vy in span for vx in span]
    ring = range(-2 * r - 1, 2 * r + 2)
    starts = [(wx, wy) for wy in ring for wx in ring if max(abs(wx), abs(wy)) >= 2 * r - 1]
    for wx, wy in starts:
        s0 = Cell(own[0] + wx, own[1] + wy)
        for uy in span:
            for ux in span:
                s1 = Cell(s0[0] + ux, s0[1] + uy)
                expected = [scalar_conflict(own, c, s0, s1) for c in candidates]
                assert _blocked_moves(own, candidates, [(s0, s1)]) == expected


def test_candidate_energies_equal_clique_energy_sums():
    # [DERIVED] every candidate's energy, not only the argmin, is the float
    # the scalar clique energies give, with and without a static field
    rng = np.random.default_rng(21)
    grid = free_grid(16, 16)
    static = build_goal_field(grid, GoalParams(goal=(4.5, 11.0)))
    table = _pair_energies(IPARAMS, 16)
    for _ in range(150):
        cells = set()
        while len(cells) < 6:
            cells.add((int(rng.integers(0, 16)), int(rng.integers(0, 16))))
        state = make_state(sorted(cells, key=lambda _: rng.random()), grid, k=int(rng.integers(1, 5)))
        i = int(rng.integers(0, 6))
        candidates = local_search_space(grid, state, i, int(rng.choice([2, 4, 8])))
        for fld in (static, None):
            values = None if fld is None else fld.value.tolist()
            expected = []
            for c in candidates:
                positions = list(state.positions)
                positions[i] = c
                expected.append(
                    fold_sum(clique_energy(cl, positions, fld, IPARAMS) for cl in state.graph.cliques if i in cl)
                )
            assert _candidate_energies(i, candidates, state, values, table) == expected


def test_icm_update_grows_the_pair_table():
    # A parameter set no other test uses starts with an empty table; each
    # state below spans more cells than any before it.
    iparams = InteractionParams(attract_amp=0.61, repulse_amp=0.95, attract_len=13.0, repulse_len=3.5)
    grid = free_grid(50, 50)
    static = build_goal_field(grid, GoalParams(goal=(25.0, 25.0)))
    for spread in (3, 10, 25, 49):
        cells = [(0, 0), (spread, 1), (1, spread), (spread, spread)]
        state = make_state(cells, grid, k=2)
        spaces = apply_heuristics([local_search_space(grid, state, i, 4) for i in range(4)], state)
        for i in range(4):
            got = icm_update(state, i, spaces, static, iparams, (25.0, 25.0))
            assert got == exhaustive_argmin(state, i, spaces, static, (25.0, 25.0), iparams=iparams)
        assert len(_pair_energies(iparams)) >= spread + 1


def test_icm_update_never_increases_frozen_graph_energy():
    rng = np.random.default_rng(3)
    grid = free_grid(15, 15)
    for _ in range(50):
        cells = set()
        while len(cells) < 5:
            cells.add((int(rng.integers(0, 15)), int(rng.integers(0, 15))))
        state = make_state(sorted(cells), grid, k=2)
        spaces = apply_heuristics(
            [local_search_space(grid, state, i, 4) for i in range(5)], state
        )
        i = int(rng.integers(0, 5))
        before = swarm_energy(state, None, IPARAMS)
        new = icm_update(state, i, spaces, None, IPARAMS)
        positions = list(state.positions)
        positions[i] = new
        after = swarm_energy(
            type(state)(positions=tuple(positions), graph=state.graph),
            None,
            IPARAMS,
        )
        assert after <= before + 1e-9


def test_icm_update_respects_blocked_segments():
    grid = free_grid()
    state = make_state([(5, 5), (9, 5)], grid, k=1)
    spaces = [[Cell(5, 5), Cell(6, 5), Cell(5, 6)], [Cell(9, 5)]]
    blocked = [(Cell(6, 4), Cell(6, 6))]  # wall crossing the move to (6, 5)
    got = icm_update(state, 0, spaces, None, IPARAMS, goal=(10.0, 5.0), blocked_segments=blocked)
    assert got != Cell(6, 5)


def test_icm_update_point_block_requires_clearance():
    # A held robot diagonal to the mover blocks the adjacent slide even
    # though the segments would not cross.
    grid = free_grid()
    state = make_state([(5, 5), (6, 6)], grid, k=1)
    spaces = [[Cell(5, 5), Cell(6, 5)], [Cell(6, 6)]]
    blocked = [(Cell(6, 6), Cell(6, 6))]
    got = icm_update(state, 0, spaces, None, IPARAMS, goal=(10.0, 5.0), blocked_segments=blocked)
    # moving to (6,5) passes within 1.0 of the held robot at (6,6)
    assert got == Cell(5, 5)


def test_optimize_rejects_isolated_robot():
    grid = free_grid(40, 40)
    state = make_state([(0, 0), (1, 0), (30, 30)], grid, k=2, r_comm=5.0)
    with pytest.raises(ConnectivityError):
        optimize(state, grid, None, IPARAMS, OptimizeConfig(k=2, r_comm=5.0))


def test_update_of_isolated_robot_matches_exhaustive_argmin():
    # [DERIVED] a robot out of r_comm range sits in a singleton clique; the
    # graph is rebuilt every sweep, so optimize can reach this state after a
    # connected start. Without a static field that clique has no terms.
    grid = free_grid(40, 40)
    static = build_goal_field(grid, GoalParams(goal=(20.5, 20.0)))
    state = make_state([(0, 0), (1, 0), (30, 30)], grid, k=2, r_comm=5.0)
    assert state.graph.cliques_of[2] == ((2,),)
    spaces = apply_heuristics([local_search_space(grid, state, i, 4) for i in range(3)], state)
    for fld in (static, None):
        values = None if fld is None else fld.value.tolist()
        for i in range(3):
            expected = []
            for c in spaces[i]:
                positions = list(state.positions)
                positions[i] = c
                expected.append(
                    fold_sum(clique_energy(cl, positions, fld, IPARAMS) for cl in state.graph.cliques if i in cl)
                )
            table = _pair_energies(IPARAMS, 40)
            assert _candidate_energies(i, spaces[i], state, values, table) == expected
            for goal in (None, (25.0, 33.0)):
                got = icm_update(state, i, spaces, fld, IPARAMS, goal)
                assert got == exhaustive_argmin(state, i, spaces, fld, goal)


def test_optimize_converges_and_reports_trace():
    grid = free_grid(30, 30)
    state = make_state([(5, 5), (7, 5), (5, 7), (7, 7)], grid, k=2)
    goal = (15.0, 15.0)
    cfg = OptimizeConfig(k=2, goal=goal, max_sweeps=100)
    paths, trace = optimize(state, grid, None, IPARAMS, cfg)
    assert trace.status in ("converged", "max-sweeps")
    assert trace.converged
    assert len(trace.energies) == trace.iterations + 1
    assert len(trace.moved_counts) == trace.iterations
    assert len(paths) == 4
    for p in paths:
        assert len(p.cells) == trace.iterations + 1


def test_optimize_energy_monotone_within_sweep_hooks():
    # Every single-robot update, observed through the hook, keeps the
    # frozen-sweep-graph energy non-increasing.
    grid = free_grid(25, 25)
    state = make_state([(3, 3), (6, 3), (3, 6), (6, 6), (10, 10)], grid, k=3)
    cfg = OptimizeConfig(k=3, goal=(18.0, 18.0), max_sweeps=30)
    last = {}

    def hook(sweep, robot, s):
        e = swarm_energy(s, None, IPARAMS)
        if sweep in last:
            assert e <= last[sweep] + 1e-9
        last[sweep] = e

    optimize(state, grid, None, IPARAMS, cfg, update_hook=hook)
    assert last  # hook fired


def test_optimize_deterministic():
    grid = free_grid(25, 25)
    cfg = OptimizeConfig(k=2, goal=(20.0, 20.0), max_sweeps=60)
    runs = []
    for _ in range(2):
        state = make_state([(2, 2), (4, 2), (2, 4), (4, 4)], grid, k=2)
        paths, trace = optimize(state, grid, None, IPARAMS, cfg)
        runs.append(([p.cells for p in paths], trace.energies))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_optimize_moves_toward_goal():
    grid = free_grid(40, 40)
    state = make_state([(3, 3), (5, 3), (3, 5), (5, 5)], grid, k=2)
    goal = (30.0, 30.0)
    gparams = GoalParams(goal=goal)
    static = build_goal_field(grid, gparams)
    cfg = OptimizeConfig(k=2, goal=goal, max_sweeps=200)
    paths, trace = optimize(state, grid, static, IPARAMS, cfg)
    start_d = np.mean([math.hypot(3 - 30, 3 - 30)])
    end_d = np.mean(
        [math.hypot(p.cells[-1][0] - 30, p.cells[-1][1] - 30) for p in paths]
    )
    assert end_d < start_d / 2


def test_optimize_steps_stay_noncrossing():
    grid = free_grid(30, 30)
    state = make_state([(3, 3), (6, 3), (3, 6), (6, 6), (4, 9)], grid, k=3)
    cfg = OptimizeConfig(k=3, goal=(22.0, 22.0), max_sweeps=100)
    paths, trace = optimize(state, grid, None, IPARAMS, cfg)
    for step in range(trace.iterations):
        assert paths_noncrossing_check(paths, step)


def test_paths_noncrossing_check_detects_swap():
    p0 = DiscretePath(robot=0, cells=(Cell(0, 0), Cell(1, 0)))
    p1 = DiscretePath(robot=1, cells=(Cell(1, 0), Cell(0, 0)))
    assert not paths_noncrossing_check([p0, p1], 0)
    p2 = DiscretePath(robot=1, cells=(Cell(3, 3), Cell(4, 3)))
    assert paths_noncrossing_check([p0, p2], 0)


def test_two_robot_equilibrium_matches_lattice_scan():
    # [DERIVED] oracle: among lattice separations 1..30, the pair energy is
    # minimized near the continuous equilibrium distance.
    from swarmplan.fields import equilibrium_distance, interaction_energy

    grid = free_grid(80, 10)
    d_star = equilibrium_distance(IPARAMS)
    lattice = min(
        range(1, 31),
        key=lambda d: interaction_energy((0, 0), (d, 0), IPARAMS),
    )
    state = make_state([(30, 5), (34, 5)], grid, k=1)
    cfg = OptimizeConfig(k=1, search_order=4, max_sweeps=200)
    paths, trace = optimize(state, grid, None, IPARAMS, cfg)
    final = [p.cells[-1] for p in paths]
    sep = math.hypot(final[0][0] - final[1][0], final[0][1] - final[1][1])
    assert abs(sep - lattice) <= 1.0 + 1e-9
    assert abs(lattice - d_star) <= 1.0


@pytest.mark.parametrize(
    "iparams",
    [IPARAMS, InteractionParams(attract_amp=0.5, repulse_amp=1.3, attract_len=9.0, repulse_len=2.5)],
)
def test_pair_table_equals_interaction_energy(iparams):
    _pair_energies(iparams, 7)  # grown below, keeping these rows
    table = _pair_energies(iparams, 60)
    width = len(table)
    assert width >= 60 and all(len(row) == width for row in table)
    # an offset past the edge raises instead of reading another entry
    with pytest.raises(IndexError):
        table[0][width]
    with pytest.raises(IndexError):
        table[width][0]
    origin = Cell(1000, 999)
    for dy in range(60):
        for dx in range(60):
            entry = table[dy][dx]
            assert entry == interaction_energy((0, 0), (dx, dy), iparams)
            for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                other = (origin[0] + sx * dx, origin[1] + sy * dy)
                assert entry == interaction_energy(origin, other, iparams)


@pytest.mark.parametrize("r", sorted({math.isqrt(order) for order in range(1, 13)}))
def test_conflict_table_equals_scalar_predicates(r):
    # [DERIVED] bit v of row (w, u): does the move origin -> origin + v
    # conflict with the block origin + w -> origin + w + u, at translated
    # origins.
    rows = _conflict_rows(r)
    n, m = 2 * r + 1, 4 * r + 1
    assert len(rows) == m * m * n * n
    assert all(row >> n * n == 0 for row in rows)  # no bit past the n * n moves
    span = range(-r, r + 1)
    for ox, oy in ((37, 53), (1000, 999)):
        got, expected = [], []
        for wy in range(-2 * r, 2 * r + 1):
            for wx in range(-2 * r, 2 * r + 1):
                s0 = (ox + wx, oy + wy)
                for uy in span:
                    for ux in span:
                        s1 = (s0[0] + ux, s0[1] + uy)
                        row = rows[((wy + 2 * r) * m + wx + 2 * r) * n * n + (uy + r) * n + ux + r]
                        for vy in span:
                            for vx in span:
                                c = (ox + vx, oy + vy)
                                got.append(row >> (vy + r) * n + vx + r & 1 == 1)
                                expected.append(
                                    point_segment_distance(s0, (ox, oy), c) < 1.0
                                    if s0 == s1
                                    else segments_intersect((ox, oy), c, s0, s1)
                                )
        assert got == expected


def test_swarm_energy_equals_clique_energy_sum():
    rng = np.random.default_rng(5)
    grid = free_grid(30, 30)
    static = build_goal_field(grid, GoalParams(goal=(21.5, 8.0)))
    for _ in range(100):
        cells = set()
        while len(cells) < 8:
            cells.add((int(rng.integers(0, 30)), int(rng.integers(0, 30))))
        state = make_state(sorted(cells, key=lambda _: rng.random()), grid, k=3)
        for fld in (static, None):
            expected = fold_sum(
                clique_energy(c, state.positions, fld, IPARAMS) for c in state.graph.cliques
            )
            assert swarm_energy(state, fld, IPARAMS) == expected


def compensated_sum(values, start=0):
    """Python 3.12's `sum()` of floats: Neumaier's compensated sum, whose
    result can differ in the last bit from adding left to right."""
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def test_energy_sums_do_not_depend_on_the_builtin_sum(monkeypatch):
    rng = np.random.default_rng(8)
    grid = free_grid(30, 30)
    static = build_goal_field(grid, GoalParams(goal=(21.5, 8.0)))
    table = _pair_energies(IPARAMS, 30)
    values = static.value.tolist()
    cases, differ = [], 0
    for _ in range(100):
        cells = set()
        while len(cells) < 8:
            cells.add((int(rng.integers(0, 30)), int(rng.integers(0, 30))))
        state = make_state(sorted(cells, key=lambda _: rng.random()), grid, k=3)
        i = int(rng.integers(0, 8))
        candidates = local_search_space(grid, state, i, 4)
        cases.append((state, i, candidates, swarm_energy(state, static, IPARAMS),
                      _candidate_energies(i, candidates, state, values, table)))
        energies = [clique_energy(c, state.positions, static, IPARAMS) for c in state.graph.cliques]
        differ += compensated_sum(energies) != fold_sum(energies)
    assert differ > 0  # the two sums tell apart some of these swarms
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for state, i, candidates, energy, per_candidate in cases:
        assert swarm_energy(state, static, IPARAMS) == energy
        assert _candidate_energies(i, candidates, state, values, table) == per_candidate


def test_local_search_space_equals_free_cell_comprehension():
    rng = np.random.default_rng(11)
    prob = np.where(rng.random((9, 11)) < 0.3, 1.0, 0.0)
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    free = [Cell(x, y) for y in range(9) for x in range(11) if grid.is_free(Cell(x, y))]
    state = make_state(free, grid, k=1)
    for order in (1, 2, 4, 5, 9):
        for i, p in enumerate(state.positions):
            expected = [c for c in disk_cells(p, order, grid) if grid.is_free(c)]
            assert local_search_space(grid, state, i, order) == expected


def test_cached_free_disk_equals_comprehension_at_map_edges():
    # every cell of a small obstacle map is a center, so disks are clipped
    # at all four edges and corners; the second pass reads the cache
    rng = np.random.default_rng(12)
    prob = np.where(rng.random((7, 10)) < 0.3, 1.0, 0.0)
    grid = OccupancyGrid(prob=prob, resolution=1.0)
    free = [Cell(x, y) for y in range(7) for x in range(10) if grid.is_free(Cell(x, y))]
    state = make_state(free, grid, k=1)
    for _ in range(2):
        for order in (1, 2, 4, 5, 8, 9, 13):
            for i, p in enumerate(state.positions):
                expected = [c for c in disk_cells(p, order, grid) if grid.is_free(c)]
                got = local_search_space(grid, state, i, order)
                assert got == expected
                assert all(type(c) is Cell for c in got)
                got.clear()  # callers get their own list


def test_lookup_caches_hold_only_the_last_grid_and_field():
    # Two maps of one size with different walls and goals, used in turn:
    # each read must come from the map and field at hand, and the first
    # pair must be released once the second is used.
    def use(wall_x, goal):
        prob = np.zeros((8, 8))
        prob[:6, wall_x] = 1.0
        grid = OccupancyGrid(prob=prob, resolution=1.0)
        static = build_goal_field(grid, GoalParams(goal=goal))
        state = make_state([(wall_x - 1, 2), (wall_x + 1, 3), (wall_x - 1, 6)], grid, k=1)
        for i, p in enumerate(state.positions):
            expected = [c for c in disk_cells(p, 4, grid) if grid.is_free(c)]
            assert local_search_space(grid, state, i, 4) == expected
        expected = fold_sum(clique_energy(c, state.positions, static, IPARAMS) for c in state.graph.cliques)
        assert swarm_energy(state, static, IPARAMS) == expected
        return weakref.ref(grid), weakref.ref(static)

    first = use(3, (1.0, 7.0))
    gc.collect()
    assert all(ref() is not None for ref in first)  # held by the caches
    second = use(4, (6.0, 0.0))
    gc.collect()
    assert all(ref() is None for ref in first)
    assert all(ref() is not None for ref in second)
    use(3, (1.0, 7.0))


# SHA-256 of repr((paths, energies)) for the formation-n20 runs below. Seed 2
# was computed by the scalar-energy ICM the table-driven one replaced; it
# converges at 39 sweeps without repeating a state. Seed 0 enters a period-6
# cycle at sweep 19 and ends at sweep 25, its first repeated state; its
# paths are the first 25 sweeps of the 500-sweep replay that the stream
# produced before it stopped at repeats.
FORMATION_N20_SEED2_DIGEST = "9e23d69ceb1787ea668839cc8172e822a4c33c46b99dcb12e52c8aaaf13e2908"
FORMATION_N20_SEED0_DIGEST = "6233f687759b8150edd5a3e67d5ddcbd42f0a8cfbe5423d6840464ecbaa52442"


def formation_n20_run(seed):
    config_path = Path(__file__).resolve().parents[1] / "perfbench/configs/formation-n20.txt"
    cfg = replace(ScenarioConfig.from_text(config_path.read_text()), seed=seed)
    scenario, cfg = build_scenario(cfg)
    state = make_state(scenario.start, scenario.grid, cfg.k, cfg.r_comm)
    mrf_cfg = OptimizeConfig(
        k=cfg.k,
        search_order=cfg.order,
        r_comm=cfg.r_comm,
        goal=scenario.goal,
        trim_backward=cfg.trim_backward,
    )
    paths, trace = optimize(state, scenario.grid, scenario.static, scenario.iparams, mrf_cfg)
    text = repr(([p.cells for p in paths], trace.energies))
    return trace, hashlib.sha256(text.encode()).hexdigest()


def test_optimize_formation_n20_golden_digest():
    trace, digest = formation_n20_run(2)
    assert trace.iterations == 39
    assert digest == FORMATION_N20_SEED2_DIGEST


def test_optimize_formation_n20_cycling_golden_digest():
    trace, digest = formation_n20_run(0)
    assert trace.iterations == 25 and trace.status == "cycle"
    assert digest == FORMATION_N20_SEED0_DIGEST


def test_sweep_seconds_include_the_graph_build(monkeypatch):
    # the graph rebuild is part of the sweep that step_ms_p50 times
    delay = 0.02
    build = mrf.build_interaction_graph

    def slow_build(*args, **kwargs):
        time.sleep(delay)
        return build(*args, **kwargs)

    grid = free_grid(20, 20)
    state = make_state([(3, 3), (9, 4), (5, 10), (12, 12)], grid, k=2)
    monkeypatch.setattr(mrf, "build_interaction_graph", slow_build)
    _, trace = optimize(state, grid, None, IPARAMS, OptimizeConfig(k=2, goal=(10.0, 10.0), max_sweeps=6))
    assert len(trace.sweep_seconds) >= 2
    assert all(s >= delay for s in trace.sweep_seconds)


def test_sweeps_end_after_the_first_zero_move_sweep(monkeypatch):
    # nine moving sweeps, then one that moves no robot
    grid = free_grid(20, 20)
    state = make_state([(2, 8), (4, 9), (9, 7), (10, 6), (11, 10)], grid, k=2)
    cfg = OptimizeConfig(k=2, goal=(9.0, 9.0), max_sweeps=40)
    updates = []
    real_update = mrf.icm_update

    def counting_update(*args, **kwargs):
        updates.append(args[1])
        return real_update(*args, **kwargs)

    monkeypatch.setattr(mrf, "icm_update", counting_update)
    stream = list(sweeps(state.positions, grid, None, IPARAMS, cfg))
    assert [s.moved > 0 for s in stream] == [True] * 9 + [False]
    assert [s.last for s in stream] == [False] * 9 + [True]
    assert stream[-1].positions == stream[-2].positions and stream[-1].energy is None
    assert len(updates) == 5 * 10  # nothing is computed past the zero-move sweep

    # from the fixed point itself, the first sweep moves no robot and ends
    # the stream: the start counts as a state the stream has been in
    again = list(sweeps(stream[-1].positions, grid, None, IPARAMS, cfg))
    assert [(s.moved, s.last) for s in again] == [(0, True)]

    paths, trace = optimize(state, grid, None, IPARAMS, cfg)
    assert trace.energies[1:] == [s.energy for s in stream[:-1]]
    assert trace.moved_counts == [s.moved for s in stream[:-1]]
    assert len(trace.sweep_seconds) == len(stream)
    assert all(p.cells[1:] == tuple(s.positions[p.robot] for s in stream[:-1]) for p in paths)


@pytest.mark.parametrize("size, cells, k, goal, max_sweeps", [
    # the eighth sweep moves robots back to an earlier state
    (20, ((12, 1), (16, 13), (9, 14), (5, 7), (2, 8), (12, 9)), 1, (9.0, 9.0), 40),
    # stopped by the sweep cap
    (20, ((2, 8), (4, 9), (9, 7), (10, 6), (11, 10)), 2, (9.0, 9.0), 3),
])
def test_energy_trace_has_one_energy_more_than_moved_counts(size, cells, k, goal, max_sweeps):
    # a trace that ends on a zero-move sweep: test_sweeps_end_after_the_first_zero_move_sweep
    grid = free_grid(size, size)
    cfg = OptimizeConfig(k=k, goal=goal, max_sweeps=max_sweeps)
    _, trace = optimize(make_state(cells, grid, k=k), grid, None, IPARAMS, cfg)
    assert trace.status == ("cycle" if max_sweeps == 40 else "max-sweeps")
    assert len(trace.energies) == len(trace.moved_counts) + 1
    assert len(trace.sweep_seconds) == len(trace.moved_counts)


def random_streams(count=40, seed=7):
    """Seeded small scenarios (3-6 robots on a 14x14 map, with and without a
    goal field) and the full sweep stream of each."""
    rng = np.random.default_rng(seed)
    grid = free_grid(14, 14)
    cells = [(x, y) for y in range(14) for x in range(14)]
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 7))
        start = [cells[j] for j in rng.choice(len(cells), n, replace=False)]
        k = int(rng.integers(1, min(3, n - 1) + 1))
        goal = (float(rng.integers(3, 11)), float(rng.integers(3, 11)))
        static = build_goal_field(grid, GoalParams(goal=goal)) if rng.random() < 0.5 else None
        cfg = OptimizeConfig(k=k, search_order=int(rng.integers(1, 5)), goal=goal)
        state = make_state(start, grid, k=k)
        try:
            stream = list(sweeps(state.positions, grid, static, IPARAMS, cfg))
        except ConnectivityError:
            continue
        out.append((state, grid, static, cfg, stream))
    return out


def test_stream_ends_at_its_first_repeated_state():
    # [DERIVED] end states are pairwise distinct, the start included, except
    # the last, which equals an earlier one; only that sweep is marked last
    endings = set()
    for state, _, _, _, stream in random_streams():
        states = [state.positions] + [s.positions for s in stream]
        assert len(set(states[:-1])) == len(states) - 1
        assert states[-1] in states[:-1]
        assert [s.last for s in stream] == [False] * (len(stream) - 1) + [True]
        # a fixed point repeats the state just before it; only a zero-move
        # sweep does
        assert (stream[-1].moved == 0) == (states[-1] == states[-2])
        endings.add("fixed point" if stream[-1].moved == 0 else "cycle")
    assert endings == {"fixed point", "cycle"}


def test_optimize_reports_converged_only_after_a_zero_move_sweep(monkeypatch):
    # [DERIVED] each stream read whole and cut at every sweep cap: the status
    # names how the last sweep read ended
    for state, grid, static, _, stream in random_streams(count=15, seed=11):
        with monkeypatch.context() as m:
            m.setattr(mrf, "sweeps", lambda *args, stream=stream: iter(stream))
            for cap in range(1, len(stream) + 1):
                cfg = OptimizeConfig(max_sweeps=cap)
                _, trace = optimize(state, grid, static, IPARAMS, cfg)
                last = stream[cap - 1]
                expected = "max-sweeps" if not last.last else "cycle" if last.moved else "converged"
                assert trace.status == expected
                assert len(trace.sweep_seconds) == cap
                assert trace.iterations == sum(s.moved > 0 for s in stream[:cap])
    # three robots far apart: the far one walks in one cell a sweep, and its
    # fourth and fifth sweeps each change the energy by less than 1e-6, where
    # a stop on stagnant energy called this moving swarm converged
    grid = free_grid(200, 200)
    cfg = OptimizeConfig(k=1, max_sweeps=40)
    _, trace = optimize(make_state(((5, 5), (6, 5), (5, 180)), grid, k=1), grid, None, IPARAMS, cfg)
    assert trace.status == "max-sweeps" and trace.moved_counts[-1] == 1
