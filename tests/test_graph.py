"""Interaction-graph tests: k-nearest-neighbor construction, Bron-Kerbosch
maximal cliques against a brute-force oracle, and the connectivity condition."""

import itertools
import math

import numpy as np
import pytest

from swarmplan.graph import (
    build_interaction_graph,
    check_connectivity_condition,
    maximal_cliques,
)


def brute_force_maximal_cliques(adj):
    """[DERIVED] oracle: enumerate every vertex subset, keep cliques with no
    strict clique superset."""
    n = adj.shape[0]
    cliques = []
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            if all(adj[a, b] for a, b in itertools.combinations(subset, 2)):
                cliques.append(set(subset))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return tuple(sorted(tuple(sorted(c)) for c in maximal))


def test_knn_selection_by_hand():
    # [DERIVED] four collinear robots at x = 0, 1, 3, 7 with k=1:
    # 0 picks 1, 1 picks 0, 2 picks 1, 3 picks 2; union gives edges
    # {0,1}, {1,2}, {2,3}.
    g = build_interaction_graph([(0, 0), (1, 0), (3, 0), (7, 0)], k=1)
    expected = np.zeros((4, 4), dtype=bool)
    for a, b in [(0, 1), (1, 2), (2, 3)]:
        expected[a, b] = expected[b, a] = True
    assert np.array_equal(g.adjacency, expected)


def test_knn_tie_broken_by_lower_id():
    # Robot 0 is equidistant from robots 1 and 2; with k=1 it must pick id 1.
    g = build_interaction_graph([(0, 0), (2, 0), (-2, 0)], k=1)
    assert g.adjacency[0, 1]
    # The edge 0-2 exists anyway because robot 2's nearest peer is robot 0.
    assert g.adjacency[2, 0]


def sorted_knn_adjacency(positions, k, r_comm):
    """[DERIVED] reference: per robot, sort the others by (distance, id) and
    keep the first k within range; symmetrize by union."""
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    dist = np.hypot(pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1])
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (dist[i, j], j))
        adj[i, [j for j in order if dist[i, j] <= r_comm][:k]] = True
    return adj | adj.T


def test_knn_equals_sorted_reference_with_ties_and_range():
    # Lattice positions in a small box make many equal distances.
    rng = np.random.default_rng(17)
    for _ in range(150):
        n = int(rng.integers(2, 12))
        cells = set()
        while len(cells) < n:
            cells.add((int(rng.integers(0, 6)), int(rng.integers(0, 6))))
        positions = sorted(cells, key=lambda _: rng.random())
        k = int(rng.integers(1, n))
        r_comm = [math.inf, 1.0, 2.0, 2.5, 3.0][int(rng.integers(0, 5))]
        g = build_interaction_graph(positions, k, r_comm)
        assert np.array_equal(g.adjacency, sorted_knn_adjacency(positions, k, r_comm))
        assert g.cliques == maximal_cliques(g.adjacency)


def test_adjacency_symmetric_irreflexive():
    rng = np.random.default_rng(7)
    pos = rng.uniform(0, 50, size=(9, 2))
    g = build_interaction_graph(pos, k=3)
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert not g.adjacency.diagonal().any()


def test_comm_range_limits_neighbors():
    # With r_comm below the 0-2 gap, robot 2 finds nobody in range.
    g = build_interaction_graph([(0, 0), (1, 0), (10, 0)], k=2, r_comm=5.0)
    assert not g.adjacency[2].any()
    assert not check_connectivity_condition(g)
    assert (2,) in g.cliques


def test_connectivity_condition_true_when_all_have_neighbors():
    g = build_interaction_graph([(0, 0), (1, 0), (2, 0)], k=1)
    assert check_connectivity_condition(g)


@pytest.mark.parametrize("k", [0, 3])
def test_invalid_k_rejected(k):
    with pytest.raises(ValueError):
        build_interaction_graph([(0, 0), (1, 0), (2, 0)], k=k)


def test_duplicate_positions_rejected():
    with pytest.raises(ValueError):
        build_interaction_graph([(1, 1), (1, 1), (2, 2)], k=1)


def test_nonpositive_comm_range_rejected():
    with pytest.raises(ValueError):
        build_interaction_graph([(0, 0), (1, 0)], k=1, r_comm=0.0)


def test_maximal_cliques_triangle_plus_pendant():
    # [DERIVED] triangle 0-1-2 with pendant 3 on vertex 2:
    # maximal cliques are (0,1,2) and (2,3).
    adj = np.zeros((4, 4), dtype=bool)
    for a, b in [(0, 1), (0, 2), (1, 2), (2, 3)]:
        adj[a, b] = adj[b, a] = True
    assert maximal_cliques(adj) == ((0, 1, 2), (2, 3))


def test_maximal_cliques_isolated_vertex_is_singleton():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    assert maximal_cliques(adj) == ((0, 1), (2,))


def test_maximal_cliques_complete_graph():
    n = 6
    adj = ~np.eye(n, dtype=bool)
    assert maximal_cliques(adj) == (tuple(range(n)),)


def test_maximal_cliques_empty_graph():
    adj = np.zeros((4, 4), dtype=bool)
    assert maximal_cliques(adj) == ((0,), (1,), (2,), (3,))


def test_maximal_cliques_match_brute_force_on_random_graphs():
    # [DERIVED] 100 seeded random graphs checked against subset enumeration.
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        p = rng.uniform(0.1, 0.9)
        adj = rng.random((n, n)) < p
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        assert maximal_cliques(adj) == brute_force_maximal_cliques(adj)


def set_bron_kerbosch(adj):
    """[DERIVED] oracle: the set-based pivoting Bron-Kerbosch recursion the
    bitset one replaced (pivot: most neighbors in P, lowest id on ties)."""
    n = adj.shape[0]
    neighbors = [set(np.flatnonzero(adj[i]).tolist()) for i in range(n)]
    found = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            found.append(tuple(sorted(clique)))
            return
        pivot = max(sorted(candidates | excluded), key=lambda u: len(candidates & neighbors[u]))
        for v in sorted(candidates - neighbors[pivot]):
            expand(clique | {v}, candidates & neighbors[v], excluded & neighbors[v])
            candidates.remove(v)
            excluded.add(v)

    expand(set(), set(range(n)), set())
    return tuple(sorted(found))


def test_maximal_cliques_match_set_oracle_on_knn_graphs():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(5, 31))
        cells = rng.choice(60 * 60, size=n, replace=False)
        pos = np.stack([cells % 60, cells // 60], axis=1)
        g = build_interaction_graph(pos, k=int(rng.integers(1, min(n - 1, 6) + 1)))
        assert g.cliques == set_bron_kerbosch(g.adjacency)


def test_maximal_cliques_match_set_oracle_on_dense_graphs():
    # dense graphs have many large overlapping cliques; n > 63 needs
    # neighbor masks wider than one machine word
    rng = np.random.default_rng(32)
    for n, p in [*((int(n), rng.uniform(0.5, 0.9)) for n in rng.integers(10, 25, size=40)), (70, 0.3)]:
        adj = np.triu(rng.random((n, n)) < p, 1)
        adj = adj | adj.T
        assert maximal_cliques(adj) == set_bron_kerbosch(adj)


def test_cliques_of_lists_each_robots_cliques_in_order():
    rng = np.random.default_rng(33)
    for _ in range(50):
        pos = rng.choice(400, size=12, replace=False)
        g = build_interaction_graph(np.stack([pos % 20, pos // 20], axis=1), k=3)
        assert g.cliques_of == tuple(
            tuple(c for c in g.cliques if i in c) for i in range(g.n_robots)
        )


def test_cliques_sorted_deterministically():
    adj = np.zeros((5, 5), dtype=bool)
    for a, b in [(3, 4), (0, 1), (1, 2), (0, 2)]:
        adj[a, b] = adj[b, a] = True
    cliques = maximal_cliques(adj)
    assert cliques == tuple(sorted(cliques))
    assert all(c == tuple(sorted(c)) for c in cliques)


def test_every_robot_appears_in_some_clique():
    rng = np.random.default_rng(5)
    pos = rng.uniform(0, 40, size=(8, 2))
    g = build_interaction_graph(pos, k=2)
    covered = set()
    for c in g.cliques:
        covered.update(c)
    assert covered == set(range(8))

