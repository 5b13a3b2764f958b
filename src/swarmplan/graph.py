"""Topological (k-nearest) interaction graph over robots and its maximal
clique factorization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected robot interaction graph.

    `adjacency` is a symmetric, irreflexive boolean matrix; `cliques` holds
    every maximal clique as a sorted tuple, the whole set sorted
    lexicographically so output is deterministic.
    """

    n_robots: int
    k: int
    r_comm: float
    adjacency: np.ndarray
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)


def maximal_cliques(adjacency: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Enumerate maximal cliques with the pivoting Bron-Kerbosch recursion.

    Pivot: vertex of P|X with the most neighbors in P, lowest id on ties.
    Isolated vertices yield singleton cliques.
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    neighbors = [set(np.flatnonzero(adj[i]).tolist()) for i in range(n)]
    found: list[tuple[int, ...]] = []

    def expand(clique: set[int], candidates: set[int], excluded: set[int]):
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


def build_interaction_graph(positions, k: int, r_comm: float = math.inf) -> InteractionGraph:
    """Build the k-nearest-neighbor graph over robot positions.

    Each robot selects its k nearest peers (ties broken by lower robot id)
    within communication range, and the directed relation is symmetrized by
    union. Positions must be pairwise distinct.
    """
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= N-1 (got k={k}, N={n})")
    if not r_comm > 0:
        raise ValueError("r_comm must be positive")

    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    if np.any(dist[~np.eye(n, dtype=bool)] == 0):
        raise ValueError("robot positions must be pairwise distinct")

    # a stable sort keeps equal distances in id order; column 0 is the robot
    # itself (its only zero distance), and the sorted distances are ascending,
    # so the in-range peers among the k nearest are the in-range k nearest
    nearest = np.argsort(dist, axis=1, kind="stable")[:, 1 : k + 1]
    in_range = np.take_along_axis(dist, nearest, axis=1) <= r_comm
    rows = np.broadcast_to(np.arange(n)[:, None], nearest.shape)
    adj = np.zeros((n, n), dtype=bool)
    adj[rows[in_range], nearest[in_range]] = True
    adj |= adj.T

    return InteractionGraph(
        n_robots=n, k=k, r_comm=r_comm, adjacency=adj, cliques=maximal_cliques(adj)
    )


def markov_blanket(g: InteractionGraph, i: int) -> set[int]:
    """Neighbor set of robot i (its conditional-independence blanket)."""
    if not 0 <= i < g.n_robots:
        raise ValueError(f"robot id {i} out of range")
    return set(np.flatnonzero(g.adjacency[i]).tolist())


def check_connectivity_condition(g: InteractionGraph) -> bool:
    """True iff every robot has at least one neighbor."""
    if g.n_robots == 0:
        return True
    return bool(np.all(g.adjacency.any(axis=1)))


def dump_cliques(g: InteractionGraph) -> str:
    """Debug dump: one line per clique, ids space-separated."""
    return "\n".join(" ".join(str(i) for i in c) for c in g.cliques) + "\n"
