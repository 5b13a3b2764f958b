"""Topological (k-nearest) interaction graph over robots and its maximal
clique factorization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected robot interaction graph.

    `adjacency` is a symmetric, irreflexive boolean matrix; `cliques` holds
    every maximal clique as a sorted tuple, the whole set sorted
    lexicographically so output is deterministic.
    """

    n_robots: int
    adjacency: np.ndarray
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @cached_property
    def cliques_of(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per robot, the cliques that contain it, in `cliques` order; built
        on first use and kept with the graph."""
        members: list[list[tuple[int, ...]]] = [[] for _ in range(self.n_robots)]
        for clique in self.cliques:
            for i in clique:
                members[i].append(clique)
        return tuple(map(tuple, members))


def pack_rows(matrix: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean array as an int: bit j is entry [row, j]."""
    rows = np.asarray(matrix, dtype=bool)
    packed = np.packbits(rows, axis=1, bitorder="little").tobytes()
    width = len(packed) // len(rows) if len(rows) else 0
    return [int.from_bytes(packed[k * width : (k + 1) * width], "little") for k in range(len(rows))]


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def maximal_cliques(adjacency: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Enumerate maximal cliques with the pivoting Bron-Kerbosch recursion
    (Tomita, Tanaka & Takahashi 2006) on int bitsets: bit j of vertex i's
    mask is set iff i and j are adjacent, and the clique, candidate and
    excluded sets are masks too.

    Pivot: vertex of P|X with the most neighbors in P, lowest id on ties.
    Isolated vertices yield singleton cliques. Each clique is a sorted tuple
    and the result is sorted, so it does not depend on the recursion order.
    """
    neighbors = pack_rows(adjacency)
    n = len(neighbors)
    found: list[int] = []

    def expand(clique: int, candidates: int, excluded: int):
        if not candidates:
            if not excluded:
                found.append(clique)
            return
        most = -1
        rest = candidates | excluded
        while rest:  # ascending ids, so ties keep the lowest
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            count = (candidates & neighbors[u]).bit_count()
            if count > most:
                most, pivot = count, u
        todo = candidates & ~neighbors[pivot]
        while todo:
            low = todo & -todo
            todo ^= low
            nv = neighbors[low.bit_length() - 1]
            expand(clique | low, candidates & nv, excluded & nv)
            candidates ^= low
            excluded |= low

    expand(0, (1 << n) - 1, 0)
    return tuple(sorted(map(_bits, found)))


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
    if np.count_nonzero(dist == 0) > n:  # the diagonal holds n zeros
        raise ValueError("robot positions must be pairwise distinct")

    # a stable sort keeps equal distances in id order; column 0 is the robot
    # itself (its only zero distance), and the sorted distances are ascending,
    # so the in-range peers among the k nearest are the in-range k nearest
    nearest = np.argsort(dist, axis=1, kind="stable")[:, 1 : k + 1]
    rows = np.arange(n)[:, None]
    adj = np.zeros((n, n), dtype=bool)
    adj[rows, nearest] = dist[rows, nearest] <= r_comm
    adj |= adj.T

    return InteractionGraph(n_robots=n, adjacency=adj, cliques=maximal_cliques(adj))


def check_connectivity_condition(g: InteractionGraph) -> bool:
    """True iff every robot has at least one neighbor."""
    if g.n_robots == 0:
        return True
    return bool(np.all(g.adjacency.any(axis=1)))

