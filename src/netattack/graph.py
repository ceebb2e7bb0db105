"""Undirected graph with node-crash semantics.

The attack simulations never delete edges from the adjacency structure.
A node is removed by flipping its live flag; the adjacency built at
construction time stays immutable, so graphs can be copied cheaply and
observables can be read off a removal order against it. Live degrees
are maintained incrementally, so a crash costs O(degree) and a
live-degree read O(1); choosing the highest-degree target is left to
the attack loop.
"""

from __future__ import annotations

import logging
from typing import Iterable, Sequence

log = logging.getLogger(__name__)

# BFS sources per chunk of the distance kernel, in 64-bit words; its
# arrays grow linearly with this and the live edge count
_CHUNK_WORDS = 4


class Graph:
    """Simple undirected graph supporting irreversible node crashes.

    Build instances through :func:`build_graph` or the generators module.
    ``adjacency`` is shared between copies and must not be mutated.
    """

    __slots__ = (
        "node_count",
        "adjacency",
        "alive",
        "live_degree",
        "live_count",
        "dropped_duplicates",
        "dropped_self_loops",
        "_live_list",
        "_live_pos",
    )

    def __init__(
        self,
        adjacency: list[list[int]],
        *,
        dropped_duplicates: int = 0,
        dropped_self_loops: int = 0,
    ):
        n = len(adjacency)
        self.node_count = n
        self.adjacency = adjacency
        self.alive = [True] * n
        self.live_degree = [len(nbrs) for nbrs in adjacency]
        self.live_count = n
        self.dropped_duplicates = dropped_duplicates
        self.dropped_self_loops = dropped_self_loops
        self._live_list = list(range(n))
        self._live_pos = list(range(n))

    # -- construction helpers -------------------------------------------------

    def copy(self) -> "Graph":
        """Independent crash state over the same (shared) adjacency."""
        g = Graph.__new__(Graph)
        g.node_count = self.node_count
        g.adjacency = self.adjacency
        g.alive = list(self.alive)
        g.live_degree = list(self.live_degree)
        g.live_count = self.live_count
        g.dropped_duplicates = self.dropped_duplicates
        g.dropped_self_loops = self.dropped_self_loops
        g._live_list = list(self._live_list)
        g._live_pos = list(self._live_pos)
        return g

    # -- basic queries ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def live_neighbors(self, v: int) -> set[int]:
        """Live neighbors of v; valid for crashed v as well."""
        self._check_id(v)
        alive = self.alive
        return {u for u in self.adjacency[v] if alive[u]}

    def random_live_node(self, rng) -> int | None:
        """Uniform draw over live nodes, None if all crashed."""
        if not self._live_list:
            return None
        return self._live_list[rng.randrange(len(self._live_list))]

    def _check_id(self, v: int) -> None:
        if not 0 <= v < self.node_count:
            raise ValueError(f"node id {v} outside [0, {self.node_count})")

    # -- mutation ----------------------------------------------------------------

    def crash_node(self, v: int) -> None:
        """Remove a live node and detach it from every live neighbor."""
        self._check_id(v)
        if not self.alive[v]:
            raise ValueError(f"node {v} already crashed")
        self.alive[v] = False
        self.live_degree[v] = 0
        pos = self._live_pos[v]
        last = self._live_list[-1]
        self._live_list[pos] = last
        self._live_pos[last] = pos
        self._live_list.pop()
        self._live_pos[v] = -1
        self.live_count -= 1
        alive = self.alive
        degree = self.live_degree
        for u in self.adjacency[v]:
            if alive[u]:
                degree[u] -= 1

    # -- distances ----------------------------------------------------------------

    def avg_shortest_path(self, members: Iterable[int], live: Sequence) -> float | None:
        """Mean hop count over the member pairs of one whole live cluster.

        ``members`` must be exactly one connected cluster of the nodes
        that ``live`` flags, or ValueError is raised. None for fewer than
        two members.
        """
        ids = sorted(members)
        for v in ids:
            self._check_id(v)
            if not live[v]:
                raise ValueError(f"member {v} is crashed")
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate member ids")
        if len(ids) < 2:
            return None
        k = len(ids)
        return self._pair_distance_sum(ids, live) / (k * (k - 1))

    def _pair_distance_sum(self, ids: list[int], live: Sequence) -> int:
        """Ordered-pair hop total over a whole cluster, by bit-parallel BFS.

        Multi-source BFS (Then et al., VLDB 2014): each member is a BFS
        source with its own bit, 64 sources to a uint64 word, and one
        level of all their searches is a gather and an OR-reduce over the
        members' CSR rows. A live neighbour outside the members, a member
        with no live neighbour, or a search that misses a member raises
        ValueError.
        """
        import numpy as np

        adjacency = self.adjacency
        local = [-1] * self.node_count
        for i, v in enumerate(ids):
            local[v] = i
        indptr = [0]
        indices: list[int] = []
        for v in ids:
            indices.extend(local[u] for u in adjacency[v] if live[u])
            indptr.append(len(indices))
        indptr = np.array(indptr, dtype=np.intp)
        indices = np.array(indices, dtype=np.intp)
        # reduceat needs every row non-empty, and local id -1 is a non-member
        if (indptr[1:] == indptr[:-1]).any() or indices.min() < 0:
            raise ValueError("members are not one whole live cluster")
        k = len(ids)
        starts = indptr[:-1]
        total = 0
        for lo in range(0, k, 64 * _CHUNK_WORDS):
            bit = np.arange(min(k - lo, 64 * _CHUNK_WORDS), dtype=np.uint64)
            frontier = np.zeros((k, (len(bit) + 63) // 64), dtype=np.uint64)
            frontier[lo + bit, bit >> 6] = np.uint64(1) << (bit & 63)
            unseen = ~frontier
            gathered = np.empty((len(indices), frontier.shape[1]), dtype=np.uint64)
            nxt = np.empty_like(frontier)
            reached = 0
            level = 0
            while True:
                level += 1
                # "clip" (the indices are in range) spares the copy "raise" makes for out=
                np.take(frontier, indices, axis=0, out=gathered, mode="clip")
                np.bitwise_or.reduceat(gathered, starts, axis=0, out=nxt)
                nxt &= unseen
                if not nxt.any():
                    break
                unseen ^= nxt
                count = int(np.bitwise_count(nxt).sum())
                reached += count
                total += level * count
                frontier, nxt = nxt, frontier
            if reached != len(bit) * (k - 1):
                raise ValueError("members are not one whole live cluster")
        return total


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Graph on node ids 0..n-1 from an edge pair iterable.

    Duplicate edges (either orientation) and self-loops are dropped with
    a warning; counts land in dropped_duplicates / dropped_self_loops.
    An endpoint outside [0, n) raises ValueError.
    """
    if n < 0:
        raise ValueError(f"node count must be >= 0, got {n}")
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    duplicates = 0
    self_loops = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            self_loops += 1
            continue
        if v in neighbor_sets[u]:
            duplicates += 1
            continue
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    if duplicates or self_loops:
        log.warning(
            "dropped %d duplicate edge(s) and %d self-loop(s)", duplicates, self_loops
        )
    adjacency = [sorted(s) for s in neighbor_sets]
    return Graph(
        adjacency,
        dropped_duplicates=duplicates,
        dropped_self_loops=self_loops,
    )
