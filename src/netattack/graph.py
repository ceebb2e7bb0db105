"""Undirected graph with node-crash semantics.

The attack simulations never delete edges from the adjacency structure.
A node is removed by flipping its live flag; the adjacency built at
construction time stays immutable, so observables can be read off a
removal order against it. The attack loop keeps its own crash state as
plain lists and never mutates a graph. No sweep calls ``crash_node``:
the tests crash nodes one at a time with it, and the benchmark tracer
probes it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

# BFS sources per chunk of the distance kernel, in 64-bit words; its
# arrays grow linearly with this and the member count
_CHUNK_WORDS = 4
# neighbour columns the kernel gathers as slices, per BFS level; a hub's
# neighbours past them take one gather and OR-reduce
_COLUMNS = 6


class Graph:
    """Simple undirected graph supporting irreversible node crashes.

    Build instances through :func:`build_graph` or the generators module.
    ``adjacency`` must not be mutated.
    """

    __slots__ = (
        "node_count",
        "adjacency",
        "alive",
        "live_count",
        "dropped_duplicates",
        "dropped_self_loops",
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
        self.live_count = n
        self.dropped_duplicates = dropped_duplicates
        self.dropped_self_loops = dropped_self_loops

    # -- basic queries ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def live_neighbors(self, v: int) -> set[int]:
        """Live neighbors of v; valid for crashed v as well."""
        self._check_id(v)
        alive = self.alive
        return {u for u in self.adjacency[v] if alive[u]}

    def _check_id(self, v: int) -> None:
        if not 0 <= v < self.node_count:
            raise ValueError(f"node id {v} outside [0, {self.node_count})")

    # -- mutation ----------------------------------------------------------------

    def crash_node(self, v: int) -> None:
        """Remove a live node; its edges stay in ``adjacency``."""
        self._check_id(v)
        if not self.alive[v]:
            raise ValueError(f"node {v} already crashed")
        self.alive[v] = False
        self.live_count -= 1

    # -- distances ----------------------------------------------------------------

    def avg_shortest_path(self, members: Sequence[int], live: Sequence) -> float | None:
        """Mean hop count over the member pairs of one whole live cluster.

        ``members``, a sequence or int array of ids, must be exactly one
        connected cluster of the nodes that ``live`` flags, or ValueError
        is raised. None for fewer than two members.
        """
        import numpy as np

        ids = np.asarray(members, dtype=np.intp)
        live = np.frombuffer(bytes(live), dtype=np.uint8)
        # first, as numpy indexing would wrap a negative id
        outside = (ids < 0) | (ids >= self.node_count)
        if outside.any():
            raise ValueError(f"node id {ids[outside].min()} outside [0, {self.node_count})")
        crashed = live[ids] == 0
        if crashed.any():
            raise ValueError(f"member {ids[crashed].min()} is crashed")
        k = len(ids)
        if k < 2:
            return None
        return self._pair_distance_sum(ids, live) / (k * (k - 1))

    def _pair_distance_sum(self, ids, live) -> int:
        """Ordered-pair hop total over a whole cluster, by bit-parallel BFS.

        Multi-source BFS (Then et al., VLDB 2014): each member is a BFS
        source with its own bit, 64 sources to a uint64 word, and one
        level of all their searches ORs each member's neighbour rows of
        the frontier into its row of the next. The neighbours sit in a
        degree-sorted, column-sliced layout (SELL-C-sigma, Kreutzer et
        al., SIAM J. Sci. Comput. 36(5), 2014): the members are numbered
        by descending live degree, so those with a c-th neighbour are a
        prefix of the numbering, and a level is one contiguous gather per
        column c < ``_COLUMNS``, ORed into that prefix. Only the
        neighbours of the hubs past those columns take a gather and an
        OR-reduce. ``ids`` are the members in any order and ``live`` the
        live flags, both as numpy arrays. A repeated member, a live
        neighbour outside the members, a member with no live neighbour, or
        a search that misses a member raises ValueError.
        """
        import numpy as np

        k = len(ids)
        rows = [self.adjacency[v] for v in ids.tolist()]
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=k)
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=int(lengths.sum()))
        up = live[flat] != 0
        degree = np.bincount(np.repeat(np.arange(k), lengths)[up], minlength=k)
        order = np.argsort(-degree, kind="stable")
        local = np.full(self.node_count, -1, dtype=np.intp)
        local[ids[order]] = np.arange(k)
        # a repeated member takes one slot for two numbers
        if np.count_nonzero(local >= 0) != k:
            raise ValueError("duplicate member ids")
        # CSR of the live neighbours in the members' degree order, where
        # -1 is a non-member
        indices = local[flat[up]]
        starts = (np.cumsum(degree) - degree)[order]
        degree = degree[order]
        # an isolated member sorts last
        if degree[-1] == 0 or indices.min() < 0:
            raise ValueError("members are not one whole live cluster")
        columns = [
            indices[starts[: np.count_nonzero(degree > c)] + c]
            for c in range(min(_COLUMNS, degree[0]))
        ]
        hubs = np.count_nonzero(degree > _COLUMNS)
        spill = degree[:hubs] - _COLUMNS
        spill_starts = np.cumsum(spill) - spill
        tail = indices[
            np.repeat(starts[:hubs] + _COLUMNS - spill_starts, spill) + np.arange(spill.sum())
        ]
        total = 0
        for lo in range(0, k, 64 * _CHUNK_WORDS):
            bit = np.arange(min(k - lo, 64 * _CHUNK_WORDS), dtype=np.uint64)
            frontier = np.zeros((k, (len(bit) + 63) // 64), dtype=np.uint64)
            frontier[lo + bit, bit >> 6] = np.uint64(1) << (bit & 63)
            unseen = ~frontier
            nxt = np.empty_like(frontier)
            part = np.empty_like(frontier)
            tail_rows = np.empty((len(tail), frontier.shape[1]), dtype=np.uint64)
            reached = 0
            level = 0
            while True:
                level += 1
                # "clip" (the indices are in range) spares the copy "raise" makes for out=
                frontier.take(columns[0], axis=0, out=nxt, mode="clip")
                for column in columns[1:]:
                    gathered = part[: len(column)]
                    frontier.take(column, axis=0, out=gathered, mode="clip")
                    nxt[: len(column)] |= gathered
                if hubs:
                    frontier.take(tail, axis=0, out=tail_rows, mode="clip")
                    np.bitwise_or.reduceat(tail_rows, spill_starts, axis=0, out=part[:hubs])
                    nxt[:hubs] |= part[:hubs]
                nxt &= unseen
                count = int(np.bitwise_count(nxt).sum())
                if not count:
                    break
                unseen ^= nxt
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
    adjacency: list[list[int]] = [[] for _ in range(n)]
    # one code per undirected pair seen, so rows take no duplicate
    pairs: set[int] = set()
    duplicates = 0
    self_loops = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            self_loops += 1
            continue
        code = u * n + v if u < v else v * n + u
        if code in pairs:
            duplicates += 1
            continue
        pairs.add(code)
        adjacency[u].append(v)
        adjacency[v].append(u)
    if duplicates or self_loops:
        import logging

        logging.getLogger(__name__).warning(
            "dropped %d duplicate edge(s) and %d self-loop(s)", duplicates, self_loops
        )
    for row in adjacency:
        row.sort()
    return Graph(
        adjacency,
        dropped_duplicates=duplicates,
        dropped_self_loops=self_loops,
    )
