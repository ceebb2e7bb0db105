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

from typing import Iterable, Sequence

# the tuning of the distance kernel (netattack.distance), which loads
# with numpy on the first d row:
# BFS sources per chunk, in 64-bit words; its arrays grow linearly with
# this and the member count
_CHUNK_WORDS = 4
# neighbour columns gathered as slices, per BFS level; a hub's
# neighbours past them take one gather and OR-reduce
_COLUMNS = 6
# leaf share of a cluster from which its pendant trees fold; below it
# the weight planes cost more than the smaller core saves
_FOLD_SHARE = 0.1


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
        connected cluster of the nodes that ``live`` flags, and ``live``
        must hold one flag per node, or ValueError is raised. None for
        fewer than two members.
        """
        import numpy as np

        ids = np.asarray(members, dtype=np.intp)
        live = np.frombuffer(bytes(live), dtype=np.uint8)
        if len(live) != self.node_count:
            raise ValueError(f"live holds {len(live)} flags for {self.node_count} nodes")
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
        from .distance import pair_distance_sum

        total = pair_distance_sum(self.adjacency, ids, live, _CHUNK_WORDS, _COLUMNS, _FOLD_SHARE)
        return total / (k * (k - 1))


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
