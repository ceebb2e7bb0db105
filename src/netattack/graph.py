"""Undirected graph with node-crash semantics.

The attack simulations never delete edges from the adjacency structure.
A node is removed by flipping its live flag; the adjacency built at
construction time stays immutable, so observables can be read off a
removal order against it. The attack loop keeps its own crash state as
plain lists and never mutates a graph. No sweep calls ``crash_node``:
the tests crash nodes one at a time with it, and the benchmark tracer
probes it. ``Graph.avg_shortest_path`` forwards to the d kernel in
``netattack.distance``, which owns its tuning and its input checks.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Graph:
    """Simple undirected graph supporting irreversible node crashes.

    Build instances through :func:`build_graph` or the generators module.
    ``adjacency`` must not be mutated. Its rows ascend, which the line
    order of :func:`write_edge_list` relies on. ``_levels`` caches
    :meth:`degree_levels`: None until the graph's first attack asks.
    """

    __slots__ = (
        "node_count",
        "adjacency",
        "alive",
        "live_count",
        "dropped_duplicates",
        "dropped_self_loops",
        "_levels",
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
        self._levels = None

    # -- basic queries ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree_levels(self) -> tuple[tuple[int, ...], ...]:
        """Ids by construction-time degree: entry d holds those of degree d, ascending.

        Entries run from 0 to the maximum degree, so the last is never
        empty. Filed on the first call and kept, so every attack on the
        graph reads the same levels.
        """
        if self._levels is None:
            levels = [[] for _ in range(max(map(len, self.adjacency), default=-1) + 1)]
            for v, nbrs in enumerate(self.adjacency):
                levels[len(nbrs)].append(v)
            self._levels = tuple(map(tuple, levels))
        return self._levels

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

        See :func:`netattack.distance.avg_shortest_path`, which this forwards to.
        """
        from .distance import avg_shortest_path

        return avg_shortest_path(self.adjacency, members, live)


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Graph on node ids 0..n-1 from an edge pair iterable.

    Duplicate edges (either orientation) and self-loops are dropped with
    a warning; counts land in dropped_duplicates / dropped_self_loops.
    An endpoint outside [0, n) raises ValueError.
    """
    if n < 0:
        raise ValueError(f"node count must be >= 0, got {n}")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    self_loops = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            self_loops += 1
        else:
            adjacency[u].append(v)
            adjacency[v].append(u)
    return finish_graph(adjacency, self_loops)


def finish_graph(adjacency: list[list[int]], self_loops: int) -> Graph:
    """Graph from rows that list each kept edge once per endpoint, repeats included.

    Sorts every row in place and drops its repeats. A duplicate edge
    leaves one extra entry in each of its two rows, so half the entries
    dropped is the duplicate count. Duplicates and the ``self_loops``
    the caller skipped are logged as one warning.
    """
    duplicates = 0
    for v, row in enumerate(adjacency):
        kept = set(row)
        if len(kept) == len(row):
            row.sort()
        else:
            duplicates += len(row) - len(kept)
            adjacency[v] = sorted(kept)
    duplicates //= 2
    if duplicates or self_loops:
        import logging

        logging.getLogger(__name__).warning(
            "dropped %d duplicate edge(s) and %d self-loop(s)", duplicates, self_loops
        )
    return Graph(
        adjacency,
        dropped_duplicates=duplicates,
        dropped_self_loops=self_loops,
    )
