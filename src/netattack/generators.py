"""Graph sources: preferential-attachment growth and edge-list files."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .graph import Graph, finish_graph


@dataclass(frozen=True)
class BaParams:
    """Growth parameters: final size n, attachments per new node m.

    Requires n > m >= 1. The seed component is a complete graph on m
    nodes, so the finished graph has C(m,2) + (n-m)*m edges exactly.
    """

    n: int
    m: int
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.n <= self.m:
            raise ValueError(f"need n > m, got n={self.n} m={self.m}")


def generate_ba(params: BaParams) -> Graph:
    """Grow a scale-free graph by degree-proportional attachment.

    Each new node wires to m distinct existing nodes, picked with
    probability proportional to max(degree, 1) via an urn of node ids
    repeated once per degree unit. Deterministic for a fixed seed.
    """
    getrandbits = random.Random(params.seed).getrandbits
    n, m = params.n, params.m
    # targets are distinct earlier nodes, so appending keeps every list
    # sorted and free of duplicates and self-loops: no build_graph pass
    adjacency: list[list[int]] = [[j for j in range(m) if j != i] for i in range(m)]
    urn: list[int] = []
    for i in range(m):
        urn.extend([i] * max(m - 1, 1))
    for v in range(m, n):
        size = len(urn)
        k = size.bit_length()
        row: list[int] = []
        while len(row) < m:
            # the draws Random.randrange(size) makes on Python 3.10-3.13
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            t = urn[r]
            if t not in row:
                row.append(t)
        row.sort()
        for t in row:
            nbrs = adjacency[t]
            # degree-0 nodes carry one urn entry; replace it on first hit
            if not nbrs:
                urn.remove(t)
            nbrs.append(v)
        adjacency.append(row)
        urn += row
        urn += [v] * m
    return Graph(adjacency)


def degree_histogram(g: Graph) -> dict[int, int]:
    """Live-degree counts over live nodes, keys ascending."""
    alive = g.alive
    counts = Counter(sum(alive[u] for u in nbrs) for nbrs, up in zip(g.adjacency, alive) if up)
    return dict(sorted(counts.items()))


def load_edge_list(path: str | Path) -> tuple[Graph, list[str]]:
    """Graph from a whitespace-separated edge file.

    Each non-comment line is "label_a label_b". Labels are arbitrary
    tokens mapped to dense ids in first-seen order; the returned list
    gives the original label for each id. Lines whose first token starts
    with '#' and blank lines are skipped. A malformed line raises
    ValueError naming the 1-based line number. The file is read in
    blocks of about 16 KiB, and only a block holding a malformed line is
    checked line by line. Each edge goes straight into its two adjacency
    rows, self-loops counted and skipped, and :func:`graph.finish_graph`
    drops the duplicates once the file is read, so loading holds about
    the graph and one block, never a copy per edge.
    """
    path = Path(path)
    index: dict[str, int] = {}
    get = index.get
    adjacency: list[list[int]] = []
    self_loops = 0
    lineno = 0
    with path.open("r", encoding="utf-8") as fh:
        while block := fh.readlines(1 << 14):
            rows = [parts for parts in map(str.split, block) if parts and parts[0][0] != "#"]
            if not set(map(len, rows)) <= {2}:
                for at, parts in enumerate(map(str.split, block), start=lineno + 1):
                    if parts and parts[0][0] != "#" and len(parts) != 2:
                        raise ValueError(f"{path}:{at}: expected two labels, got {len(parts)}")
            for a, b in rows:
                if (u := get(a)) is None:
                    u = index[a] = len(adjacency)
                    adjacency.append([])
                if (v := get(b)) is None:
                    v = index[b] = len(adjacency)
                    adjacency.append([])
                if u == v:
                    self_loops += 1
                else:
                    adjacency[u].append(v)
                    adjacency[v].append(u)
            lineno += len(block)
    return finish_graph(adjacency, self_loops), list(index)


def write_edge_list(
    g: Graph, path: str | Path, comments: Iterable[str] = ()
) -> None:
    """Write live edges as "u v" lines with optional '#' header comments.

    Edges are ordered by (max endpoint, min endpoint). When every node
    beyond the first links to some lower id (true for all grown graphs
    here), reloading assigns each label its own id back, so a write/load
    round trip preserves node identity. Isolated nodes are not written.
    """
    path = Path(path)
    alive = g.alive
    lines: list[tuple[int, int]] = []
    for v in range(g.node_count):
        if not alive[v]:
            continue
        for u in g.adjacency[v]:
            if u > v and alive[u]:
                lines.append((u, v))
    lines.sort()
    with path.open("w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        for hi, lo in lines:
            fh.write(f"{lo} {hi}\n")
