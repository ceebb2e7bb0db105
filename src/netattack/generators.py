"""Graph sources: preferential-attachment growth and edge-list files."""

from __future__ import annotations

import random
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


def load_edge_list(path: str | Path) -> tuple[Graph, list[str]]:
    """Graph from a whitespace-separated edge file.

    Each non-comment line is "label_a label_b". Labels are arbitrary
    tokens mapped to dense ids in first-seen order; the returned list
    gives the original label for each id. Lines whose first token starts
    with '#', blank lines and a leading UTF-8 byte order mark are
    skipped. A malformed line raises ValueError naming the 1-based line
    number. The file is read line by line in one pass. Each edge goes
    straight into its two adjacency rows, self-loops counted and
    skipped, and :func:`graph.finish_graph` drops the duplicates once
    the file is read, so loading holds about the graph, never a copy per
    edge.
    """
    path = Path(path)
    index: dict[str, int] = {}
    get = index.get
    adjacency: list[list[int]] = []
    self_loops = 0
    with path.open("r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two labels, got {len(parts)}")
            a, b = parts
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
    return finish_graph(adjacency, self_loops), list(index)


def write_edge_list(g: Graph, path: str | Path, comments: Iterable[str] = ()) -> None:
    """Write live edges as "u v" lines with optional '#' header comments.

    Edges are ordered by (max endpoint, min endpoint), as read off the
    ascending rows: row by row, each row's lower neighbours. When every
    node beyond the first links to some lower id (true for all grown
    graphs here), reloading assigns each label its own id back, so a
    write/load round trip preserves node identity. Isolated nodes are
    not written.
    """
    alive = g.alive
    with open(path, "w", encoding="utf-8") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        for hi, row in enumerate(g.adjacency):
            if alive[hi]:
                fh.writelines(f"{lo} {hi}\n" for lo in row if lo < hi and alive[lo])
