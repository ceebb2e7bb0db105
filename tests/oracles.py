"""Slow, obviously-correct reference implementations used by the tests.

Nothing here imports the package under test; every function recomputes
its answer from first principles so the fast engine code has something
independent to disagree with.
"""

import random
from itertools import combinations


def components(adjacency: list, alive: list) -> list[frozenset]:
    """All live connected components, as frozensets of node ids."""
    seen: set[int] = set()
    out = []
    for start in range(len(adjacency)):
        if not alive[start] or start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if alive[v] and v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        out.append(frozenset(comp))
    return out


def largest_component(adjacency: list, alive: list) -> frozenset:
    comps = components(adjacency, alive)
    if not comps:
        return frozenset()
    # biggest size, then smallest contained id
    return max(comps, key=lambda c: (len(c), -min(c)))


def floyd_warshall_mean(adjacency: list, alive: list, members) -> float:
    """Mean pairwise shortest-path length inside one live component."""
    ids = sorted(members)
    idx = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    inf = float("inf")
    dist = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    for v in ids:
        for u in adjacency[v]:
            if alive[u] and u in idx:
                dist[idx[v]][idx[u]] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    pairs = n * (n - 1) // 2
    total = sum(dist[i][j] for i, j in combinations(range(n), 2))
    return total / pairs


def live_degree(adjacency: list, alive: list, v: int) -> int:
    return sum(1 for u in adjacency[v] if alive[u])


def max_live_degree(adjacency: list, alive: list, excluded=frozenset()):
    """Highest live-degree live node, smallest id on ties, or None."""
    best, best_d = None, -1
    for v in range(len(adjacency)):
        if not alive[v] or v in excluded:
            continue
        d = live_degree(adjacency, alive, v)
        if d > best_d:
            best, best_d = v, d
    return best


def read_off(members, live) -> tuple[list, bytes]:
    """A cluster as a union-find pass hands it over, as plain values.

    Pass it as ``giant_sizes``'s ``of_cluster`` to keep each requested
    step's members (ascending ids, as a list) and its live mask.
    """
    return members.tolist(), live


def random_draws(adjacency: list, kind: str, seed: int, order: list, first_drawn: bool) -> list:
    """Replay single-node picks and say which node each random draw takes.

    ``order`` is the attack's pick order. The replay keeps the live ids in
    a list that a crash shrinks by swap-remove: the last id moves into the
    crashed one's slot. A pick is a draw for every ``random_failure``
    pick, for a ``greedy_sequential`` pick whose previous kill has no live
    neighbour, for a ``coordinated`` pick when no live node borders a
    crashed one, and for the first pick when ``first_drawn``. A draw takes
    ``live[rng.randrange(len(live))]`` with ``random.Random(seed)``. The
    result holds that node at each draw and None at every other pick.
    """
    n = len(adjacency)
    rng = random.Random(seed)
    live = list(range(n))
    alive = [True] * n
    expected = []
    for i, v in enumerate(order):
        if i == 0:
            drawn = first_drawn
        elif kind == "greedy_sequential":
            drawn = not any(alive[u] for u in adjacency[order[i - 1]])
        elif kind == "coordinated":
            drawn = not any(alive[u] for w in order[:i] for u in adjacency[w])
        else:
            drawn = kind == "random_failure"
        expected.append(live[rng.randrange(len(live))] if drawn else None)
        slot = live.index(v)
        live[slot] = live[-1]
        live.pop()
        alive[v] = False
    return expected


def random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def random_connected_edges(rng: random.Random, n: int, extra: float = 0.08):
    """A random tree on n nodes plus a sprinkle of extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra:
                edges.add((u, v))
    return sorted(edges)


def build_adjacency(n: int, edges) -> tuple[list, int, int]:
    """(sorted adjacency, duplicates dropped, self-loops dropped) of an
    edge list, built one neighbour set per node.

    Raises the ValueError ``build_graph`` raises for an endpoint outside
    [0, n).
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
    return [sorted(s) for s in neighbor_sets], duplicates, self_loops


def read_edge_list(path) -> tuple[list, list, int, int]:
    """(adjacency, labels, duplicates, self-loops) of an edge-list file,
    read one line at a time.

    Blank lines and lines whose first non-blank character is '#' are
    skipped; every other line must hold two labels, else ValueError names
    ``path:line``. Labels get dense ids in first-seen order.
    """
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two labels, got {len(parts)}")
            a, b = parts
            pairs.append((index.setdefault(a, len(index)), index.setdefault(b, len(index))))
    adjacency, duplicates, self_loops = build_adjacency(len(index), pairs)
    return adjacency, list(index), duplicates, self_loops
