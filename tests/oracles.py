"""Slow, obviously-correct reference implementations used by the tests.

Nothing here imports the package under test; every function recomputes
its answer from first principles so the fast engine code has something
independent to disagree with.
"""

import heapq
import random
from collections import Counter
from itertools import accumulate, chain, combinations


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


def bit_parallel_pair_sum(adjacency: list, members, live, chunk_words=4, columns=6) -> int:
    """Ordered-pair hop total over a whole live cluster, by plain bit-parallel BFS.

    The engine's distance kernel as it ran before it folded pendant trees:
    every member is a BFS source with its own bit, 64 sources to a uint64
    word and ``chunk_words`` words to a chunk, the members numbered by
    descending live degree, with the first ``columns`` neighbour columns
    gathered as slices and the rest of each hub's neighbours by one
    gather and OR-reduce. ``members`` are ids and ``live`` a flag per
    node, as sequences or bytes. Raises ValueError when the members are
    not one whole live cluster.
    """
    import numpy as np

    ids = np.asarray(members, dtype=np.intp)
    live = np.frombuffer(bytes(live), dtype=np.uint8)
    k = len(ids)
    rows = [adjacency[v] for v in ids.tolist()]
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=k)
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=int(lengths.sum()))
    up = live[flat] != 0
    degree = np.bincount(np.repeat(np.arange(k), lengths)[up], minlength=k)
    order = np.argsort(-degree, kind="stable")
    local = np.full(len(adjacency), -1, dtype=np.intp)
    local[ids[order]] = np.arange(k)
    if np.count_nonzero(local >= 0) != k:
        raise ValueError("duplicate member ids")
    indices = local[flat[up]]
    starts = (np.cumsum(degree) - degree)[order]
    degree = degree[order]
    if degree[-1] == 0 or indices.min() < 0:
        raise ValueError("members are not one whole live cluster")
    sliced = [
        indices[starts[: np.count_nonzero(degree > c)] + c] for c in range(min(columns, degree[0]))
    ]
    hubs = np.count_nonzero(degree > columns)
    spill = degree[:hubs] - columns
    spill_starts = np.cumsum(spill) - spill
    tail = indices[
        np.repeat(starts[:hubs] + columns - spill_starts, spill) + np.arange(spill.sum())
    ]
    total = 0
    for lo in range(0, k, 64 * chunk_words):
        bit = np.arange(min(k - lo, 64 * chunk_words), dtype=np.uint64)
        frontier = np.zeros((k, (len(bit) + 63) // 64), dtype=np.uint64)
        frontier[lo + bit, bit >> 6] = np.uint64(1) << (bit & 63)
        unseen = ~frontier
        reached = 0
        level = 0
        while True:
            level += 1
            nxt = frontier[sliced[0]]
            for column in sliced[1:]:
                nxt[: len(column)] |= frontier[column]
            if hubs:
                nxt[:hubs] |= np.bitwise_or.reduceat(frontier[tail], spill_starts, axis=0)
            nxt &= unseen
            count = int(np.bitwise_count(nxt).sum())
            if not count:
                break
            unseen ^= nxt
            reached += count
            total += level * count
            frontier = nxt
        if reached != len(bit) * (k - 1):
            raise ValueError("members are not one whole live cluster")
    return total


def live_degree(adjacency: list, alive: list, v: int) -> int:
    return sum(1 for u in adjacency[v] if alive[u])


def degree_histogram(adjacency: list, alive: list) -> dict[int, int]:
    """Live-degree counts over live nodes, keys ascending."""
    counts = Counter(sum(alive[u] for u in nbrs) for nbrs, up in zip(adjacency, alive) if up)
    return dict(sorted(counts.items()))


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


def heap_intentional_order(adjacency: list, protected, budget: float) -> tuple[list, str]:
    """The intentional attack's (removals, stop reason), off a lazy max-heap.

    The heap holds each unprotected node once, keyed by its live degree
    as ``(-degree, id)``. A crashed top is dropped; a top whose degree
    has fallen since it was keyed is re-keyed in place; an exact top is
    the pick. Removals are ``(step, (node,))`` from step 1. The loop
    stops with "graph_exhausted" once every node is gone, then with
    "budget_exhausted" once ``removed / n >= budget``, and with
    "strategy_stalled" when the heap runs dry first.
    """
    n = len(adjacency)
    alive = [True] * n
    degree = [len(nbrs) for nbrs in adjacency]
    heap = [(-degree[v], v) for v in range(n) if v not in protected]
    heapq.heapify(heap)
    removals = []
    while heap:
        key, v = heap[0]
        if not alive[v]:
            heapq.heappop(heap)
        elif -key != degree[v]:
            heapq.heapreplace(heap, (-degree[v], v))
        else:
            heapq.heappop(heap)
            alive[v] = False
            for u in adjacency[v]:
                if alive[u]:
                    degree[u] -= 1
            removals.append((len(removals) + 1, (v,)))
            if len(removals) == n:
                return removals, "graph_exhausted"
            if len(removals) / n >= budget:
                return removals, "budget_exhausted"
    return removals, "strategy_stalled"


def shared_loop_order(
    adjacency: list, kind: str, seed: int, budget: float, threshold=None, initial_target="random_live"
) -> tuple[list, str]:
    """(removals, stop reason) of a random or local kind, by one shared loop.

    Every kind but the intentional one runs this loop, with each
    selector written out in place. The first pick of a local kind is its
    ``initial_target``: an id, the smallest id of maximum degree, or
    ``random.Random(seed).randrange(n)``; ``random_failure`` draws every
    pick, the first included, as ``live[rng.randrange(len(live))]`` over
    live ids kept by swap-remove. A greedy walker takes the best live
    neighbour of its last kill and draws when there is none; coordinated
    takes the best frontier node off a lazy heap of ``v - degree * n``
    keys and draws when the frontier is empty ("best" is the highest
    live degree, smallest id on ties). The lower-bounded avalanche
    crashes, as one sorted batch, every live neighbour of the last batch
    whose construction degree exceeds ``threshold``. Removals are
    ``(step, batch)`` from step 1. The loop stops with "graph_exhausted"
    once every node is gone, then with "budget_exhausted" once
    ``removed / n >= budget``, and with "strategy_stalled" on an empty
    pick.
    """
    n = len(adjacency)
    rng = random.Random(seed)
    alive = [True] * n
    degree = [len(nbrs) for nbrs in adjacency]
    live = None if kind == "lower_bounded_parallel" else list(range(n))
    pos = list(range(n)) if live else None
    heap = []
    queued = bytearray(n) if kind == "coordinated" else None
    removals = []
    removed = 0
    batch = ()
    while True:
        if kind == "lower_bounded_parallel" and removed:
            joined = {u for v in batch for u in adjacency[v] if alive[u]}
            batch = sorted(u for u in joined if len(adjacency[u]) > threshold)
        else:
            v = None
            if kind == "random_failure":
                v = live[rng.randrange(len(live))] if live else None
            elif not removed:
                if isinstance(initial_target, int):
                    v = initial_target
                elif initial_target == "max_degree":
                    v = degree.index(max(degree))
                else:
                    v = rng.randrange(n)
            elif kind == "greedy_sequential":
                best_degree = -1
                for u in adjacency[batch[-1]]:
                    if alive[u]:
                        d = degree[u]
                        if d > best_degree or (d == best_degree and u < v):
                            v, best_degree = u, d
            else:
                while heap:
                    key = heap[0]
                    u = key % n
                    if not alive[u]:
                        heapq.heappop(heap)
                    elif key != u - degree[u] * n:
                        heapq.heapreplace(heap, u - degree[u] * n)
                    else:
                        v = u
                        break
            if v is None and removed and kind in ("greedy_sequential", "coordinated"):
                v = live[rng.randrange(len(live))]
            batch = () if v is None else (v,)
        if not batch:
            return removals, "strategy_stalled"
        for v in batch:
            alive[v] = False
            degree[v] = 0
            for u in adjacency[v]:
                if alive[u]:
                    degree[u] -= 1
            if live is not None:
                last = live.pop()
                if last != v:
                    live[pos[v]] = last
                    pos[last] = pos[v]
        removed += len(batch)
        removals.append((len(removals) + 1, tuple(batch)))
        if heap:
            heapq.heappop(heap)
        if queued is not None:
            for u in adjacency[batch[0]]:
                if alive[u] and not queued[u]:
                    queued[u] = 1
                    heapq.heappush(heap, u - degree[u] * n)
        if removed == n:
            return removals, "graph_exhausted"
        if removed / n >= budget:
            return removals, "budget_exhausted"


def flat(removals) -> tuple[list, list]:
    """``(order, ends)`` of ``(step, batch)`` pairs: the ids in removal
    order, and the removal count after each step."""
    order = [v for _, batch in removals for v in batch]
    return order, list(accumulate(len(batch) for _, batch in removals))


def batch_giant_sizes(adjacency: list, removals, cluster_steps, of_cluster) -> tuple[list, dict]:
    """(largest cluster size after each step, ``of_cluster`` results by step).

    The reverse union-find pass as it ran on ``(step, batch)`` pairs:
    seeded with the nodes no batch removes, it adds the batches back
    last to first, one group at a time, and the running maximum once a
    group is in is the size after the step before it. At a requested
    step it hands ``of_cluster`` the biggest cluster, the one holding
    the smallest id on a size tie, as an ascending int array, with the
    live flags as bytes; roots are found one node at a time.
    """
    import numpy as np

    n = len(adjacency)
    removed = [False] * n
    for _, batch in removals:
        for v in batch:
            if removed[v]:
                raise ValueError(f"node {v} is removed twice")
            removed[v] = True
    parent = [-1] * n
    size = [1] * n

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    best = 0
    sizes = []
    results = {}
    step = len(removals)
    groups = [[v for v in range(n) if not removed[v]]]
    groups += [batch for _, batch in reversed(removals)]
    for group in groups:
        for v in group:
            parent[v] = v
            for u in adjacency[v]:
                if parent[u] < 0:
                    continue
                a, b = find(u), find(v)
                if a != b:
                    if size[a] > size[b]:
                        a, b = b, a
                    parent[a] = b
                    size[b] += size[a]
            best = max(best, size[find(v)])
        sizes.append(best)
        if step in cluster_steps:
            live = [p >= 0 for p in parent]
            roots = [find(v) if live[v] else -1 for v in range(n)]
            first = next((v for v in range(n) if live[v] and size[roots[v]] == best), None)
            members = [v for v in range(n) if first is not None and roots[v] == roots[first]]
            results[step] = of_cluster(np.array(members, dtype=np.intp), bytes(live))
        step -= 1
    sizes.reverse()
    return sizes, results


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

    A leading byte order mark, blank lines and lines whose first
    non-blank character is '#' are skipped; every other line must hold
    two labels, else ValueError names ``path:line``. Labels get dense ids
    in first-seen order.
    """
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
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
