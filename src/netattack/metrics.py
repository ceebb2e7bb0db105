"""Robustness observables: giant-cluster curve, path-length curve, crash point.

Terminology used throughout: f is the fraction of original nodes removed
so far, S the giant-cluster fraction (biggest live cluster size over the
original node count), d the cluster "diameter" in the loose sense used
here, i.e. the average shortest path length inside the biggest cluster
(not the max eccentricity).

Every observable is a function of the removal order alone, so an attack
first runs to its end and :func:`measure` then reads S after every step,
and d on each d row's largest cluster as the pass reaches it, off one
reverse union-find pass (:func:`giant_sizes`), whose roots give the members.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterable, Sequence

from .graph import Graph

if TYPE_CHECKING:
    from .attacks import AttackTrace


class _Default(Enum):
    D_EVERY = "default"


DEFAULT_D_EVERY = _Default.D_EVERY


@dataclass(frozen=True)
class SnapshotCadence:
    """Where a run's curve is sampled: S every s_every removals, d every d_every.

    S is known after every step at no extra cost, so s_every only sets
    the resolution; None takes ceil(n/200) on an n-node graph. d is the
    expensive observable: each evaluation runs a BFS from every cluster
    member. ``d_every`` has three states: an int fixes it, None (JSON
    null) turns d off, and ``DEFAULT_D_EVERY`` takes ceil(n/50). Only an
    absent key reads as ``DEFAULT_D_EVERY``; no JSON value does, and
    ``ExperimentConfig.to_json`` writes it by leaving the key out.
    """

    s_every: int | None = None
    d_every: int | None | _Default = DEFAULT_D_EVERY

    def __post_init__(self):
        for name in ("s_every", "d_every"):
            value = getattr(self, name)
            if value is not None and value is not DEFAULT_D_EVERY and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def resolve(self, n: int) -> "SnapshotCadence":
        """The concrete cadence on an n-node graph; resolving it again changes nothing."""
        s = max(1, math.ceil(n / 200)) if self.s_every is None else self.s_every
        d = max(1, math.ceil(n / 50)) if self.d_every is DEFAULT_D_EVERY else self.d_every
        return SnapshotCadence(s, d)


@dataclass(frozen=True)
class CrashCriterion:
    """Network counts as crashed when S drops to epsilon or below."""

    epsilon: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")

    def crashed(self, giant_fraction: float) -> bool:
        return giant_fraction <= self.epsilon


@dataclass(frozen=True)
class MetricsRow:
    """One observation along an attack."""

    step: int
    removed_count: int
    fraction_removed: float
    giant_fraction: float
    cluster_diameter: float | None


def giant_sizes(
    adjacency: Sequence[Sequence[int]],
    order: Sequence[int],
    ends: Sequence[int],
    cluster_steps: Collection[int],
    of_cluster: Callable[[Any, bytes], Any],
) -> tuple[list[int], dict[int, Any]]:
    """Largest live cluster after each step of a removal record.

    ``order`` lists the removed ids in removal order and ``ends`` the
    removal count after each step, as an attack trace keeps them; entry
    ``k`` of the sizes is the largest cluster size once the first ``k``
    steps are done, so entry 0 is the intact graph. One reverse pass
    (Newman & Ziff, PRL 85, 4104, 2000): a union-find, by size with path
    halving, adds the nodes the order leaves live, then the order from
    its end, in one loop. Just before it adds back the last id a step
    removed, the running maximum is that step's size. A node's parent is
    -1 until the pass adds it, so the parents double as the live mask.
    An id outside [0, n), an id removed twice, or ``ends`` that do not
    rise from 0 to ``len(order)`` raise ValueError.

    When the pass reaches a step in ``cluster_steps`` it calls
    ``of_cluster(members, live)`` on that step's largest cluster: its
    ascending ids as an int array and the live mask at that step as
    bytes (:func:`_cluster_of_size`). Only the results are kept, by
    step, so the pass holds one cluster at a time and meets the last
    step first.
    """
    n = len(adjacency)
    counts = [0, *ends]
    if counts != sorted(counts) or counts[-1] != len(order):
        raise ValueError(f"ends must rise from 0 to the {len(order)} ids of the order")
    if order and not (0 <= min(order) and max(order) < n):
        v = next(v for v in order if not 0 <= v < n)
        raise ValueError(f"node id {v} outside [0, {n})")
    live = bytearray(b"\x01") * n
    for v in order:
        live[v] = 0
    if live.count(0) != len(order):
        seen: set[int] = set()
        v = next(v for v in order if v in seen or seen.add(v))
        raise ValueError(f"node {v} is removed twice")
    parent = [-1] * n
    size = [1] * n
    best = 0
    sizes = [0] * len(counts)
    results = {}
    step = len(ends)
    # a step's size is the running maximum as the walk meets the last id
    # that the step removed, before it adds that id back
    mark = order[-1] if order else -1
    for v in chain(compress(range(n), live), reversed(order)):
        while v == mark:
            sizes[step] = best
            if step in cluster_steps:
                results[step] = of_cluster(*_cluster_of_size(parent, size, best))
            step -= 1
            mark = order[counts[step] - 1] if counts[step] else -1
        parent[v] = root = v
        for u in adjacency[v]:
            p = parent[u]
            if p < 0:
                continue
            while p != u:  # path halving
                p = parent[u] = parent[p]
                u, p = p, parent[p]
            if u != root:
                if size[u] > size[root]:
                    root, u = u, root
                parent[u] = root
                size[root] += size[u]
        if size[root] > best:
            best = size[root]
    # step 0, and the first steps if they removed nothing
    for step in range(step, -1, -1):
        sizes[step] = best
        if step in cluster_steps:
            results[step] = of_cluster(*_cluster_of_size(parent, size, best))
    return sizes, results


def _cluster_of_size(parent, size, best: int):
    """(ascending ids of the first size-``best`` cluster, live mask as bytes).

    A live node has a parent >= 0, a node not yet added -1. Pointer
    jumping (``p = p[p]`` until nothing moves) takes every live node to
    its root at once; the cluster is then the ids under the root of the
    first live id whose root has size ``best``, so a size tie goes to
    the cluster holding the smallest id. The ids are an int array, empty
    when no node is live.
    """
    import numpy as np

    p = np.array(parent, dtype=np.intp)
    live = p >= 0
    # a node not yet added is its own root, and no live node's
    p[~live] = np.flatnonzero(~live)
    while (p[p] != p).any():
        p = p[p]
    first = np.flatnonzero(live & (np.array(size)[p] == best))[:1]
    members = np.flatnonzero(p == p[first]) if len(first) else first
    return members, live.tobytes()


def snapshot(g: Graph) -> float | None:
    """d of the graph as it stands: mean path length in its largest cluster.

    None when that cluster has fewer than two nodes. The cluster comes
    off :func:`giant_sizes`, with ``g``'s crashed nodes as one step.
    """
    crashed = [v for v, up in enumerate(g.alive) if not up]
    _, d = giant_sizes(g.adjacency, crashed, [len(crashed)], (1,), g.avg_shortest_path)
    return d[1]


def measure(
    g: Graph,
    order: Sequence[int],
    ends: Sequence[int],
    cadence: SnapshotCadence,
    criterion: CrashCriterion,
    early_stop: bool,
) -> tuple[list[MetricsRow], int | None, float | None, float]:
    """Rows of S and d along a finished removal record of the fresh ``g``.

    ``order`` and ``ends`` are the record as an attack trace holds it:
    the removed ids, and the removal count after each step from step 1.
    ``cadence`` is resolved against ``g``'s node count here. Rows sit at
    step 0, at each step whose removal count crosses an ``s_every`` or
    ``d_every`` mark, and at the last step. When ``d_every`` is set, d
    is measured at step 0, at ``d_every`` crossings and at the last
    step, each as the pass that gives S reaches it, but for a step-0 d
    that an earlier measure filed on ``g``: once per graph. With
    ``early_stop`` the order is cut at the first crossing, step 0
    included, at or after the first step whose S meets the criterion,
    which one bisection finds; d rows past the cut are measured and
    dropped.

    Returns the rows, the number of steps kept by the cut (None when
    nothing was cut), the exact crash threshold (the removal fraction
    at the first step whose S meets the criterion, or None) and the
    seconds spent measuring d.
    """
    n = g.node_count
    cadence = cadence.resolve(n)
    s_every, d_every = cadence.s_every, cadence.d_every
    last = len(ends)
    counts = [0, *ends]

    def crossing(every: int) -> set[int]:
        """Steps whose removal count passes a multiple of ``every``: each
        multiple's first step at or above it."""
        return {bisect_left(counts, mark) for mark in range(every, counts[-1] + 1, every)}

    with_d = d_every is not None
    d_marks = crossing(d_every) if with_d else set()
    # step 0 and the steps whose removal count passes a multiple of a mark
    crossings = sorted(crossing(s_every) | d_marks | {0})
    d_steps = d_marks | {0, last} if with_d else set()
    known = g._intact_d if with_d else {}

    def timed_d(members, live):
        started = time.perf_counter()
        return g.avg_shortest_path(members, live), time.perf_counter() - started

    sizes, timed = giant_sizes(g.adjacency, order, ends, d_steps.difference(known), timed_d)
    ds = {step: d for step, (d, _) in timed.items()} | known
    if with_d:
        g._intact_d = {0: ds[0]}
    d_s = sum(seconds for _, seconds in timed.values())
    # sizes never grow along the order, so the crashed steps are a suffix
    first = bisect_left(range(last + 1), True, key=lambda i: criterion.crashed(sizes[i] / n))
    exact = counts[first] / n if first <= last else None
    cut = bisect_left(crossings, first)
    kept = crossings[cut] if early_stop and cut < len(crossings) else None
    end = last if kept is None else kept
    rows = [
        MetricsRow(
            step=step,
            removed_count=counts[step],
            fraction_removed=counts[step] / n,
            giant_fraction=sizes[step] / n,
            cluster_diameter=ds.get(step),
        )
        for step in [s for s in crossings if s < end] + [end]
    ]
    return rows, kept, exact, d_s


def crash_threshold(trace: "AttackTrace", criterion: CrashCriterion) -> float | None:
    """Smallest removal fraction at which the trace counts as crashed.

    Snapshot cadence skips steps, so the crossing is located by linear
    interpolation between the last snapshot above epsilon and the first
    one at or below it. None when the trace never crosses (stalled or
    budget-capped runs).
    """
    eps = criterion.epsilon
    prev: MetricsRow | None = None
    for row in trace.snapshots:
        if row.giant_fraction <= eps:
            if prev is None:
                return row.fraction_removed
            # every earlier row is above eps, so s0 > eps >= s1
            f0, s0 = prev.fraction_removed, prev.giant_fraction
            f1, s1 = row.fraction_removed, row.giant_fraction
            # at s1 == eps, rounding can carry the result an ulp past f1
            return min(f1, f0 + (s0 - eps) * (f1 - f0) / (s0 - s1))
        prev = row
    return None


def _nearest_row(rows: Sequence[MetricsRow], fractions: list[float], f: float) -> MetricsRow:
    """Row closest to f, by bisection of the rows' increasing fractions.

    Ties go to the lower fraction.
    """
    i = bisect_left(fractions, f)
    if i == 0:
        return rows[0]
    if i == len(rows):
        return rows[-1]
    below, above = rows[i - 1], rows[i]
    if abs(above.fraction_removed - f) < abs(below.fraction_removed - f):
        return above
    return below


@dataclass(frozen=True)
class CurvePoint:
    f: float
    s_mean: float
    s_std: float
    d_mean: float | None
    d_std: float | None
    n_samples: int


def curve_export(traces: Sequence["AttackTrace"]) -> list[CurvePoint]:
    """Average aligned trajectories from same-config, different-seed runs.

    The f grid is the union of all snapshot fractions; each trace
    contributes its nearest snapshot per grid point (ties to the lower
    f). d statistics cover only the traces that measured d there.
    Traces from different configs (strategy or node count), and traces
    whose fractions do not strictly increase, are rejected.
    """
    if not traces:
        raise ValueError("no traces to export")
    key = (traces[0].strategy_key, traces[0].total_nodes)
    fractions = []
    for t in traces:
        if (t.strategy_key, t.total_nodes) != key:
            raise ValueError(
                f"mixed trace configs: {key} vs {(t.strategy_key, t.total_nodes)}"
            )
        if not t.snapshots:
            raise ValueError("trace without snapshots")
        fr = [row.fraction_removed for row in t.snapshots]
        if any(b <= a for a, b in zip(fr, fr[1:])):
            raise ValueError("snapshot fractions must strictly increase")
        fractions.append(fr)
    grid = sorted({f for fr in fractions for f in fr})
    points = []
    for f in grid:
        s_vals = []
        d_vals = []
        for t, fr in zip(traces, fractions):
            row = _nearest_row(t.snapshots, fr, f)
            s_vals.append(row.giant_fraction)
            if row.cluster_diameter is not None:
                d_vals.append(row.cluster_diameter)
        points.append(CurvePoint(f, *mean_std(s_vals), *mean_std(d_vals), len(s_vals)))
    return points


def write_curve_csv(path, points: Iterable[CurvePoint], n_traces: int) -> None:
    """Curve table with the alignment rule documented in '#' headers."""
    rows = [(p.f, p.s_mean, p.s_std, p.d_mean, p.d_std, p.n_samples) for p in points]
    head = [
        f"# averaged attack curve over {n_traces} trace(s), {len(rows)} rows",
        "# grid = union of snapshot fractions; each trace contributes its"
        " nearest snapshot per row (ties to lower f)",
        "# d columns are empty where no contributing trace measured d",
        "f,S_mean,S_std,d_mean,d_std,n_samples",
    ]
    write_table(path, head, rows)


def write_table(path, head: Iterable[str], rows: Iterable[Iterable[Any]]) -> None:
    """Every CSV the engine writes: the ``head`` lines, then one line per row.

    A row's cells are joined by commas: a str cell as it is, None as an
    empty cell and any other value as its ``repr``, so a float reads
    back equal and an int is its digits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for line in head:
            fh.write(f"{line}\n")
        for row in rows:
            cells = [c if isinstance(c, str) else "" if c is None else repr(c) for c in row]
            fh.write(",".join(cells) + "\n")


def mean_std(xs: Sequence[float]) -> tuple[float | None, float | None]:
    """(mean, population std) of ``xs``, or (None, None) when it is empty.

    The mean is ``math.fsum(xs) / len(xs)``, which is ``statistics.fmean``
    on 3.10-3.13, and the std is :func:`_pstdev`'s exact one.
    """
    if not xs:
        return None, None
    return math.fsum(xs) / len(xs), _pstdev(xs)


def _pstdev(xs: Sequence[float]) -> float:
    """Population std of ``xs``: the exact variance's root, correctly rounded.

    As ``statistics.pstdev`` from Python 3.11 on (3.10 rounds twice), but
    in integers, so no CSV depends on the Python version. On the largest
    denominator 2**k the variance is num / (n * 2**k)**2; its root is
    taken to 109 bits, rounded to odd so the one rounding to float is right.
    """
    if len(xs) == 1:
        return 0.0
    ratios = [x.as_integer_ratio() for x in xs]
    den = max(d for _, d in ratios)
    ints = [a * (den // d) for a, d in ratios]
    num, m = len(ints) * sum(i * i for i in ints) - sum(ints) ** 2, len(ints) ** 2
    q = (num.bit_length() - m.bit_length() - 109) // 2
    num, m = (num, m << 2 * q) if q >= 0 else (num << -2 * q, m)
    root = math.isqrt(num // m)
    return math.ldexp(root | (root * root * m != num), q - den.bit_length() + 1)
