"""Attack strategies and the removal loop.

Five strategies are implemented, differing in how much of the network
the attacker can see:

* ``intentional``: always crash the live node of highest current degree
  (global knowledge), optionally blind to a protected set of nodes it
  can never target.
* ``random_failure``: crash uniformly random live nodes.
* ``greedy_sequential``: crash the best live neighbor of the node
  crashed last; jump to a uniform random live node when stuck.
* ``coordinated``: crash the best live node adjacent to ANY crashed
  node (shared frontier); random restart when the frontier dies.
* ``lower_bounded_parallel``: per step, crash every frontier node whose
  degree on the attacker's map (its construction-time degree) strictly
  exceeds a fixed bound, all at once; stop when no such node exists.

The three local-information strategies start from an initial target
(random live node by default) because they only learn the network by
walking it.

The removal loop runs on plain lists of its own and never mutates the
graph; the two degree-driven kinds share one lazy max-heap of int keys.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from heapq import heapify, heappop, heappush, heapreplace
from typing import Sequence

from .graph import Graph
from .metrics import CrashCriterion, MetricsRow, SnapshotCadence, measure

DISTRIBUTED_KINDS = ("greedy_sequential", "coordinated", "lower_bounded_parallel")
STRATEGY_KINDS = ("intentional", "random_failure") + DISTRIBUTED_KINDS

PROTECTED_KINDS = ("none", "miss_biggest_hub", "miss_medium_band")

STOP_NETWORK_CRASHED = "network_crashed"
STOP_STRATEGY_STALLED = "strategy_stalled"
STOP_BUDGET_EXHAUSTED = "budget_exhausted"
STOP_GRAPH_EXHAUSTED = "graph_exhausted"


@dataclass(frozen=True)
class ProtectedRule:
    """Nodes the intentional attacker cannot see.

    miss_biggest_hub hides the single highest-initial-degree node.
    miss_medium_band hides a random miss_frac sample of the band of
    nodes ranked (by initial degree) just below the top top_frac share.
    """

    kind: str = "none"
    top_frac: float = 0.01
    band_frac: float = 0.03
    miss_frac: float = 0.0

    def __post_init__(self):
        if self.kind not in PROTECTED_KINDS:
            raise ValueError(f"unknown protected rule {self.kind!r}")
        for name in ("top_frac", "band_frac", "miss_frac"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.kind == "miss_medium_band" and self.miss_frac == 0.0:
            raise ValueError("miss_medium_band needs miss_frac > 0")


@dataclass(frozen=True)
class StrategySpec:
    """Everything needed to reproduce one attack run on a given graph."""

    kind: str
    protected: ProtectedRule = ProtectedRule()
    threshold: int | None = None
    initial_target: int | str = "random_live"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if (self.threshold is not None) != (self.kind == "lower_bounded_parallel"):
            raise ValueError("threshold is required by, and only by, lower_bounded_parallel")
        if self.threshold is not None and self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.protected.kind != "none" and self.kind != "intentional":
            raise ValueError("protected rules only apply to the intentional attack")
        if isinstance(self.initial_target, str):
            if self.initial_target not in ("random_live", "max_degree"):
                raise ValueError(f"unknown initial_target {self.initial_target!r}")
        elif self.initial_target < 0:
            raise ValueError("explicit initial_target must be a node id >= 0")
        if self.initial_target != "random_live" and self.kind not in DISTRIBUTED_KINDS:
            raise ValueError("initial_target only applies to distributed strategies")

    @property
    def label(self) -> str:
        """Human/file-name key for this strategy; excludes the seed."""
        if self.kind == "intentional":
            if self.protected.kind == "miss_biggest_hub":
                return "intentional_miss_biggest_hub"
            if self.protected.kind == "miss_medium_band":
                pct = round(self.protected.miss_frac * 100)
                return f"intentional_miss_medium_{pct}pct"
            return "intentional"
        if self.kind == "lower_bounded_parallel":
            return f"lower_bounded_parallel_t{self.threshold}"
        return self.kind

    def with_seed(self, seed: int) -> "StrategySpec":
        return replace(self, seed=seed)


@dataclass
class AttackTrace:
    """Complete record of one attack run: what fell when, and the curve.

    ``exact_crash_threshold`` is the removal fraction at the first step
    whose S meets the run's crash criterion, or None. ``order_s`` and
    ``measure_s`` time the removal loop and the measuring, and ``d_s``
    the part of ``measure_s`` spent on d; they do not take part in
    comparisons.
    """

    total_nodes: int
    strategy_key: str
    removals: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    snapshots: list[MetricsRow] = field(default_factory=list)
    stop_reason: str = ""
    exact_crash_threshold: float | None = None
    order_s: float = field(default=0.0, compare=False)
    measure_s: float = field(default=0.0, compare=False)
    d_s: float = field(default=0.0, compare=False)

    @property
    def removed_count(self) -> int:
        return sum(len(ids) for _, ids in self.removals)

    @property
    def final(self) -> MetricsRow:
        return self.snapshots[-1]


def build_protected_set(g: Graph, rule: ProtectedRule, rng: random.Random) -> frozenset[int]:
    """Resolve a protection rule against initial degrees.

    Rankings use the degrees the graph was built with, not live degrees:
    protection reflects what the attacker's stale map shows, and stays
    fixed for the whole run.
    """
    if rule.kind == "none":
        return frozenset()
    n = g.node_count
    degree = [len(nbrs) for nbrs in g.adjacency]
    # stable, so equal degrees keep ascending id order
    order = sorted(range(n), key=degree.__getitem__, reverse=True)
    if rule.kind == "miss_biggest_hub":
        return frozenset(order[:1])
    top_n = math.ceil(rule.top_frac * n)
    # floor at the band stage: a fractional tail node stays out of the band
    band_n = math.floor(rule.band_frac * n)
    band = order[top_n : top_n + band_n]
    if not band:
        return frozenset()
    # miss_frac <= 1, so the count never exceeds the band
    return frozenset(rng.sample(band, math.ceil(rule.miss_frac * len(band))))


def _heap_max(alive: list[bool], heap: list[int], degree: list[int]) -> int | None:
    """Top live node of a lazy degree heap, or None.

    A key is ``v - degree * n``: it orders as ``(-degree, v)`` does, ties
    included, and decodes as ``v = key % n``. Live degrees only fall, so
    each key bounds its node's degree from above: a stale top is re-keyed
    in place, an exact one is the maximum (smallest id on ties) and stays
    on the heap. Crashed entries are dropped.
    """
    n = len(alive)
    while heap:
        key = heap[0]
        v = key % n
        if not alive[v]:
            heappop(heap)
        else:
            exact = v - degree[v] * n
            if key == exact:
                return v
            heapreplace(heap, exact)
    return None


def select_intentional(alive: list[bool], heap: list[int], degree: list[int]) -> int | None:
    """Highest current-degree live node outside the protected set.

    ``heap`` holds every unprotected live node once, so its top is the
    target; ties go to the smallest id.
    """
    return _heap_max(alive, heap, degree)


def select_random_failure(live: list[int], rng: random.Random) -> int | None:
    """Uniform draw over the live ids, None if all crashed."""
    return live[rng.randrange(len(live))] if live else None


def select_greedy_sequential(
    alive: list[bool], neighbors: list[int], degree: list[int], live: list[int], rng: random.Random
) -> int:
    """Best live node among the last kill's ``neighbors``, else a random jump.

    ``live`` is never empty here."""
    best = None
    best_degree = -1
    for u in neighbors:
        if alive[u]:
            d = degree[u]
            if d > best_degree or (d == best_degree and u < best):
                best, best_degree = u, d
    return best if best is not None else live[rng.randrange(len(live))]


def select_coordinated(
    alive: list[bool], heap: list[int], degree: list[int], live: list[int], rng: random.Random
) -> int:
    """Best live node on the crashed set's boundary, else a random restart.

    ``heap`` gains a node once, when it first neighbors a crashed node,
    so its live entries are exactly the frontier; :func:`_heap_max`
    picks max degree with the smallest id on ties. ``live`` is never
    empty here.
    """
    v = _heap_max(alive, heap, degree)
    return v if v is not None else live[rng.randrange(len(live))]


def step_lower_bounded(
    alive: list[bool], last_batch: Sequence[int], adjacency: list[list[int]], threshold: int
) -> list[int]:
    """Frontier nodes to crash simultaneously this step, ascending ids.

    A node qualifies only if its degree on the attacker's topology map,
    the degree it had when the network was built, is strictly above the
    bound. A local-information attacker has no way to watch a remote
    node's links decay, and qualifying against decayed live degrees
    would quench the avalanche as soon as it reaches the hubs. Every
    qualifier falls in the step after it joins the frontier, so only the
    live neighbors of the last batch can qualify. An empty result means
    the attack stalls for good.
    """
    joined = {u for v in last_batch for u in adjacency[v] if alive[u]}
    return sorted(u for u in joined if len(adjacency[u]) > threshold)


def _resolve_initial(g: Graph, spec: StrategySpec, rng: random.Random) -> int:
    """First target of a distributed kind on fresh ``g``."""
    if isinstance(spec.initial_target, int):
        if spec.initial_target >= g.node_count:
            raise ValueError(f"initial_target {spec.initial_target} is not a live node")
        return spec.initial_target
    if spec.initial_target == "max_degree":
        adjacency = g.adjacency
        return max(range(g.node_count), key=lambda v: (len(adjacency[v]), -v))
    # every node is still live, in id order: the draw select_random_failure makes
    return rng.randrange(g.node_count)


def run_attack(
    g: Graph,
    spec: StrategySpec,
    *,
    budget: float = 1.0,
    cadence: SnapshotCadence = SnapshotCadence(),
    early_stop: bool = False,
    criterion: CrashCriterion = CrashCriterion(),
    intact_d: float | None = None,
) -> AttackTrace:
    """Drive one attack to its stopping point, then measure it.

    The removal loop keeps its own crash state, so ``g`` stays fresh. It
    records only what fell when; S and d are then read off the
    finished removal order (:func:`metrics.measure`). Rows are taken at
    step 0, whenever the removal count crosses a cadence mark, and at the
    last step. Early stop cuts the order at the first row at step 0 or a
    crossing that meets the crash criterion, so the cadence bounds how
    precisely the crash point is located. ``intact_d`` is ``snapshot(g)``
    when the caller already has it, so strategies run on one graph
    measure the intact d once; None has it measured here.

    Stop reasons: network_crashed (early stop hit the crash criterion),
    strategy_stalled (no eligible target but live nodes remain),
    budget_exhausted (removal fraction reached the budget),
    graph_exhausted (no live node left).
    """
    if not 0.0 < budget <= 1.0:
        raise ValueError(f"budget must be in (0, 1], got {budget}")
    if g.live_count == 0:
        raise ValueError("graph has no live nodes")
    if g.live_count != g.node_count:
        raise ValueError("run_attack needs a fresh graph (no crashed nodes)")
    started = time.perf_counter()
    removals, stop_reason = _removal_order(g, spec, budget)
    ordered = time.perf_counter()
    rows, kept, exact, d_s = measure(
        g, removals, cadence, criterion, early_stop, intact_d=intact_d
    )
    if kept is not None:
        removals, stop_reason = removals[:kept], STOP_NETWORK_CRASHED
    return AttackTrace(
        total_nodes=g.node_count,
        strategy_key=spec.label,
        removals=removals,
        snapshots=rows,
        stop_reason=stop_reason,
        exact_crash_threshold=exact,
        order_s=ordered - started,
        measure_s=time.perf_counter() - ordered,
        d_s=d_s,
    )


def _removal_order(
    g: Graph, spec: StrategySpec, budget: float
) -> tuple[list[tuple[int, tuple[int, ...]]], str]:
    """Crash batch by batch until the attack stops: (removals, stop reason).

    The loop keeps its crash state in plain lists and leaves ``g`` as it
    is. Only the kinds that draw at random after the first pick keep the
    live ids, in ``live``, with each one's slot in ``pos`` for an O(1)
    swap-remove. Each pick is one call of the kind's selector, looked up
    as a module global so that a wrapper put there sees every call.
    """
    n = g.node_count
    adjacency = g.adjacency
    kind = spec.kind
    rng = random.Random(spec.seed)
    protected = build_protected_set(g, spec.protected, rng)

    alive = [True] * n
    degree = [len(nbrs) for nbrs in adjacency]
    live = None if kind in ("intentional", "lower_bounded_parallel") else list(range(n))
    pos = list(range(n)) if live else None
    # lazy max-heap keyed v - degree * n for the two degree-driven kinds:
    # intentional starts from every unprotected node, coordinated from none
    # and pushes a node once, when it first joins the frontier
    heap: list[int] = []
    if kind == "intentional":
        heap = [v - d * n for v, d in enumerate(degree) if v not in protected]
        heapify(heap)
    queued = bytearray(n) if kind == "coordinated" else None
    removals: list[tuple[int, tuple[int, ...]]] = []
    removed = 0
    batch = ()  # the batch crashed last, until the next pick
    while True:
        if kind == "lower_bounded_parallel" and removed:
            batch = step_lower_bounded(alive, batch, adjacency, spec.threshold)
        else:
            if kind == "intentional":
                v = select_intentional(alive, heap, degree)
            elif kind == "random_failure":
                v = select_random_failure(live, rng)
            elif not removed:
                v = _resolve_initial(g, spec, rng)
            elif kind == "greedy_sequential":
                v = select_greedy_sequential(alive, adjacency[batch[-1]], degree, live, rng)
            else:
                v = select_coordinated(alive, heap, degree, live, rng)
            batch = () if v is None else (v,)
        if not batch:  # some node is live: the last batch ended no run
            return removals, STOP_STRATEGY_STALLED
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
        if heap:  # a non-empty heap supplied the pick, as its top
            heappop(heap)
        if queued is not None:
            for u in adjacency[batch[0]]:
                if alive[u] and not queued[u]:
                    queued[u] = 1
                    heappush(heap, u - degree[u] * n)
        if removed == n:
            return removals, STOP_GRAPH_EXHAUSTED
        if removed / n >= budget:
            return removals, STOP_BUDGET_EXHAUSTED
