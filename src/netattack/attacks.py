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

Each kind runs a removal loop of its own, on plain lists that hold only
what its selector reads, and never mutates the graph. Random failure
keeps the live ids alone; the lower-bounded avalanche live flags alone.
The other three keep live degrees, in which a crashed node holds a
value below 0, and pick the highest live degree, smallest id on ties:
the intentional attack by degree levels, the greedy walker among the
last kill's neighbours (with live ids to jump to), coordinated off its
frontier on a lazy max-heap of int keys.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush, heapreplace
from itertools import chain, islice, pairwise
from typing import Callable, Sequence

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

    The removal record is ``order``, every removed id in removal order,
    and ``ends``, the removal count after each step, so step k removed
    ``order[ends[k - 2]:ends[k - 1]]`` (from 0 at step 1).
    ``exact_crash_threshold`` is the removal fraction at the first step
    whose S meets the run's crash criterion, or None. ``order_s`` and
    ``measure_s`` time the removal loop and the measuring, and ``d_s``
    the part of ``measure_s`` spent on d; they do not take part in
    comparisons.
    """

    total_nodes: int
    strategy_key: str
    order: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    snapshots: list[MetricsRow] = field(default_factory=list)
    stop_reason: str = ""
    exact_crash_threshold: float | None = None
    order_s: float = field(default=0.0, compare=False)
    measure_s: float = field(default=0.0, compare=False)
    d_s: float = field(default=0.0, compare=False)

    @property
    def removals(self) -> list[tuple[int, tuple[int, ...]]]:
        """The record as ``(step, batch)`` pairs from step 1, built afresh on each read."""
        order = self.order
        return [(k, tuple(order[lo:hi])) for k, (lo, hi) in enumerate(pairwise([0, *self.ends]), 1)]

    @property
    def removed_count(self) -> int:
        """Nodes removed, read off the last row, which sits at the last kept step."""
        return self.snapshots[-1].removed_count

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
    # ids by descending degree, ascending on ties, read down the levels
    # only as far as a rule reaches
    ranked = chain.from_iterable(reversed(g.degree_levels()))
    if rule.kind == "miss_biggest_hub":
        return frozenset(islice(ranked, 1))
    n = g.node_count
    top_n = math.ceil(rule.top_frac * n)
    # floor at the band stage: a fractional tail node stays out of the band
    band_n = math.floor(rule.band_frac * n)
    band = list(islice(ranked, top_n, top_n + band_n))
    # miss_frac <= 1, so the count never exceeds the band
    return frozenset(rng.sample(band, math.ceil(rule.miss_frac * len(band))))


def select_intentional(levels: list[list[int]]) -> list[int]:
    """Candidates of the highest non-empty degree level, ascending ids.

    Pops ``levels`` until a non-empty level comes off, sorts it in place
    and returns it; its degree is then ``len(levels)``. Empty once every
    level is gone. The caller skips the candidates that have crashed or
    fallen below the level's degree.
    """
    while levels:
        level = levels.pop()
        if level:
            level.sort()
            return level
    return []


def select_random_failure(live: list[int], rng: random.Random) -> int | None:
    """Uniform draw over the live ids, None if all crashed."""
    return live[rng.randrange(len(live))] if live else None


def select_greedy_sequential(
    degree: list[int], neighbors: list[int], live: list[int], rng: random.Random
) -> int:
    """Best live node among the last kill's ``neighbors``, else a random jump.

    Crashed nodes are below 0 and never win. Rows ascend, so the first
    neighbour at the top degree is the smallest id; ``live`` is never empty."""
    best = None
    best_degree = -1
    for u in neighbors:
        if degree[u] > best_degree:
            best, best_degree = u, degree[u]
    return best if best is not None else select_random_failure(live, rng)


def select_coordinated(
    degree: list[int], heap: list[int], live_ids: Callable[[], list[int]], rng: random.Random
) -> int | None:
    """Best live node on the crashed set's boundary, else a random restart.

    ``heap`` gains a node once, when it first neighbors a crashed node, so
    its live entries are exactly the frontier, which can gain nodes above
    the last pick's degree: hence a lazy max-heap, not degree levels. A
    key ``v - degree * n`` orders as ``(-degree, v)`` does and decodes as
    ``v = key % n``. Live degrees only fall, so a key bounds its node's
    degree from above: a crashed top (degree below 0) is dropped, a stale
    one re-keyed in place, and an exact one is the pick, left on the heap.
    The restart is :func:`select_random_failure`'s draw over ``live_ids()``,
    asked for only then, so the loop need keep no live ids in step
    (:func:`_replay_live`). On a connected graph it never restarts.
    """
    n = len(degree)
    while heap:
        key = heap[0]
        v = key % n
        if degree[v] < 0:
            heappop(heap)
        else:
            exact = v - degree[v] * n
            if key == exact:
                return v
            heapreplace(heap, exact)
    return select_random_failure(live_ids(), rng)


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
        return g.degree_levels()[-1][0]
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
) -> AttackTrace:
    """Drive one attack to its stopping point, then measure it.

    The removal loop keeps its own crash state, so ``g`` stays fresh. It
    records only what fell when; S and d are then read off the
    finished removal order (:func:`metrics.measure`). Rows are taken at
    step 0, whenever the removal count crosses a cadence mark, and at the
    last step. Early stop cuts the order at the first row at step 0 or a
    crossing that meets the crash criterion, so the cadence bounds how
    precisely the crash point is located. ``g``'s intact d is measured
    by the first attack that takes d, and filed on ``g`` for the rest.

    The order ends at ``stop``, the first removal count r with
    ``r / n >= budget``, or when the strategy stalls. Stop reasons, in
    order of precedence: network_crashed (early stop hit the crash
    criterion), graph_exhausted (no live node left), budget_exhausted
    (``stop`` reached), strategy_stalled (no target, live nodes remain).
    """
    if not 0.0 < budget <= 1.0:
        raise ValueError(f"budget must be in (0, 1], got {budget}")
    if g.live_count == 0:
        raise ValueError("graph has no live nodes")
    if g.live_count != g.node_count:
        raise ValueError("run_attack needs a fresh graph (no crashed nodes)")
    n = g.node_count
    stop = bisect_left(range(1, n + 1), budget, key=lambda r: r / n) + 1
    started = time.perf_counter()
    order, ends = _removal_order(g, spec, stop)
    ordered = time.perf_counter()
    rows, kept, exact, d_s = measure(g, order, ends, cadence, criterion, early_stop)
    if kept is not None:
        del ends[kept:]
        del order[ends[-1] if ends else 0 :]
        stop_reason = STOP_NETWORK_CRASHED
    elif rows[-1].removed_count == n:
        stop_reason = STOP_GRAPH_EXHAUSTED
    elif rows[-1].removed_count >= stop:
        stop_reason = STOP_BUDGET_EXHAUSTED
    else:
        stop_reason = STOP_STRATEGY_STALLED
    return AttackTrace(
        total_nodes=n,
        strategy_key=spec.label,
        order=order,
        ends=ends,
        snapshots=rows,
        stop_reason=stop_reason,
        exact_crash_threshold=exact,
        order_s=ordered - started,
        measure_s=time.perf_counter() - ordered,
        d_s=d_s,
    )


def _removal_order(g: Graph, spec: StrategySpec, stop: int) -> tuple[list[int], list[int]]:
    """Crash batch by batch until ``stop`` nodes are down or the attack stalls.

    Returns ``order`` and ``ends`` as :class:`AttackTrace` keeps them.
    Each kind runs its own loop on plain lists that hold only what its
    selector reads, and leaves ``g`` as it is; a crashed node's live
    degree, where one is kept, is below 0. The first target of every
    kind but the intentional one is :func:`_resolve_initial`'s; each
    later pick is one call of the kind's selector, looked up as a module
    global so that a wrapper put there sees every call. Only the
    lower-bounded avalanche can come up empty, which stalls it.
    """
    rng = random.Random(spec.seed)
    protected = build_protected_set(g, spec.protected, rng)
    if spec.kind == "intentional":
        order = _intentional_order(g, protected, stop)
        return order, list(range(1, len(order) + 1))
    first = _resolve_initial(g, spec, rng)
    if spec.kind == "lower_bounded_parallel":
        return _lower_bounded_order(g.adjacency, first, spec.threshold, stop)
    loop = {"random_failure": _random_order, "greedy_sequential": _greedy_order}
    order = loop.get(spec.kind, _coordinated_order)(g.adjacency, first, rng, stop)
    return order, list(range(1, len(order) + 1))


def _swap_remove(live: list[int], pos: list[int], v: int) -> None:
    """Take ``v`` out of ``live`` in O(1): the last id fills its slot."""
    last = live.pop()
    if last != v:
        live[pos[v]] = last
        pos[last] = pos[v]


def _replay_live(n: int, order: list[int]) -> Callable[[], list[int]]:
    """The live ids, slot for slot as a list swap-removed in step with ``order`` holds them.

    Built on the first call; each call swap-removes only the ids that
    ``order`` gained since the last, so all calls cost one pass.
    """
    live: list[int] = []
    pos: list[int] = []
    done = 0

    def live_ids() -> list[int]:
        nonlocal done
        if not pos:
            live.extend(range(n))
            pos.extend(range(n))
        for v in order[done:]:
            _swap_remove(live, pos, v)
        done = len(order)
        return live

    return live_ids


def _random_order(
    adjacency: list[list[int]], first: int, rng: random.Random, stop: int
) -> list[int]:
    """random_failure's removals, from the live ids alone: no adjacency is read."""
    live = list(range(len(adjacency)))
    pos = list(live)
    order = [first]
    while True:
        _swap_remove(live, pos, order[-1])
        if len(order) == stop:
            return order
        order.append(select_random_failure(live, rng))


def _greedy_order(
    adjacency: list[list[int]], first: int, rng: random.Random, stop: int
) -> list[int]:
    """greedy_sequential's removals, from live degrees, and live ids to jump to."""
    degree = list(map(len, adjacency))
    live = list(range(len(adjacency)))
    pos = list(live)
    order = [first]
    while True:
        v = order[-1]
        degree[v] = -1
        for u in adjacency[v]:
            degree[u] -= 1
        _swap_remove(live, pos, v)
        if len(order) == stop:
            return order
        order.append(select_greedy_sequential(degree, adjacency[v], live, rng))


def _coordinated_order(
    adjacency: list[list[int]], first: int, rng: random.Random, stop: int
) -> list[int]:
    """coordinated's removals, from live degrees and a lazy max-heap of keys
    ``v - degree * n``, which gains a node once, when it first joins the
    frontier. A restart replays the live ids from the order."""
    n = len(adjacency)
    degree = list(map(len, adjacency))
    heap: list[int] = []
    queued = bytearray(n)
    order = [first]
    live_ids = _replay_live(n, order)
    while True:
        v = order[-1]
        degree[v] = -1
        if heap:  # a non-empty heap supplied the pick, as its top
            heappop(heap)
        for u in adjacency[v]:
            if degree[u] >= 0:
                degree[u] -= 1
                if not queued[u]:
                    queued[u] = 1
                    heappush(heap, u - degree[u] * n)
        if len(order) == stop:
            return order
        order.append(select_coordinated(degree, heap, live_ids, rng))


def _lower_bounded_order(
    adjacency: list[list[int]], first: int, threshold: int, stop: int
) -> tuple[list[int], list[int]]:
    """lower_bounded_parallel's removal record, from live flags alone."""
    alive = [True] * len(adjacency)
    order: list[int] = []
    ends: list[int] = []
    batch = [first]
    while batch:
        for v in batch:
            alive[v] = False
        order += batch
        ends.append(len(order))
        if len(order) >= stop:
            break
        batch = step_lower_bounded(alive, batch, adjacency, threshold)
    return order, ends


def _intentional_order(g: Graph, protected: frozenset[int], stop: int) -> list[int]:
    """The intentional attack's removed ids, by degree levels, up to ``stop``.

    The scan starts from a copy of ``g``'s degree levels, and files an
    unprotected live node again, lower, whenever it meets one whose
    live degree has fallen below its level. Crashed and protected nodes
    hold a degree below 0, which decrements only lower, and are dropped
    when met. Live degrees only fall, so while level d is the top one,
    every node of degree d is filed there and none joins it: its sorted
    candidates are scanned once, and each one still at degree d is in
    turn the live node of highest degree, smallest id on ties.
    :func:`select_intentional` hands over the next level when a scan
    runs out; the order stalls when none is left.
    """
    adjacency = g.adjacency
    degree = list(map(len, adjacency))
    levels = list(map(list, g.degree_levels()))
    for v in protected:
        degree[v] = -1
    order: list[int] = []
    while candidates := select_intentional(levels):
        d = len(levels)
        for v in candidates:
            dv = degree[v]
            if dv != d:
                if dv >= 0:  # fell below d since it was filed
                    levels[dv].append(v)
                continue
            degree[v] = -1
            for u in adjacency[v]:
                degree[u] -= 1
            order.append(v)
            if len(order) == stop:
                return order
    return order
