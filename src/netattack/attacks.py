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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from .graph import Graph
from .metrics import CrashCriterion, MetricsRow, snapshot

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

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "seed": self.seed}
        if self.protected.kind != "none":
            out["protected"] = {
                "kind": self.protected.kind,
                "top_frac": self.protected.top_frac,
                "band_frac": self.protected.band_frac,
                "miss_frac": self.protected.miss_frac,
            }
        if self.threshold is not None:
            out["threshold"] = self.threshold
        if self.initial_target != "random_live":
            out["initial_target"] = self.initial_target
        return out

    @classmethod
    def from_json(cls, data: dict) -> "StrategySpec":
        if not isinstance(data, dict):
            raise ValueError(f"strategy entry must be an object, got {type(data).__name__}")
        known = {"kind", "seed", "protected", "threshold", "initial_target"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown strategy keys: {sorted(extra)}")
        if "kind" not in data:
            raise ValueError("strategy entry needs a 'kind'")
        protected = ProtectedRule()
        if "protected" in data:
            p = dict(data["protected"])
            p_extra = set(p) - {"kind", "top_frac", "band_frac", "miss_frac"}
            if p_extra:
                raise ValueError(f"unknown protected keys: {sorted(p_extra)}")
            protected = ProtectedRule(
                kind=p.get("kind", "none"),
                top_frac=p.get("top_frac", 0.01),
                band_frac=p.get("band_frac", 0.03),
                miss_frac=p.get("miss_frac", 0.0),
            )
        return cls(
            kind=data["kind"],
            protected=protected,
            threshold=data.get("threshold"),
            initial_target=data.get("initial_target", "random_live"),
            seed=data.get("seed", 0),
        )

    def with_seed(self, seed: int) -> "StrategySpec":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class SnapshotCadence:
    """How often the run measures S and (optionally) d.

    d_every=None disables the path-length observable, the most expensive
    one: each evaluation runs a BFS from every cluster member.
    """

    s_every: int
    d_every: int | None = None

    def __post_init__(self):
        if self.s_every < 1:
            raise ValueError(f"s_every must be >= 1, got {self.s_every}")
        if self.d_every is not None and self.d_every < 1:
            raise ValueError(f"d_every must be >= 1 or None, got {self.d_every}")

    @classmethod
    def default_for(cls, n: int, with_diameter: bool = True) -> "SnapshotCadence":
        s = max(1, math.ceil(n / 200))
        d = max(1, math.ceil(n / 50)) if with_diameter else None
        return cls(s_every=s, d_every=d)


@dataclass
class AttackTrace:
    """Complete record of one attack run: what fell when, and the curve."""

    total_nodes: int
    strategy_key: str
    removals: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    snapshots: list[MetricsRow] = field(default_factory=list)
    stop_reason: str = ""

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
    degree = [len(nbrs) for nbrs in g.adjacency]
    if rule.kind == "miss_biggest_hub":
        top = max(range(g.node_count), key=lambda v: (degree[v], -v))
        return frozenset((top,))
    n = g.node_count
    order = sorted(range(n), key=lambda v: (-degree[v], v))
    top_n = math.ceil(rule.top_frac * n)
    # floor at the band stage: a fractional tail node stays out of the band
    band_n = math.floor(rule.band_frac * n)
    band = order[top_n : top_n + band_n]
    if not band:
        return frozenset()
    take = min(math.ceil(rule.miss_frac * len(band)), len(band))
    return frozenset(rng.sample(band, take))


def select_intentional(g: Graph, protected: frozenset[int]) -> int | None:
    """Highest current-degree live node outside the protected set."""
    return g.max_live_degree_node(protected)


def select_random_failure(g: Graph, rng: random.Random) -> int | None:
    return g.random_live_node(rng)


def select_greedy_sequential(
    g: Graph, last_crashed: int | None, rng: random.Random
) -> int | None:
    """Best live neighbor of the last kill, else a uniform random jump."""
    if last_crashed is not None:
        best = None
        best_degree = -1
        for u in g.adjacency[last_crashed]:
            if g.alive[u]:
                d = g.live_degree[u]
                if d > best_degree or (d == best_degree and u < best):
                    best, best_degree = u, d
        if best is not None:
            return best
    return g.random_live_node(rng)


def select_coordinated(g: Graph, frontier: set[int], rng: random.Random) -> int | None:
    """Best live node on the crashed set's boundary, else a random restart.

    The caller maintains ``frontier`` as the set of live nodes adjacent
    to at least one crashed node; max-degree (smallest id on ties) is
    taken with an explicit total order, so set iteration order never
    leaks into the result.
    """
    best = None
    best_degree = -1
    for v in frontier:
        d = g.live_degree[v]
        if d > best_degree or (d == best_degree and v < best):
            best, best_degree = v, d
    if best is not None:
        return best
    return g.random_live_node(rng)


def step_lower_bounded(g: Graph, frontier: set[int], threshold: int) -> list[int]:
    """Frontier nodes to crash simultaneously this step, ascending ids.

    A node qualifies only if its degree on the attacker's topology map,
    the degree it had when the network was built, is strictly above the
    bound. A local-information attacker has no way to watch a remote
    node's links decay, and qualifying against decayed live degrees
    would quench the avalanche as soon as it reaches the hubs. An empty
    result means the attack stalls for good.
    """
    return sorted(v for v in frontier if len(g.adjacency[v]) > threshold)


def _resolve_initial(g: Graph, spec: StrategySpec, rng: random.Random) -> int | None:
    if isinstance(spec.initial_target, int):
        if spec.initial_target >= g.node_count or not g.alive[spec.initial_target]:
            raise ValueError(f"initial_target {spec.initial_target} is not a live node")
        return spec.initial_target
    if spec.initial_target == "max_degree":
        return g.max_live_degree_node()
    return g.random_live_node(rng)


def run_attack(
    g: Graph,
    spec: StrategySpec,
    *,
    budget: float = 1.0,
    cadence: SnapshotCadence | None = None,
    early_stop: bool = False,
    criterion: CrashCriterion | None = None,
) -> AttackTrace:
    """Drive one attack to its stopping point.

    The graph is consumed: after the call it is in the post-attack
    state. Snapshots are taken at step 0, whenever the removal count
    crosses a cadence mark, and at the final state. The crash check
    (and early stop, when enabled) happens only at snapshots, so the
    cadence bounds how precisely the crash point is located.

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
    n = g.node_count
    if cadence is None:
        cadence = SnapshotCadence.default_for(n)
    if criterion is None:
        criterion = CrashCriterion()
    rng = random.Random(spec.seed)
    protected = build_protected_set(g, spec.protected, rng)

    trace = AttackTrace(total_nodes=n, strategy_key=spec.label)
    with_d = cadence.d_every is not None
    first = snapshot(g, step=0, removed_count=0, with_diameter=with_d)
    trace.snapshots.append(first)
    if early_stop and criterion.crashed(first.giant_fraction):
        trace.stop_reason = STOP_NETWORK_CRASHED
        return trace

    removed = 0
    step = 0
    next_s = cadence.s_every
    next_d = cadence.d_every
    anchor: int | None = None
    frontier: set[int] = set()
    distributed = spec.kind in DISTRIBUTED_KINDS

    def pick_batch() -> list[int]:
        if spec.kind == "intentional":
            v = select_intentional(g, protected)
        elif spec.kind == "random_failure":
            v = select_random_failure(g, rng)
        elif spec.kind == "greedy_sequential":
            v = (
                _resolve_initial(g, spec, rng)
                if anchor is None
                else select_greedy_sequential(g, anchor, rng)
            )
        elif spec.kind == "coordinated":
            v = (
                _resolve_initial(g, spec, rng)
                if removed == 0
                else select_coordinated(g, frontier, rng)
            )
        else:  # lower_bounded_parallel
            if removed == 0:
                v = _resolve_initial(g, spec, rng)
            else:
                return step_lower_bounded(g, frontier, spec.threshold)
        return [] if v is None else [v]

    while True:
        batch = pick_batch()
        if not batch:
            trace.stop_reason = (
                STOP_STRATEGY_STALLED if g.live_count > 0 else STOP_GRAPH_EXHAUSTED
            )
            break
        step += 1
        for v in batch:
            g.crash_node(v)
        removed += len(batch)
        trace.removals.append((step, tuple(batch)))
        if distributed:
            for v in batch:
                frontier.discard(v)
            for v in batch:
                for u in g.adjacency[v]:
                    if g.alive[u]:
                        frontier.add(u)
            anchor = batch[-1]

        due_s = removed >= next_s
        due_d = next_d is not None and removed >= next_d
        if due_s or due_d:
            row = snapshot(g, step=step, removed_count=removed, with_diameter=due_d)
            trace.snapshots.append(row)
            if due_s:
                next_s = cadence.s_every * (removed // cadence.s_every + 1)
            if due_d:
                next_d = cadence.d_every * (removed // cadence.d_every + 1)
            if early_stop and criterion.crashed(row.giant_fraction):
                trace.stop_reason = STOP_NETWORK_CRASHED
                break
        if g.live_count == 0:
            trace.stop_reason = STOP_GRAPH_EXHAUSTED
            break
        if removed / n >= budget:
            trace.stop_reason = STOP_BUDGET_EXHAUSTED
            break

    if trace.snapshots[-1].removed_count != removed:
        trace.snapshots.append(
            snapshot(g, step=step, removed_count=removed, with_diameter=with_d)
        )
    return trace
