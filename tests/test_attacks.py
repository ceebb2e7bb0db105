import heapq
import json
import math
import random
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from netattack import (
    BaParams,
    CrashCriterion,
    ExperimentConfig,
    Graph,
    ProtectedRule,
    SnapshotCadence,
    StrategySpec,
    attacks,
    build_graph,
    build_protected_set,
    generate_ba,
    materialize_graph,
    run_attack,
)
from netattack.attacks import (
    DISTRIBUTED_KINDS,
    PROTECTED_KINDS,
    STRATEGY_KINDS,
    STOP_BUDGET_EXHAUSTED,
    STOP_GRAPH_EXHAUSTED,
    STOP_NETWORK_CRASHED,
    STOP_STRATEGY_STALLED,
    _intentional_order,
    _replay_live,
    select_coordinated,
    select_greedy_sequential,
    select_intentional,
    select_random_failure,
    step_lower_bounded,
)
from netattack.experiment import read_json
from netattack.metrics import measure


def degree_heap(g, nodes):
    """Lazy selection heap over ``nodes``, as run_attack seeds it."""
    heap = [heap_key(g, v) for v in nodes]
    heapq.heapify(heap)
    return heap


def heap_key(g, v):
    """The int key of node ``v`` at its live degree: ``v - degree * n``."""
    return v - oracles.live_degree(g.adjacency, g.alive, v) * g.node_count


def decode(key, n):
    """(node, degree bound) of an int heap key."""
    return key % n, -(key // n)


def pick(select, g, *rest):
    """Call a local selector on g's crash state, crashed nodes at degree -1."""
    alive = g.alive
    degree = [oracles.live_degree(g.adjacency, alive, v) if up else -1 for v, up in enumerate(alive)]
    return select(degree, *rest)


def star_plus_tail(spokes: int = 5, tail: int = 3):
    """Node 0 is a hub with `spokes` leaves; a path dangles off node 1."""
    edges = [(0, i) for i in range(1, spokes + 1)]
    base = spokes + 1
    prev = 1
    for i in range(tail):
        edges.append((prev, base + i))
        prev = base + i
    return build_graph(base + tail, edges)


class TestProtectedRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtectedRule(kind="nope")
        with pytest.raises(ValueError):
            ProtectedRule(kind="miss_medium_band")  # needs miss_frac > 0
        with pytest.raises(ValueError):
            ProtectedRule(kind="miss_medium_band", miss_frac=1.5)

    def test_none_rule_is_empty(self):
        g = star_plus_tail()
        assert build_protected_set(g, ProtectedRule(), random.Random(0)) == frozenset()

    def test_biggest_hub(self):
        g = star_plus_tail()
        got = build_protected_set(g, ProtectedRule("miss_biggest_hub"), random.Random(0))
        assert got == frozenset({0})

    def test_biggest_hub_tie_prefers_smallest_id(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        got = build_protected_set(g, ProtectedRule("miss_biggest_hub"), random.Random(0))
        assert got == frozenset({0})

    @pytest.mark.parametrize("n,expected", [(10_000, 150), (6_470, 97)])
    def test_band_counts_at_half_missing(self, n, expected):
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        rule = ProtectedRule("miss_medium_band", miss_frac=0.50)
        got = build_protected_set(g, rule, random.Random(1))
        assert len(got) == expected

    def test_band_membership_and_initial_degrees(self):
        n = 200
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        rule = ProtectedRule("miss_medium_band", miss_frac=0.5)
        degree = [len(a) for a in g.adjacency]
        order = sorted(range(n), key=lambda v: (-degree[v], v))
        band = set(order[math.ceil(0.01 * n) : math.ceil(0.01 * n) + math.floor(0.03 * n)])
        got = build_protected_set(g, rule, random.Random(2))
        assert got <= band
        assert len(got) == 3  # ceil(0.5 * 6)
        # crashing nodes must not change the ranking basis
        g.crash_node(order[0])
        again = build_protected_set(g, rule, random.Random(2))
        assert again == got

    def test_band_cut_orders_ties_by_id(self):
        # miss_frac=1.0 hides the whole band: the sample takes ceil(1.0 * len(band))
        g = build_graph(200, oracles.random_edges(random.Random(6), 200, 0.05))
        degree = [len(a) for a in g.adjacency]
        assert len(set(degree)) < 30  # many equal degrees around every cut
        order = sorted(range(200), key=lambda v: (-degree[v], v))
        for top_frac, band_frac in [(0.01, 0.03), (0.05, 0.2), (0.13, 0.37), (0.0, 0.5)]:
            rule = ProtectedRule("miss_medium_band", top_frac, band_frac, miss_frac=1.0)
            top_n = math.ceil(top_frac * 200)
            band = order[top_n : top_n + math.floor(band_frac * 200)]
            assert build_protected_set(g, rule, random.Random(0)) == frozenset(band)

    def test_sampling_uses_given_rng(self):
        g = generate_ba(BaParams(500, 2, seed=0))
        rule = ProtectedRule("miss_medium_band", miss_frac=0.4)
        a = build_protected_set(g, rule, random.Random(3))
        b = build_protected_set(g, rule, random.Random(3))
        c = build_protected_set(g, rule, random.Random(4))
        assert a == b
        assert a != c

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_rules_read_the_sorted_ranking(self, n, data):
        """Both rules read the ranking a stable sort of every id by
        descending initial degree gives, in its order, so the seeded
        sample draws what it would draw from that sort's band."""
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
        g = build_graph(n, edges)
        degree = [len(nbrs) for nbrs in g.adjacency]
        ranked = sorted(range(n), key=lambda v: -degree[v])
        hub = build_protected_set(g, ProtectedRule("miss_biggest_hub"), random.Random(0))
        assert hub == frozenset(ranked[:1])
        top, band, miss = (data.draw(st.floats(0.0, 1.0)) for _ in range(3))
        rule = ProtectedRule("miss_medium_band", top, band, max(miss, 0.01))
        seed = data.draw(st.integers(0, 2**32))
        top_n = math.ceil(top * n)
        want = ranked[top_n : top_n + math.floor(band * n)]
        want = random.Random(seed).sample(want, math.ceil(rule.miss_frac * len(want)))
        assert build_protected_set(g, rule, random.Random(seed)) == frozenset(want)


@st.composite
def strategy_specs(draw) -> StrategySpec:
    """Any valid spec: every kind, and every protected rule on intentional."""
    kind = draw(st.sampled_from(STRATEGY_KINDS))
    protected = ProtectedRule()
    if kind == "intentional":
        rule = draw(st.sampled_from(PROTECTED_KINDS))
        fracs = [draw(st.floats(0.0, 1.0)) for _ in range(2)]
        miss = draw(st.floats(0.0, 1.0, exclude_min=rule == "miss_medium_band"))
        protected = ProtectedRule(rule, *fracs, miss)
    threshold = draw(st.integers(0, 100)) if kind == "lower_bounded_parallel" else None
    target = "random_live"
    if kind in DISTRIBUTED_KINDS:
        target = draw(st.sampled_from(("random_live", "max_degree")) | st.integers(0, 10**6))
    return StrategySpec(kind, protected, threshold, target, draw(st.integers(-(2**40), 2**40)))


@st.composite
def attack_cases(draw) -> tuple[Graph, StrategySpec]:
    """A small sparse graph, often with isolated nodes, and any strategy on it."""
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    kind = draw(st.sampled_from(STRATEGY_KINDS))
    protected = ProtectedRule()
    if kind == "intentional":
        rule = draw(st.sampled_from(PROTECTED_KINDS))
        miss = draw(st.floats(0.1, 1.0)) if rule == "miss_medium_band" else 0.0
        protected = ProtectedRule(rule, top_frac=0.1, band_frac=0.5, miss_frac=miss)
    threshold = draw(st.integers(0, 3)) if kind == "lower_bounded_parallel" else None
    target = "random_live"
    if kind in DISTRIBUTED_KINDS:
        target = draw(st.sampled_from(("random_live", "max_degree")))
    spec = StrategySpec(kind, protected, threshold, target, draw(st.integers(0, 2**32)))
    return build_graph(n, edges), spec


def draw_budget(draw, n: int) -> float:
    """1.0, a share ``r / n``, a float one ulp either side of it, or any
    fraction, so the stop count meets every rounding of ``r / n``."""
    r = draw(st.integers(1, n))
    share = draw(st.sampled_from((r / n, r * (1 / n), math.nextafter(r / n, 0))))
    return draw(
        st.sampled_from((1.0, share, min(1.0, math.nextafter(share, 1))))
        | st.floats(0.0, 1.0, exclude_min=True)
    )


@st.composite
def intentional_cases(draw):
    """(n, edges, protected kind, miss_frac, budget) for an intentional run.

    Small graphs keep ties and degree-0 nodes common. ``miss_medium_band``
    runs with the whole graph as its band, so it hides any share of it,
    all nodes included. The budget comes from :func:`draw_budget`.
    """
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    rule = draw(st.sampled_from(PROTECTED_KINDS))
    miss = draw(st.floats(0.01, 1.0)) if rule == "miss_medium_band" else 0.0
    budget = draw_budget(draw, n)
    return n, edges, rule, miss, budget


@st.composite
def shared_loop_cases(draw):
    """(n, edges, kind, threshold, initial target, seed, budget) for a run
    of one of the four kinds that ``oracles.shared_loop_order`` replays.

    Graphs are small and sparse, often edgeless or split, so ties, jumps,
    restarts and stalls are common. The budget comes from
    :func:`draw_budget`.
    """
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    kind = draw(st.sampled_from(STRATEGY_KINDS[1:]))
    threshold = draw(st.integers(0, 3)) if kind == "lower_bounded_parallel" else None
    target = "random_live"
    if kind in DISTRIBUTED_KINDS:
        target = draw(st.sampled_from(("random_live", "max_degree")) | st.integers(0, n - 1))
    budget = draw_budget(draw, n)
    return n, edges, kind, threshold, target, draw(st.integers(0, 2**32)), budget


class TestStrategySpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            StrategySpec("nonsense")

    def test_threshold_pairing(self):
        with pytest.raises(ValueError):
            StrategySpec("intentional", threshold=4)
        with pytest.raises(ValueError):
            StrategySpec("lower_bounded_parallel")
        StrategySpec("lower_bounded_parallel", threshold=4)

    def test_protection_only_for_intentional(self):
        with pytest.raises(ValueError):
            StrategySpec("coordinated", protected=ProtectedRule("miss_biggest_hub"))

    def test_initial_target_rules(self):
        with pytest.raises(ValueError):
            StrategySpec("greedy_sequential", initial_target="elsewhere")
        with pytest.raises(ValueError):
            StrategySpec("intentional", initial_target="max_degree")
        with pytest.raises(ValueError):
            StrategySpec("coordinated", initial_target=-1)
        StrategySpec("coordinated", initial_target=7)
        StrategySpec("lower_bounded_parallel", threshold=4, initial_target="max_degree")

    def test_labels(self):
        assert StrategySpec("intentional").label == "intentional"
        assert (
            StrategySpec("intentional", protected=ProtectedRule("miss_biggest_hub")).label
            == "intentional_miss_biggest_hub"
        )
        assert (
            StrategySpec(
                "intentional", protected=ProtectedRule("miss_medium_band", miss_frac=0.5)
            ).label
            == "intentional_miss_medium_50pct"
        )
        assert (
            StrategySpec("lower_bounded_parallel", threshold=10).label
            == "lower_bounded_parallel_t10"
        )
        assert StrategySpec("greedy_sequential").label == "greedy_sequential"

    @settings(max_examples=300, deadline=None)
    @given(strategy_specs())
    def test_json_round_trip(self, spec):
        data = json.loads(json.dumps(asdict(spec)))
        assert read_json(StrategySpec, data, "strategy") == spec

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown strategy keys"):
            read_json(StrategySpec, {"kind": "intentional", "bogus": 1}, "strategy")
        with pytest.raises(ValueError, match="unknown strategy.protected keys"):
            read_json(
                StrategySpec,
                {"kind": "intentional", "protected": {"kind": "miss_biggest_hub", "x": 2}},
                "strategy",
            )
        with pytest.raises(ValueError, match="strategy.kind is required"):
            read_json(StrategySpec, {}, "strategy")


class TestSnapshotCadence:
    def test_validation(self):
        with pytest.raises(ValueError, match="s_every must be >= 1, got 0"):
            SnapshotCadence(s_every=0)
        with pytest.raises(ValueError, match="d_every must be >= 1, got 0"):
            SnapshotCadence(s_every=1, d_every=0)
        assert SnapshotCadence(s_every=None, d_every=None).d_every is None

    def test_default_for(self):
        """None s_every takes ceil(n/200), the default d_every ceil(n/50)."""
        c = SnapshotCadence().resolve(10_000)
        assert (c.s_every, c.d_every) == (50, 200)
        assert SnapshotCadence().resolve(100) == SnapshotCadence(1, 2)
        c = SnapshotCadence().resolve(1)
        assert (c.s_every, c.d_every) == (1, 1)

    def test_resolve(self):
        """Explicit values pass through; None d_every turns d off."""
        assert SnapshotCadence(s_every=7).resolve(100) == SnapshotCadence(7, 2)
        assert SnapshotCadence(d_every=None).resolve(100) == SnapshotCadence(1, None)
        assert SnapshotCadence(d_every=9).resolve(100) == SnapshotCadence(1, 9)

    @pytest.mark.parametrize("cadence", [{}, {"s_every": 7}, {"d_every": None}])
    def test_run_attack_resolves_a_config_cadence(self, cadence):
        config = ExperimentConfig.from_json(
            {
                "network": {"ba": {"n": 300, "m": 2}},
                "strategies": [{"kind": "random_failure"}],
                "snapshot_cadence": cadence,
            }
        )
        g = materialize_graph(config.network, 0)
        spec = config.strategies[0]
        resolved = config.cadence.resolve(g.node_count)
        trace = run_attack(g, spec, budget=0.5, cadence=config.cadence)
        assert trace == run_attack(g, spec, budget=0.5, cadence=resolved)
        with_d = any(row.cluster_diameter is not None for row in trace.snapshots)
        assert with_d == (resolved.d_every is not None)


def live_ids(g):
    return [v for v in range(g.node_count) if g.alive[v]]


def intentional_picks(g, protected=frozenset()):
    """The intentional attack's pick order on fresh ``g``, up to every node."""
    return _intentional_order(g, frozenset(protected), g.node_count)


class TestSelectors:
    def test_intentional_skips_protected(self):
        g = star_plus_tail()
        assert intentional_picks(g)[0] == 0
        assert intentional_picks(g, {0})[0] == 1
        assert 0 not in intentional_picks(g, {0})

    def test_intentional_tie_breaks_to_smallest_id(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        # after 0 falls, 2 and 3 tie at degree 1; then 1 and 3 at degree 0
        assert intentional_picks(g) == [0, 2, 1, 3]
        assert intentional_picks(g, {0}) == [1, 2, 3]
        assert intentional_picks(g, {0, 1}) == [2, 3]
        levels = [[5, 3], [], [4, 2]]
        assert select_intentional(levels) == [2, 4]
        assert levels == [[5, 3], []]  # the returned level's degree is 2
        assert select_intentional(levels) == [3, 5]
        assert levels == []

    def test_intentional_rekeys_stale_entries(self):
        """A node whose degree fell below its level is skipped there, filed
        again at its degree and picked off that level."""
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        # 1 falls first; 2's entry at level 2 is then stale, and 2 is
        # picked at level 1, where it ties with 3 and wins on its id
        assert intentional_picks(g) == [1, 2, 0, 3, 4]
        # a protected node still counts toward its neighbors' degrees
        assert intentional_picks(g, {2}) == [1, 3, 0, 4]

    def test_intentional_none_when_everything_protected_or_dead(self):
        assert select_intentional([]) == []
        assert select_intentional([[], []]) == []
        g = build_graph(2, [(0, 1)])
        # the stop count is never reached: the scan runs out of levels
        assert _intentional_order(g, frozenset({0, 1}), 2) == []
        assert _intentional_order(g, frozenset({1}), 2) == [0]
        assert select_random_failure([], random.Random(0)) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=60), st.data())
    def test_int_keys_order_as_degree_then_id(self, degree, data):
        """Keys v - degree * n pop in (-degree, id) order and decode exactly."""
        n = len(degree)
        # degree 0, node n - 1 and ties are always in play
        degree[-1] = data.draw(st.sampled_from((0, degree[0])))
        keys = [v - d * n for v, d in enumerate(degree)]
        by_tuple = sorted(range(n), key=lambda v: (-degree[v], v))
        assert sorted(keys) == [v - degree[v] * n for v in by_tuple]
        assert [decode(key, n) for key in keys] == list(enumerate(degree))
        live_degree = list(degree)
        heap = list(keys)
        heapq.heapify(heap)
        popped = []
        # no live ids to restart from, so an empty frontier ends on None
        while (v := select_coordinated(live_degree, heap, lambda: [], random.Random(0))) is not None:
            popped.append(v)
            heapq.heappop(heap)
            live_degree[v] = -1
        assert popped == by_tuple

    def test_greedy_prefers_anchor_neighborhood(self):
        g = star_plus_tail(spokes=3, tail=2)
        g.crash_node(0)
        # neighbors of the dead hub: 1 (degree 1 via tail), 2, 3 (degree 0)
        got = pick(select_greedy_sequential, g, g.adjacency[0], live_ids(g), random.Random(0))
        assert got == 1

    def test_greedy_jumps_when_stuck(self):
        g = build_graph(3, [(0, 1)])
        g.crash_node(1)
        g.crash_node(0)
        # anchor 0 has no live neighbors; the jump must pick the only live node
        got = pick(select_greedy_sequential, g, g.adjacency[0], live_ids(g), random.Random(0))
        assert got == 2

    def test_greedy_live_degree_0_beats_crashed_neighbors(self):
        # 5 fell last; its neighbors 0 and 1 crashed before it, 2 is live
        # with no live neighbor left, and 3-4 is a live edge elsewhere
        degree = [-2, -1, 0, 1, 1, -3]
        for seed in range(10):  # a jump would draw 3 or 4 for some seed
            assert select_greedy_sequential(degree, [0, 1, 2], [2, 3, 4], random.Random(seed)) == 2

    def test_greedy_ties_go_to_the_smallest_id(self):
        degree = [-1, 2, 3, 2, 3, 3]
        # rows ascend, so the first neighbor at the top degree is the smallest id
        assert select_greedy_sequential(degree, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], None) == 2
        assert select_greedy_sequential(degree, [1, 3], [1, 2, 3, 4, 5], None) == 1

    def test_coordinated_scans_frontier_with_total_order(self):
        g = build_graph(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
        g.crash_node(0)
        heap = degree_heap(g, (1, 2))  # the frontier once 0 has crashed
        assert pick(select_coordinated, g, heap, lambda: live_ids(g), random.Random(0)) == 2
        g.crash_node(2)
        for u in (3, 4):
            heapq.heappush(heap, heap_key(g, u))
        # 1, 3 and 4 all have degree 0 now: the smallest id wins
        assert pick(select_coordinated, g, heap, lambda: live_ids(g), random.Random(0)) == 1
        restart = pick(select_coordinated, g, [], lambda: live_ids(g), random.Random(0))
        assert restart in range(g.node_count) and g.alive[restart]

    def test_coordinated_pops_a_crashed_top(self):
        # 0 crashed after it was keyed at degree 2; 1 and 2 are exact at degree 1
        n = 3
        heap = [0 - 2 * n, 1 - 1 * n, 2 - 1 * n]
        assert select_coordinated([-1, 1, 1], heap, lambda: [1, 2], random.Random(0)) == 1
        # popped, not re-keyed as 0 - (-1) * n: only the live entries remain
        assert sorted(heap) == [1 - n, 2 - n]

    def test_replayed_live_ids_match_swap_removes(self):
        """The restart's live ids are those a list kept in step with every
        removal would hold, slot for slot, however often they are asked."""
        order = [0]
        live_ids = _replay_live(6, order)
        assert live_ids() == [5, 1, 2, 3, 4]  # 5 fills 0's slot
        order += [1, 2]
        assert live_ids() == [5, 4, 3]  # then 4 fills 1's, 3 fills 2's
        assert live_ids() == [5, 4, 3]
        order += [5, 4, 3]
        assert live_ids() == []

    def test_lower_bounded_uses_construction_degrees(self):
        g = star_plus_tail(spokes=5, tail=1)
        # strip the hub's live degree to 1 without touching its map degree
        for v in (2, 3, 4, 5):
            g.crash_node(v)
        assert oracles.live_degree(g.adjacency, g.alive, 0) == 1
        assert len(g.adjacency[0]) == 5
        assert step_lower_bounded(g.alive, [2, 3, 4, 5], g.adjacency, threshold=3) == [0]
        assert step_lower_bounded(g.alive, [2, 3, 4, 5], g.adjacency, threshold=5) == []

    def test_lower_bounded_sorts_batch(self):
        g = build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        g.crash_node(5)
        g.crash_node(4)
        # both crashed nodes see 0..3: each appears once, in id order
        assert step_lower_bounded(g.alive, [5, 4], g.adjacency, threshold=1) == [0, 1, 2, 3]


@st.composite
def shared_graph_cases(draw):
    """(n, edges, specs, budget): a config's strategies on one graph.

    The specs take every kind, in any order: both protected rules, with
    a band whose edges fall inside degree levels and any miss share, and
    ``max_degree`` first targets, which small graphs make ties for.
    """
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    top, band = draw(st.sampled_from(((0.0, 0.5), (0.1, 0.3), (0.25, 1.0))))
    miss = draw(st.floats(0.01, 1.0))
    target = draw(st.sampled_from(("max_degree", "random_live")))
    specs = [
        StrategySpec("intentional"),
        StrategySpec("intentional", ProtectedRule("miss_biggest_hub")),
        StrategySpec("intentional", ProtectedRule("miss_medium_band", top, band, miss)),
        StrategySpec("random_failure"),
        StrategySpec("greedy_sequential", initial_target=target),
        StrategySpec("coordinated", initial_target="max_degree"),
        StrategySpec("lower_bounded_parallel", threshold=draw(st.integers(0, 3)), initial_target=target),
    ]
    seed = draw(st.integers(0, 2**32))
    specs = [spec.with_seed(seed + i) for i, spec in enumerate(draw(st.permutations(specs)))]
    return n, edges, specs, draw_budget(draw, n)


# two hubs of degree 3 tie for the top, and the band [0, 4, 1, 2] cuts
# the level of degree 1 in two
TIED_HUBS = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]
TIED_SPECS = [
    StrategySpec("coordinated", initial_target="max_degree", seed=1),
    StrategySpec("intentional", ProtectedRule("miss_medium_band", 0.0, 0.5, 0.5), seed=2),
    StrategySpec("intentional", ProtectedRule("miss_biggest_hub"), seed=3),
    StrategySpec("lower_bounded_parallel", threshold=0, initial_target="max_degree", seed=4),
]


class TestRunAttack:
    @settings(max_examples=200, deadline=None)
    @given(shared_graph_cases())
    @example((8, TIED_HUBS, TIED_SPECS, 1.0))
    def test_strategies_on_one_graph_match_fresh_graphs(self, case):
        """A trial runs every strategy on one graph, whose degree levels the
        first attack files; each trace equals the one a freshly built
        graph gives."""
        n, edges, specs, budget = case
        g = build_graph(n, edges)
        cadence = SnapshotCadence(1, None)
        shared = [run_attack(g, spec, budget=budget, cadence=cadence) for spec in specs]
        fresh = [
            run_attack(build_graph(n, edges), spec, budget=budget, cadence=cadence)
            for spec in specs
        ]
        assert shared == fresh
        assert g.degree_levels() == build_graph(n, edges).degree_levels()

    def test_degree_levels_are_filed_on_the_first_attack(self):
        g = materialize_graph(("ba", 60, 2), 0)
        assert g._levels is None  # not at build time
        run_attack(g, StrategySpec("random_failure"))
        assert g._levels is None  # nothing read them
        first = run_attack(g, StrategySpec("intentional"))
        levels = g.degree_levels()
        assert run_attack(g, StrategySpec("intentional")) == first
        assert g.degree_levels() is levels
        degree = [len(nbrs) for nbrs in g.adjacency]
        assert levels == tuple(
            tuple(v for v in range(60) if degree[v] == d) for d in range(max(degree) + 1)
        )

    def test_intact_d_is_filed_on_the_first_attack_that_takes_d(self, monkeypatch):
        g = materialize_graph(("ba", 60, 2), 0)
        assert g._intact_d == {}  # not at build time
        run_attack(g, StrategySpec("random_failure"), cadence=SnapshotCadence(d_every=None))
        assert g._intact_d == {}  # no d was taken
        first = run_attack(g, StrategySpec("intentional"), cadence=SnapshotCadence(d_every=10))
        d = first.snapshots[0].cluster_diameter
        assert g._intact_d == {0: d}
        want = oracles.floyd_warshall_mean(g.adjacency, [True] * 60, range(60))
        assert d == pytest.approx(want)
        intact = []
        kernel = Graph.avg_shortest_path

        def counted(self, members, live):
            intact.append(all(live))
            return kernel(self, members, live)

        monkeypatch.setattr(Graph, "avg_shortest_path", counted)
        again = run_attack(g, StrategySpec("random_failure"), cadence=SnapshotCadence(d_every=10))
        assert again.snapshots[0].cluster_diameter == d
        assert intact and not any(intact)  # only rows past step 0 ran the kernel
        # a None d, of an intact cluster below 2 nodes, is filed as well
        lone = build_graph(3, [])
        for _ in range(2):
            trace = run_attack(lone, StrategySpec("intentional"), cadence=SnapshotCadence(1, 1))
            assert trace.snapshots[0].cluster_diameter is None
            assert lone._intact_d == {0: None}
        assert intact.count(True) == 1

    def test_requires_fresh_graph_and_sane_budget(self):
        g = star_plus_tail()
        with pytest.raises(ValueError, match="budget"):
            run_attack(g, StrategySpec("intentional"), budget=0.0)
        g2 = star_plus_tail()
        g2.crash_node(0)
        with pytest.raises(ValueError, match="fresh graph"):
            run_attack(g2, StrategySpec("intentional"))

    def test_intentional_consumes_graph_to_stall_free_end(self):
        g = star_plus_tail()
        trace = run_attack(g, StrategySpec("intentional"))
        assert trace.stop_reason == STOP_GRAPH_EXHAUSTED
        assert trace.removed_count == g.node_count
        removed = sorted(v for _, ids in trace.removals for v in ids)
        assert removed == list(range(g.node_count))
        assert g.live_count == g.node_count  # the caller's graph stays fresh
        assert trace.final.giant_fraction == 0.0

    def test_protected_nodes_survive(self):
        g = generate_ba(BaParams(300, 2, seed=1))
        spec = StrategySpec("intentional", protected=ProtectedRule("miss_biggest_hub"))
        hub = max(range(300), key=lambda v: (len(g.adjacency[v]), -v))
        trace = run_attack(g, spec)
        removed = {v for _, ids in trace.removals for v in ids}
        assert hub not in removed
        assert trace.stop_reason == STOP_STRATEGY_STALLED
        assert trace.removed_count == len(removed) == 299
        assert g.live_count == 300

    def test_budget_stop(self):
        g = generate_ba(BaParams(400, 2, seed=2))
        trace = run_attack(g, StrategySpec("random_failure", seed=3), budget=0.25)
        assert trace.stop_reason == STOP_BUDGET_EXHAUSTED
        assert trace.removed_count == len({v for _, ids in trace.removals for v in ids}) == 100
        assert g.live_count == 400

    def test_early_stop_reports_crash(self):
        g = generate_ba(BaParams(500, 2, seed=3))
        trace = run_attack(
            g,
            StrategySpec("intentional"),
            cadence=SnapshotCadence(s_every=5, d_every=None),
            early_stop=True,
            criterion=CrashCriterion(0.05),
        )
        assert trace.stop_reason == STOP_NETWORK_CRASHED
        assert trace.final.giant_fraction <= 0.05
        assert trace.final.removed_count == trace.removed_count < g.node_count
        assert g.live_count == g.node_count

    def test_lower_bounded_stall(self):
        g = star_plus_tail(spokes=4, tail=0)
        spec = StrategySpec("lower_bounded_parallel", threshold=10, initial_target=1)
        trace = run_attack(g, spec)
        assert trace.stop_reason == STOP_STRATEGY_STALLED
        assert trace.removed_count == 1  # only the seeded target fell
        assert trace.final.giant_fraction == pytest.approx(4 / 5)

    def test_lower_bounded_waves_respect_frontier_and_bound(self):
        g = generate_ba(BaParams(600, 2, seed=4))
        adjacency = g.adjacency
        spec = StrategySpec("lower_bounded_parallel", threshold=3, seed=9)
        trace = run_attack(g, spec)
        crashed: set[int] = set()
        for i, (step, batch) in enumerate(trace.removals):
            assert len(set(batch)) == len(batch)
            assert not crashed & set(batch)
            if i > 0:
                for v in batch:
                    assert len(adjacency[v]) > 3
                    assert any(u in crashed for u in adjacency[v])
                assert list(batch) == sorted(batch)
            crashed |= set(batch)

    def test_snapshot_cadence_marks(self):
        g = generate_ba(BaParams(200, 2, seed=5))
        trace = run_attack(
            g,
            StrategySpec("random_failure", seed=1),
            cadence=SnapshotCadence(s_every=30, d_every=60),
            budget=0.5,
        )
        removed_marks = [r.removed_count for r in trace.snapshots]
        assert removed_marks[0] == 0
        assert removed_marks[-1] == trace.removed_count == 100
        assert removed_marks == sorted(removed_marks)
        for r in trace.snapshots:
            assert r.fraction_removed == pytest.approx(r.removed_count / 200)
            if r.removed_count in (30, 90):
                assert r.cluster_diameter is None
            if r.removed_count in (60, 120):
                assert r.cluster_diameter is not None

    def test_traces_are_reproducible_per_seed(self):
        for kind, kwargs in [
            ("random_failure", {}),
            ("greedy_sequential", {}),
            ("coordinated", {}),
            ("lower_bounded_parallel", {"threshold": 3}),
        ]:
            spec = StrategySpec(kind, seed=7, **kwargs)
            a = run_attack(generate_ba(BaParams(300, 2, seed=6)), spec)
            b = run_attack(generate_ba(BaParams(300, 2, seed=6)), spec)
            assert a.removals == b.removals, kind
            assert a.snapshots == b.snapshots, kind
            c = run_attack(generate_ba(BaParams(300, 2, seed=6)), spec.with_seed(8))
            assert a.removals != c.removals, kind

    def test_explicit_initial_target(self):
        g = generate_ba(BaParams(50, 2, seed=7))
        spec = StrategySpec("greedy_sequential", initial_target=13)
        trace = run_attack(g, spec, budget=0.1)
        assert trace.removals[0][1] == (13,)
        g2 = generate_ba(BaParams(50, 2, seed=7))
        bad = StrategySpec("greedy_sequential", initial_target=50)
        with pytest.raises(ValueError, match="not a live node"):
            run_attack(g2, bad)

    def test_max_degree_initial_target(self):
        g = generate_ba(BaParams(80, 2, seed=8))
        hub = oracles.max_live_degree(g.adjacency, g.alive)
        spec = StrategySpec("coordinated", initial_target="max_degree")
        trace = run_attack(g, spec, budget=0.05)
        assert trace.removals[0][1] == (hub,)

    @settings(max_examples=400, deadline=None)
    @given(attack_cases())
    def test_fuzz_degree_selection_against_oracles(self, case):
        """Replay a full-budget trace and recheck every pick from scratch."""
        g, spec = case
        n = g.node_count
        adjacency = g.adjacency
        protected = build_protected_set(g, spec.protected, random.Random(spec.seed))
        trace = run_attack(g, spec, cadence=SnapshotCadence(s_every=n, d_every=None))
        alive = [True] * n

        def best(candidates):
            """Highest live degree among candidates, smallest id on ties."""
            return oracles.max_live_degree(adjacency, alive, set(range(n)) - set(candidates))

        def frontier():
            return {u for v in range(n) if not alive[v] for u in adjacency[v] if alive[u]}

        def qualifiers():
            return sorted(v for v in frontier() if len(adjacency[v]) > spec.threshold)

        for i, (_, batch) in enumerate(trace.removals):
            if spec.kind == "intentional":
                assert batch == (best(set(range(n)) - protected),)
            elif i == 0 and spec.initial_target == "max_degree":
                assert batch == (best(range(n)),)
            elif spec.kind == "lower_bounded_parallel" and i > 0:
                # every qualifying frontier node, not just some of them
                assert list(batch) == qualifiers()
            else:
                pool = []  # empty: a random draw, jump or restart takes any live node
                if i > 0 and spec.kind == "greedy_sequential":
                    pool = [u for u in adjacency[trace.removals[i - 1][1][-1]] if alive[u]]
                elif i > 0 and spec.kind == "coordinated":
                    pool = frontier()
                if pool:
                    assert batch == (best(pool),)
                else:
                    assert len(batch) == 1 and alive[batch[0]]
            for v in batch:
                alive[v] = False
        if trace.stop_reason == STOP_STRATEGY_STALLED:
            if spec.kind == "intentional":
                assert best(set(range(n)) - protected) is None
            else:
                assert spec.kind == "lower_bounded_parallel"
                assert qualifiers() == []
        else:
            assert trace.stop_reason == STOP_GRAPH_EXHAUSTED
            assert trace.removed_count == n

    @settings(max_examples=300, deadline=None)
    @given(attack_cases())
    def test_random_draws_match_swap_remove_oracle(self, case):
        """Every random pick, jump and restart is the draw the oracle replays."""
        g, spec = case
        if spec.kind not in ("random_failure", "greedy_sequential", "coordinated"):
            spec = StrategySpec("coordinated", seed=spec.seed)
        order = [v for _, batch in run_attack(g, spec).removals for v in batch]
        first_drawn = spec.initial_target == "random_live"
        expected = oracles.random_draws(g.adjacency, spec.kind, spec.seed, order, first_drawn)
        assert len(expected) == len(order)
        for want, got in zip(expected, order):
            assert want in (None, got)

    def test_random_draws_oracle_sees_jumps_and_restarts(self):
        """On sparse graphs the replay meets draws after the first pick."""
        g = build_graph(40, oracles.random_edges(random.Random(3), 40, 0.03))
        for kind in ("random_failure", "greedy_sequential", "coordinated"):
            spec = StrategySpec(kind, seed=5)
            order = [v for _, batch in run_attack(g, spec).removals for v in batch]
            expected = oracles.random_draws(g.adjacency, kind, spec.seed, order, True)
            assert sum(want is not None for want in expected[1:]) >= 5, kind
            assert all(want in (None, got) for want, got in zip(expected, order)), kind

    @pytest.mark.parametrize("spec", [StrategySpec("coordinated", seed=3)], ids=lambda s: s.label)
    def test_heap_holds_each_node_once(self, monkeypatch, spec):
        """At every pick the heap holds each frontier node once, keyed from above."""
        picks = []

        def checked(degree, heap, *rest):
            n = len(degree)
            decoded = [decode(key, n) for key in heap]
            ids = [v for v, _ in decoded]
            assert len(ids) == len(set(ids))
            assert all(bound >= degree[v] for v, bound in decoded)
            frontier = {u for v in range(n) if degree[v] < 0 for u in g.adjacency[v] if degree[u] >= 0}
            assert set(ids) == frontier
            picks.append(select_coordinated(degree, heap, *rest))
            return picks[-1]

        monkeypatch.setattr(attacks, "select_coordinated", checked)
        sparse = oracles.random_edges(random.Random(5), 200, 0.012)
        for g in (generate_ba(BaParams(300, 2, seed=10)), build_graph(200, sparse)):
            picks.clear()
            trace = run_attack(g, spec)
            order = [v for _, batch in trace.removals for v in batch]
            # every pick but the initial target went through the check
            assert picks == order[1:]

    @settings(max_examples=400, deadline=None)
    @given(intentional_cases())
    @example((1, [], "none", 0.0, 1.0))  # one isolated node
    @example((7, [], "miss_medium_band", 0.5, 1.0))  # edgeless, stalls
    @example((10, [(0, 1), (2, 3)], "none", 0.0, 0.1 * 3))  # 0.30000000000000004: 4 of 10
    @example((10, [(0, 1), (2, 3)], "none", 0.0, 3 / 10))  # 0.3: 3 of 10
    def test_level_scan_matches_heap_oracle(self, case):
        """Removals and stop reason equal the lazy-heap order's, rounding included."""
        n, edges, rule, miss, budget = case
        g = build_graph(n, edges)
        protected = ProtectedRule(rule, top_frac=0.0, band_frac=1.0, miss_frac=miss)
        spec = StrategySpec("intentional", protected=protected, seed=n)
        hidden = build_protected_set(g, protected, random.Random(spec.seed))
        trace = run_attack(g, spec, budget=budget, cadence=SnapshotCadence(1, None))
        want = oracles.heap_intentional_order(g.adjacency, hidden, budget)
        assert (trace.removals, trace.stop_reason) == want

    @settings(max_examples=400, deadline=None)
    @given(shared_loop_cases())
    @example((1, [], "random_failure", None, "random_live", 0, 1.0))  # one node
    @example((6, [], "coordinated", None, "random_live", 1, 1.0))  # edgeless: every pick restarts
    @example((6, [], "greedy_sequential", None, 2, 1, 1.0))  # edgeless: every pick jumps
    @example((5, [(0, 1)], "lower_bounded_parallel", 0, 2, 0, 1.0))  # isolated start stalls
    @example((10, [(0, 1), (2, 3)], "random_failure", None, "random_live", 3, 0.1 * 3))  # 4 of 10
    @example((10, [(0, 1), (2, 3)], "coordinated", None, "max_degree", 3, 3 / 10))  # 3 of 10
    # two triangles: coordinated restarts once the frontier of the first
    # dies, drawing over the live ids the replayed swap-removes leave
    @example((6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], "coordinated", None, 0, 1, 1.0))
    def test_shared_loop_kinds_match_oracle(self, case):
        """The random and local kinds' removals and stop reason equal one
        shared loop's, jumps, restarts, stalls and rounding included."""
        n, edges, kind, threshold, target, seed, budget = case
        g = build_graph(n, edges)
        spec = StrategySpec(kind, threshold=threshold, initial_target=target, seed=seed)
        trace = run_attack(g, spec, budget=budget, cadence=SnapshotCadence(1, None))
        want = oracles.shared_loop_order(g.adjacency, kind, seed, budget, threshold, target)
        assert (trace.removals, trace.stop_reason) == want

    def test_fuzz_engine_invariants(self):
        rng = random.Random(11)
        kinds = [
            StrategySpec("intentional"),
            StrategySpec("random_failure"),
            StrategySpec("greedy_sequential"),
            StrategySpec("coordinated"),
            StrategySpec("lower_bounded_parallel", threshold=2),
        ]
        for trial in range(20):
            n = rng.randrange(5, 60)
            g = build_graph(n, oracles.random_edges(rng, n, 0.15))
            spec = kinds[trial % len(kinds)].with_seed(trial)
            budget = rng.choice([0.3, 0.7, 1.0])
            trace = run_attack(
                g, spec, budget=budget, cadence=SnapshotCadence(s_every=3, d_every=None)
            )
            removed = [v for _, ids in trace.removals for v in ids]
            assert len(removed) == len(set(removed)) == trace.removed_count
            assert all(0 <= v < n for v in removed)
            assert g.live_count == n
            assert trace.snapshots[0].removed_count == 0
            assert trace.final.removed_count == trace.removed_count
            assert trace.stop_reason in {
                STOP_BUDGET_EXHAUSTED,
                STOP_GRAPH_EXHAUSTED,
                STOP_STRATEGY_STALLED,
            }
            if trace.stop_reason == STOP_BUDGET_EXHAUSTED:
                assert trace.removed_count / n >= budget
            if trace.stop_reason == STOP_GRAPH_EXHAUSTED:
                assert trace.removed_count == n

    def test_early_stop_cut_matches_oracle_replay(self):
        """The cut is the first cadence row, step 0 included, at or below epsilon."""
        rng = random.Random(17)
        kinds = [
            StrategySpec("intentional"),
            StrategySpec("random_failure"),
            StrategySpec("greedy_sequential"),
            StrategySpec("coordinated"),
            StrategySpec("lower_bounded_parallel", threshold=1),
        ]
        cuts = 0
        for trial in range(60):
            n = rng.randrange(5, 50)
            g = build_graph(n, oracles.random_edges(rng, n, rng.choice([0.02, 0.06, 0.15])))
            spec = kinds[trial % len(kinds)].with_seed(trial)
            cadence = SnapshotCadence(s_every=rng.choice([1, 3, 7]), d_every=rng.choice([None, 4]))
            criterion = CrashCriterion(rng.choice([0.05, 0.2, 0.4]))
            full = run_attack(g, spec, cadence=cadence)
            cut = run_attack(g, spec, cadence=cadence, early_stop=True, criterion=criterion)
            for trace in (full, cut):
                # read off the last row, which a cut moves back with the order
                assert trace.removed_count == sum(len(ids) for _, ids in trace.removals)
            alive = [True] * n
            prev = removed = 0
            want = None  # (kept batches, S) of the first crashed cadence row
            for i, (_, batch) in enumerate([(0, ())] + full.removals):
                for v in batch:
                    alive[v] = False
                removed += len(batch)
                marks = [cadence.s_every] + ([cadence.d_every] if cadence.d_every else [])
                is_row = i == 0 or any(removed // m > prev // m for m in marks)
                prev = removed
                s = len(oracles.largest_component(g.adjacency, alive)) / n
                if is_row and s <= criterion.epsilon:
                    want = (i, s)
                    break
            if want is None:
                assert cut.removals == full.removals
                assert cut.stop_reason == full.stop_reason
                assert cut.snapshots == full.snapshots
                continue
            cuts += 1
            assert cut.stop_reason == STOP_NETWORK_CRASHED
            assert cut.removals == full.removals[: want[0]]
            assert cut.final.step == want[0]
            assert cut.final.giant_fraction == want[1]
            assert cut.snapshots == full.snapshots[: len(cut.snapshots)]
        assert cuts >= 20

    def test_d_rows_are_the_only_full_scans(self, monkeypatch):
        """measure replays nothing, and runs the kernel once per d row."""
        g = generate_ba(BaParams(300, 2, seed=12))
        spec = StrategySpec("random_failure", seed=4)
        no_d = SnapshotCadence(s_every=5, d_every=None)
        trace = run_attack(g, spec, budget=0.4, cadence=no_d)
        record = (trace.order, trace.ends)
        calls = []
        kernel = Graph.avg_shortest_path

        def counted(self, members, live):
            calls.append(sum(live))
            return kernel(self, members, live)

        def replay(*args):
            raise AssertionError("measure replays the removal order")

        monkeypatch.setattr(Graph, "avg_shortest_path", counted)
        monkeypatch.setattr(Graph, "crash_node", replay)
        rows, _, _, _ = measure(g, *record, no_d, CrashCriterion(), False)
        assert len(rows) == 25
        assert calls == []
        with_d = SnapshotCadence(s_every=5, d_every=40)
        rows, _, _, _ = measure(g, *record, with_d, CrashCriterion(), False)
        d_rows = [r.removed_count for r in rows if r.cluster_diameter is not None]
        assert d_rows == [0, 40, 80, 120]
        # live nodes at each d row, in any order: the pass meets the last first
        assert sorted(calls, reverse=True) == [300, 260, 220, 180]
        calls.clear()
        # the first measure that took d filed the intact d on g
        shared, _, _, _ = measure(g, *record, with_d, CrashCriterion(), False)
        assert sorted(calls, reverse=True) == [260, 220, 180]  # none at step 0
        fresh = generate_ba(BaParams(300, 2, seed=12))
        assert shared == rows == measure(fresh, *record, with_d, CrashCriterion(), False)[0]
