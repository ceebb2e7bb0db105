import dataclasses
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netattack
import oracles
from netattack import CrashCriterion, Graph, SnapshotCadence, build_graph
from netattack import distance
from netattack.experiment import ExperimentConfig, run_trials
from netattack.metrics import giant_sizes, measure

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


class TestBuildGraph:
    def test_dedup_and_self_loops(self, caplog):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)])
        assert g.edge_count == 2
        assert g.dropped_duplicates == 2
        assert g.dropped_self_loops == 1
        assert g.live_neighbors(1) == {0, 2}
        # logging is imported for this warning only
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("netattack.graph", "WARNING", "dropped 2 duplicate edge(s) and 1 self-loop(s)")
        ]

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match=r"edge \(0, 3\) has an endpoint outside"):
            build_graph(3, [(0, 3)])

    def test_negative_node_count(self):
        with pytest.raises(ValueError, match="node count"):
            build_graph(-1, [])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_neighbour_set_oracle(self, data):
        """Same rows, drop counts and out-of-range error as one neighbour
        set per node, with duplicates in both orientations and self-loops."""
        n = data.draw(st.integers(0, 12), label="n")
        ids = st.integers(0, max(n - 1, 0))
        edges = data.draw(st.lists(st.tuples(ids, ids), max_size=40 if n else 0), label="edges")
        if data.draw(st.booleans(), label="stray endpoint"):
            stray = data.draw(st.sampled_from([(-1, 0), (0, n), (n + 3, -2)]), label="stray")
            edges.insert(data.draw(st.integers(0, len(edges)), label="at"), stray)

        def outcome(build):
            try:
                return build()
            except ValueError as exc:
                return str(exc)

        want = outcome(lambda: oracles.build_adjacency(n, edges))
        got = outcome(lambda: build_graph(n, iter(edges)))
        if isinstance(got, Graph):
            got = (got.adjacency, got.dropped_duplicates, got.dropped_self_loops)
        assert got == want

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.live_count == 0
        assert giant_sizes(g.adjacency, [], [], (0,), oracles.read_off) == ([0], {0: ([], b"")})


class TestCrash:
    def test_lifecycle(self):
        g = path_graph(3)
        assert g.live_count == 3
        g.crash_node(1)
        assert g.live_count == 2
        assert not g.alive[1]
        assert oracles.live_degree(g.adjacency, g.alive, 0) == 0
        assert g.live_neighbors(0) == set()
        # neighbors of a crashed node are still queryable
        assert g.live_neighbors(1) == {0, 2}

    def test_double_crash_rejected(self):
        g = path_graph(3)
        g.crash_node(1)
        with pytest.raises(ValueError, match="already crashed"):
            g.crash_node(1)

    def test_bad_id_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="outside"):
            g.crash_node(3)
        with pytest.raises(ValueError, match="outside"):
            g.live_neighbors(-1)


class TestDegreeTracking:
    def test_against_recount_under_random_crashes(self):
        rng = random.Random(5)
        for trial in range(30):
            n = rng.randrange(2, 14)
            g = build_graph(n, oracles.random_edges(rng, n, 0.4))
            order = list(range(n))
            rng.shuffle(order)
            crashed = order[: rng.randrange(n)]
            for v in crashed:
                g.crash_node(v)
            assert g.live_count == n - len(crashed)
            for v in range(n):
                assert g.alive[v] == (v not in crashed)
                want = oracles.live_degree(g.adjacency, g.alive, v)
                assert len(g.live_neighbors(v)) == want


def clusters_at_every_step(g: Graph, removals) -> dict:
    """The pass's (members, live mask) after each batch of ``removals``."""
    steps = range(len(removals) + 1)
    return giant_sizes(g.adjacency, *oracles.flat(removals), steps, oracles.read_off)[1]


class TestClusters:
    def test_fraction_uses_original_node_count(self):
        g = path_graph(3)
        cadence = SnapshotCadence(s_every=1, d_every=None)
        rows, _, _, _ = measure(g, [1], [1], cadence, CrashCriterion(), early_stop=False)
        assert rows[-1].giant_fraction == pytest.approx(1 / 3)
        members, live = clusters_at_every_step(g, [(1, (1,))])[1]
        assert (sorted(members), live) == ([0], b"\x01\x00\x01")

    def test_size_tie_prefers_smallest_contained_id(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert sorted(clusters_at_every_step(g, [])[0][0]) == [0, 1]
        # the union-find roots are 4 for {0, 4, 5} and 2 for {1, 2, 3}, so
        # the smallest member decides the tie, not the smallest root
        g = build_graph(6, [(0, 4), (4, 5), (1, 2), (2, 3)])
        clusters = clusters_at_every_step(g, [(1, (4,)), (2, (2,))])
        assert sorted(clusters[0][0]) == [0, 4, 5]
        assert sorted(clusters[1][0]) == [1, 2, 3]
        assert clusters[2][0] == [0]  # four single nodes

    def test_against_exhaustive_enumeration(self):
        rng = random.Random(7)
        for trial in range(60):
            n = rng.randrange(1, 13)
            g = build_graph(n, oracles.random_edges(rng, n, 0.3))
            order = rng.sample(range(n), rng.randrange(n + 1))
            removals = [(i + 1, (v,)) for i, v in enumerate(order)]
            clusters = clusters_at_every_step(g, removals)
            alive = [True] * n
            for step, batch in [(0, ())] + removals:
                for v in batch:
                    alive[v] = False
                members, live = clusters[step]
                assert list(live) == alive
                assert len(members) == len(set(members))
                assert set(members) == oracles.largest_component(g.adjacency, alive)


def whole_cluster(g: Graph) -> list[int]:
    """The oracle's largest live cluster of ``g``, in ascending ids."""
    return sorted(oracles.largest_component(g.adjacency, g.alive))


class TestAvgShortestPath:
    def test_path_graph_example(self):
        g = path_graph(3)
        assert g.avg_shortest_path(whole_cluster(g), g.alive) == pytest.approx(4 / 3)

    def test_pairs_and_singletons(self):
        g = path_graph(3)
        assert g.avg_shortest_path([0], g.alive) is None
        assert g.avg_shortest_path([], g.alive) is None
        g = path_graph(2)
        assert g.avg_shortest_path([0, 1], g.alive) == pytest.approx(1.0)

    def test_rejects_crashed_and_duplicate_members(self):
        g = path_graph(3)
        g.crash_node(2)
        # through the forwarder and at the kernel entry itself
        for mean_path in (g.avg_shortest_path, partial(distance.avg_shortest_path, g.adjacency)):
            with pytest.raises(ValueError, match="member 2 is crashed"):
                mean_path([1, 2], g.alive)
            with pytest.raises(ValueError, match="member 2 is crashed"):
                mean_path([2], g.alive)
            with pytest.raises(ValueError, match="duplicate"):
                mean_path([0, 0], g.alive)
            with pytest.raises(ValueError, match="duplicate"):
                mean_path([0, 1, 0], g.alive)

    def test_rejects_a_live_mask_of_another_length(self):
        g = path_graph(4)
        for mean_path in (g.avg_shortest_path, partial(distance.avg_shortest_path, g.adjacency)):
            for live in ([True] * 3, [True] * 5, b""):
                for members in ([0, 1, 2], [0], []):
                    match = rf"live holds {len(live)} flags for 4 nodes"
                    with pytest.raises(ValueError, match=match):
                        mean_path(members, live)

    def test_rejects_ids_outside_the_graph(self):
        g = path_graph(3)
        # -1 would index node 2, a live neighbour of 1
        for members in ([1, -1], [-1], [0, 3], [3]):
            bad = members[-1]
            with pytest.raises(ValueError, match=rf"node id {bad} outside \[0, 3\)"):
                g.avg_shortest_path(members, g.alive)

    def test_rejects_disconnected_members(self):
        cases = [
            (3, [(0, 1), (1, 2)], [0, 1]),  # part of a cluster
            (4, [(0, 1), (2, 3)], [0, 1, 2]),  # a cluster and part of another
            (4, [(0, 1), (2, 3)], [0, 1, 2, 3]),  # two separate clusters
            (3, [], [0, 1]),  # two isolated live nodes: empty CSR rows
            (3, [(1, 2)], [0, 1, 2]),  # an isolated node and a cluster
            (4, [(0, 1), (1, 2)], [0, 1, 2, 3]),  # the isolated node has the top id
        ]
        for n, edges, members in cases:
            g = build_graph(n, edges)
            for live in (g.alive, bytes(g.alive)):
                with pytest.raises(ValueError, match="not one whole live cluster"):
                    g.avg_shortest_path(members, live)
        # a member whose only neighbour is crashed is isolated too
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        g.crash_node(1)
        for live in (g.alive, bytes(g.alive)):
            with pytest.raises(ValueError, match="not one whole live cluster"):
                g.avg_shortest_path([0, 2, 3], live)

    def test_matches_floyd_warshall(self):
        rng = random.Random(8)
        for trial in range(25):
            n = rng.randrange(3, 24)
            g = build_graph(n, oracles.random_connected_edges(rng, n))
            for v in rng.sample(range(n), rng.randrange(n // 3 + 1)):
                g.crash_node(v)
            members = whole_cluster(g)
            if len(members) < 2:
                continue
            want = oracles.floyd_warshall_mean(g.adjacency, g.alive, members)
            assert g.avg_shortest_path(members, g.alive) == want

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_cluster_matches_floyd_warshall(self, data):
        n = data.draw(st.integers(2, 40))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
        g = build_graph(n, edges)
        for v in data.draw(st.lists(st.integers(0, n - 1), unique=True)):
            g.crash_node(v)
        live = bytes(g.alive)
        for members in oracles.components(g.adjacency, g.alive):
            want = None
            if len(members) >= 2:
                want = oracles.floyd_warshall_mean(g.adjacency, g.alive, members)
            assert g.avg_shortest_path(sorted(members), live) == want

    @pytest.mark.parametrize(
        "n, chunk_words, min_size",
        [(90, 4, 65), (160, 4, 129), (160, 1, 129), (160, 2, 129), (160, 16, 129)],
    )
    def test_matches_floyd_warshall_across_words_and_chunks(
        self, monkeypatch, n, chunk_words, min_size
    ):
        # 64 sources share a uint64 word; with one word per chunk a
        # cluster of more than 128 members takes three chunks, with two
        # words a full chunk and a one-word chunk, with sixteen one chunk
        monkeypatch.setattr(distance, "_CHUNK_WORDS", chunk_words)
        rng = random.Random(n)
        # nodes n and n + 1 form a separate two-node cluster
        edges = oracles.random_connected_edges(rng, n, extra=0.03) + [(n, n + 1)]
        g = build_graph(n + 2, edges)
        for v in rng.sample(range(n), 5):
            g.crash_node(v)
        members = whole_cluster(g)
        assert len(members) >= min_size
        want = oracles.floyd_warshall_mean(g.adjacency, g.alive, members)
        assert g.avg_shortest_path(members, g.alive) == want
        # every chunk's searches miss the other cluster, the last chunk's too
        with pytest.raises(ValueError, match="not one whole live cluster"):
            g.avg_shortest_path([*members, n, n + 1], g.alive)

    @pytest.mark.parametrize("columns", [1, 2])
    def test_hub_tails_match_floyd_warshall(self, monkeypatch, columns):
        # with one or two sliced columns most members of a small graph
        # are hubs, whose further neighbours take the OR-reduce
        monkeypatch.setattr(distance, "_COLUMNS", columns)
        rng = random.Random(columns)
        for trial in range(30):
            n = rng.randrange(3, 30)
            g = build_graph(n, oracles.random_connected_edges(rng, n, extra=0.15))
            for v in rng.sample(range(n), rng.randrange(n // 3 + 1)):
                g.crash_node(v)
            members = whole_cluster(g)
            if len(members) < 2:
                continue
            want = oracles.floyd_warshall_mean(g.adjacency, g.alive, members)
            for live in (g.alive, bytes(g.alive)):
                assert g.avg_shortest_path(members, live) == want

    @pytest.mark.parametrize("columns", [1, 2, distance._COLUMNS])
    def test_star_centre_past_the_cap(self, monkeypatch, columns):
        monkeypatch.setattr(distance, "_COLUMNS", columns)
        leaves = columns + 4
        # centre 0, leaves 1..leaves, and a tail of two nodes off the last leaf
        star = [(0, v) for v in range(1, leaves + 1)]
        tail = [(leaves, leaves + 1), (leaves + 1, leaves + 2)]
        for edges in (star, star + tail):
            g = build_graph(len(edges) + 1, edges)
            assert len(g.adjacency[0]) > columns
            members = range(g.node_count)
            want = oracles.floyd_warshall_mean(g.adjacency, g.alive, members)
            for live in (g.alive, bytes(g.alive)):
                assert g.avg_shortest_path(members, live) == want

    @pytest.mark.parametrize("k", [255, 256, 257])
    def test_chunk_boundary_matches_floyd_warshall(self, k):
        # 256 sources fill a chunk, so these clusters take one chunk, one
        # full chunk, and a full chunk plus a one-source chunk
        assert 64 * distance._CHUNK_WORDS == 256
        rng = random.Random(k)
        edges = oracles.random_connected_edges(rng, k, extra=0.004)
        # node k is a crashed neighbour of some members
        edges += [(v, k) for v in rng.sample(range(k), 5)]
        g = build_graph(k + 1, edges)
        g.crash_node(k)
        members = range(k)
        want = oracles.floyd_warshall_mean(g.adjacency, g.alive, members)
        for live in (g.alive, bytes(g.alive)):
            assert g.avg_shortest_path(members, live) == want

    def test_member_subset_paths_run_through_non_members(self):
        # the kernel takes whole clusters only: a subset whose paths would
        # run through live non-members is rejected, not measured
        g = path_graph(3)
        with pytest.raises(ValueError, match="not one whole live cluster"):
            g.avg_shortest_path([0, 2], g.alive)
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        g.crash_node(0)
        with pytest.raises(ValueError, match="not one whole live cluster"):
            g.avg_shortest_path([1, 4], g.alive)
        assert g.avg_shortest_path([1, 2, 3, 4], g.alive) == 20 / 12


@st.composite
def pendant_clusters(draw):
    """(node count, edges, crashed id) of one cluster: a core, then pendant trees.

    The core is one node, a cycle, or a cycle with chords through node 0
    (a hub). Each later node hangs off an earlier one: the one before it
    (chains), node 0 (stars) or any. Node ids are shuffled, and one extra
    node, crashed by the caller, borders a few members.
    """
    core = draw(st.sampled_from(["node", "cycle", "hub"]), label="core")
    c = 1 if core == "node" else draw(st.integers(3, 10), label="core size")
    edges = [] if core == "node" else [(v, (v + 1) % c) for v in range(c)]
    if core == "hub":
        edges += [(0, v) for v in range(2, c - 1)]
    hangs = draw(st.lists(st.sampled_from(["chain", "star", "any"]), max_size=30), label="hangs")
    picks = draw(st.lists(st.integers(0, 10**6), min_size=len(hangs), max_size=len(hangs)))
    for v, (hang, pick) in enumerate(zip(hangs, picks), start=c):
        edges.append((v - 1 if hang == "chain" else 0 if hang == "star" else pick % v, v))
    k = c + len(hangs)
    crashed_neighbours = [(k, pick % k) for pick in picks[:3]]
    perm = draw(st.permutations(range(k + 1)), label="ids")
    return k + 1, [(perm[u], perm[v]) for u, v in edges + crashed_neighbours], perm[k]


class TestFold:
    """Pendant trees fold into the 2-core before the searches run."""

    @settings(max_examples=300, deadline=None)
    @given(pendant_clusters(), st.sampled_from([1, 2, 4, 16]), st.sampled_from([1, 2, 6]))
    def test_matches_floyd_warshall(self, cluster, chunk_words, columns):
        # trees and stars, cycles with pendant chains, a core of one node
        # and k = 2 and 3; one chunk holds every weight plane, or each
        # plane takes its own; with one or two sliced columns the core's
        # hubs take the OR-reduce
        n, edges, crashed = cluster
        g = build_graph(n, edges)
        g.crash_node(crashed)
        members = whole_cluster(g)
        want = None
        if len(members) >= 2:
            want = oracles.floyd_warshall_mean(g.adjacency, g.alive, members)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distance, "_FOLD_SHARE", 0.0)
            mp.setattr(distance, "_CHUNK_WORDS", chunk_words)
            mp.setattr(distance, "_COLUMNS", columns)
            assert g.avg_shortest_path(members, bytes(g.alive)) == want

    @pytest.mark.parametrize("chunk_words", [1, 2, 4, 16])
    def test_weight_planes_across_words_and_chunks(self, monkeypatch, chunk_words):
        # a cycle of 80 with a leaf on every eighth node: 70 core nodes of
        # weight 1 fill plane 0 past one word, 10 of weight 2 fill plane 1;
        # with one word per chunk the three words take three chunks, with
        # two the first chunk holds plane 0 and the second plane 1
        monkeypatch.setattr(distance, "_CHUNK_WORDS", chunk_words)
        rng = random.Random(80)
        edges = [(v, (v + 1) % 80) for v in range(80)]
        edges += [(8 * i, 80 + i) for i in range(10)]
        edges += [(rng.randrange(80), rng.randrange(80)) for _ in range(6)]
        g = build_graph(90, edges)
        assert sum(len(nbrs) == 1 for nbrs in g.adjacency) / 90 >= distance._FOLD_SHARE
        members = range(90)
        want = oracles.floyd_warshall_mean(g.adjacency, g.alive, members)
        assert g.avg_shortest_path(members, g.alive) == want

    @pytest.mark.parametrize("share", [0.0, distance._FOLD_SHARE])
    def test_rejects_what_the_plain_kernel_rejects(self, monkeypatch, share):
        monkeypatch.setattr(distance, "_FOLD_SHARE", share)
        # a 4-cycle with a pendant chain of two on node 0, then separate
        # clusters from node 6 on
        core = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)]
        separate = {
            "a two-node cluster": [(6, 7)],
            "a three-node path": [(6, 7), (7, 8)],
            "a star": [(6, 7), (6, 8), (6, 9)],
            "a cycle": [(6, 7), (7, 8), (8, 6)],
        }
        for edges in separate.values():
            g = build_graph(10, core + edges)
            members = sorted({v for edge in core + edges for v in edge})
            with pytest.raises(ValueError, match="not one whole live cluster"):
                g.avg_shortest_path(members, g.alive)
        # two paths of three: each folds down to one node, apart from the other
        g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        with pytest.raises(ValueError, match="not one whole live cluster"):
            g.avg_shortest_path(range(6), g.alive)
        g = build_graph(7, core)
        with pytest.raises(ValueError, match="duplicate member ids"):
            g.avg_shortest_path([0, 1, 2, 3, 4, 5, 4], g.alive)
        # node 6 is an isolated member
        with pytest.raises(ValueError, match="not one whole live cluster"):
            g.avg_shortest_path(range(7), g.alive)

    def test_matches_the_plain_kernel_on_the_shipped_d_rows(self, monkeypatch):
        """Every d row of ba_intentional_vs_random at graph seeds 0 and 1
        gives the plain kernel's exact hop total, folded or not."""
        config = ExperimentConfig.from_file(CONFIGS / "ba_intentional_vs_random.json")
        rows = []
        kernel = Graph.avg_shortest_path

        def recording(g, members, live):
            d = kernel(g, members, live)
            rows.append((g, members, live, d))
            return d

        monkeypatch.setattr(Graph, "avg_shortest_path", recording)
        run_trials(dataclasses.replace(config, trials=2))
        folded = 0
        for g, members, live, d in rows:
            k = len(members)
            if k < 2:
                assert d is None
                continue
            leaves = sum(sum(live[u] for u in g.adjacency[v]) == 1 for v in members.tolist())
            folded += leaves >= distance._FOLD_SHARE * k
            assert d == oracles.bit_parallel_pair_sum(g.adjacency, members, live) / (k * (k - 1))
        assert len(rows) == 22
        assert folded >= 10


def test_import_leaves_numpy_unloaded(tmp_path):
    # numpy and the distance kernel load on the first d row, so start-up
    # and a d-free sweep of every kind and protection rule skip them, and
    # such a sweep runs the same where numpy is not installed; statistics
    # would pull in fractions and decimal; logging loads only to warn of
    # dropped edges
    config = {
        "network": {"ba": {"n": 300, "m": 2}},
        "strategies": [
            {"kind": "intentional"},
            {"kind": "random_failure"},
            {"kind": "greedy_sequential"},
            {"kind": "coordinated"},
            {"kind": "lower_bounded_parallel", "threshold": 4},
            {"kind": "intentional", "protected": {"kind": "miss_biggest_hub"}},
            {"kind": "intentional", "protected": {"kind": "miss_medium_band", "miss_frac": 0.5}},
        ],
        "trials": 2,
        "snapshot_cadence": {"s_every": 10, "d_every": None},
        "plots": True,
    }
    code = (
        f"import sys; sys.path.insert(0, {str(Path(netattack.__file__).parents[1])!r}); "
        "import netattack; "
        "heavy = lambda: sorted({'numpy', 'scipy', 'statistics', 'logging', 'netattack.distance'}"
        " & set(sys.modules)); "
        "print(heavy()); "
        f"config = netattack.ExperimentConfig.from_json({config!r}); "
        f"netattack.run_experiment(config, output_dir={str(tmp_path / 'out')!r}); "
        "print(heavy())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["[]", "[]"]
    assert len(list((tmp_path / "out").glob("*.curve.csv"))) == 7
