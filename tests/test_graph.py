import random
import subprocess
import sys
from pathlib import Path

import pytest

import netattack
import oracles
from netattack import CrashCriterion, Graph, SnapshotCadence, build_graph
from netattack import graph as graph_mod
from netattack.metrics import measure


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


class TestBuildGraph:
    def test_dedup_and_self_loops(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)])
        assert g.edge_count == 2
        assert g.dropped_duplicates == 2
        assert g.dropped_self_loops == 1
        assert g.live_neighbors(1) == {0, 2}

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match=r"edge \(0, 3\) has an endpoint outside"):
            build_graph(3, [(0, 3)])

    def test_negative_node_count(self):
        with pytest.raises(ValueError, match="node count"):
            build_graph(-1, [])

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.live_count == 0
        assert g.largest_cluster() == []


class TestCrash:
    def test_lifecycle(self):
        g = path_graph(3)
        assert g.live_count == 3
        g.crash_node(1)
        assert g.live_count == 2
        assert not g.alive[1]
        assert g.live_degree[0] == 0
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

    def test_copy_isolates_state(self):
        g = path_graph(4)
        h = g.copy()
        h.crash_node(0)
        assert g.live_count == 4
        assert h.live_count == 3
        assert g.adjacency is h.adjacency  # topology is shared, state is not


class TestDegreeTracking:
    def test_against_recount_under_random_crashes(self):
        rng = random.Random(5)
        for trial in range(30):
            n = rng.randrange(2, 14)
            g = build_graph(n, oracles.random_edges(rng, n, 0.4))
            order = list(range(n))
            rng.shuffle(order)
            for v in order[: rng.randrange(n)]:
                g.crash_node(v)
            for v in range(n):
                want = oracles.live_degree(g.adjacency, g.alive, v) if g.alive[v] else 0
                assert g.live_degree[v] == want


class TestClusters:
    def test_fraction_uses_original_node_count(self):
        g = path_graph(3)
        cadence = SnapshotCadence(s_every=1)
        rows, _, _ = measure(g, [(1, (1,))], cadence, CrashCriterion(), early_stop=False)
        assert rows[-1].giant_fraction == pytest.approx(1 / 3)
        g.crash_node(1)
        assert sorted(g.largest_cluster()) == [0]

    def test_size_tie_prefers_smallest_contained_id(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert sorted(g.largest_cluster()) == [0, 1]

    def test_against_exhaustive_enumeration(self):
        rng = random.Random(7)
        for trial in range(60):
            n = rng.randrange(1, 13)
            g = build_graph(n, oracles.random_edges(rng, n, 0.3))
            for v in rng.sample(range(n), rng.randrange(n)):
                g.crash_node(v)
            members = g.largest_cluster()
            assert len(members) == len(set(members))
            assert set(members) == oracles.largest_component(g.adjacency, g.alive)


class TestAvgShortestPath:
    def test_path_graph_example(self):
        g = path_graph(3)
        members = g.largest_cluster()
        assert g.avg_shortest_path(members) == pytest.approx(4 / 3)

    def test_pairs_and_singletons(self):
        g = path_graph(3)
        assert g.avg_shortest_path([0]) is None
        assert g.avg_shortest_path([]) is None
        assert g.avg_shortest_path([0, 1]) == pytest.approx(1.0)

    def test_rejects_crashed_and_duplicate_members(self):
        g = path_graph(3)
        g.crash_node(2)
        with pytest.raises(ValueError, match="crashed"):
            g.avg_shortest_path([1, 2])
        with pytest.raises(ValueError, match="duplicate"):
            g.avg_shortest_path([0, 0])

    def test_rejects_disconnected_members(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="more than one live component"):
            g.avg_shortest_path([0, 1, 2])

    def test_matches_floyd_warshall(self):
        rng = random.Random(8)
        for trial in range(25):
            n = rng.randrange(3, 24)
            g = build_graph(n, oracles.random_connected_edges(rng, n))
            for v in rng.sample(range(n), rng.randrange(n // 3 + 1)):
                g.crash_node(v)
            members = g.largest_cluster()
            if len(members) < 2:
                continue
            want = oracles.floyd_warshall_mean(g.adjacency, g.alive, members)
            assert g.avg_shortest_path(members) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "n, chunk_words, min_size",
        [(90, 4, 65), (160, 4, 129), (160, 1, 129)],
    )
    def test_matches_floyd_warshall_across_words_and_chunks(
        self, monkeypatch, n, chunk_words, min_size
    ):
        # 64 sources share a uint64 word; with one word per chunk a
        # cluster of more than 128 members takes three chunks
        monkeypatch.setattr(graph_mod, "_CHUNK_WORDS", chunk_words)
        rng = random.Random(n)
        g = build_graph(n, oracles.random_connected_edges(rng, n, extra=0.03))
        for v in rng.sample(range(n), 5):
            g.crash_node(v)
        members = g.largest_cluster()
        assert len(members) >= min_size
        want = oracles.floyd_warshall_mean(g.adjacency, g.alive, members)
        assert g.avg_shortest_path(members) == pytest.approx(want, abs=1e-9)

    def test_member_subset_paths_run_through_non_members(self):
        g = path_graph(3)
        assert g.avg_shortest_path([0, 2]) == 2.0
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        g.crash_node(0)
        assert g.avg_shortest_path([1, 4]) == 3.0


def test_import_leaves_numpy_unloaded():
    # numpy loads on the first path-length call, so start-up skips it
    code = (
        f"import sys; sys.path.insert(0, {str(Path(netattack.__file__).parents[1])!r}); "
        "import netattack; "
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
