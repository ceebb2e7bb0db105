import random

import pytest

import oracles
from netattack import (
    BaParams,
    build_graph,
    degree_histogram,
    generate_ba,
    giant_sizes,
    load_edge_list,
    write_edge_list,
)


class TestBaParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BaParams(n=2, m=2)
        with pytest.raises(ValueError):
            BaParams(n=10, m=0)
        BaParams(n=3, m=2)  # smallest legal pair for m=2

    def test_frozen(self):
        p = BaParams(n=10, m=2)
        with pytest.raises(AttributeError):
            p.n = 20


class TestGenerateBa:
    @pytest.mark.parametrize("n,m", [(3, 2), (10, 1), (50, 2), (200, 3)])
    def test_edge_count_formula(self, n, m):
        g = generate_ba(BaParams(n, m, seed=1))
        assert g.edge_count == m * (m - 1) // 2 + (n - m) * m
        assert g.node_count == n
        assert g.live_count == n

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_adjacency_matches_build_graph(self, m, seed):
        n = 120
        g = generate_ba(BaParams(n, m, seed=seed))
        edges = [(u, v) for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v]
        oracle = build_graph(n, edges)
        assert g.adjacency == oracle.adjacency
        assert (g.dropped_duplicates, g.dropped_self_loops) == (0, 0)
        assert (oracle.dropped_duplicates, oracle.dropped_self_loops) == (0, 0)

    def test_every_node_connected(self):
        g = generate_ba(BaParams(300, 2, seed=3))
        sizes, clusters = giant_sizes(g.adjacency, [], (0,))
        assert sizes == [300]
        assert sorted(clusters[0][0]) == list(range(300))
        assert min(map(len, g.adjacency)) >= 1
        # every non-seed node brought m distinct links of its own
        for v in range(2, 300):
            assert len(g.adjacency[v]) >= 2

    def test_deterministic_per_seed(self):
        a = generate_ba(BaParams(120, 2, seed=9))
        b = generate_ba(BaParams(120, 2, seed=9))
        c = generate_ba(BaParams(120, 2, seed=10))
        assert a.adjacency == b.adjacency
        assert a.adjacency != c.adjacency

    def test_hubs_emerge(self):
        g = generate_ba(BaParams(2000, 2, seed=0))
        # preferential attachment concentrates links far beyond the mean
        assert max(map(len, g.adjacency)) >= 8 * (2 * g.edge_count / g.node_count)


class TestDegreeHistogram:
    def test_counts(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert degree_histogram(g) == {1: 2, 2: 2}
        g.crash_node(0)
        assert degree_histogram(g) == {1: 2, 2: 1}

    def test_keys_ascend_and_count_live_nodes_only(self):
        g = generate_ba(BaParams(300, 2, seed=1))
        for v in random.Random(2).sample(range(300), 120):
            g.crash_node(v)
        got = degree_histogram(g)
        assert list(got) == sorted(got)
        want: dict[int, int] = {}
        for v in range(300):
            if g.alive[v]:
                d = oracles.live_degree(g.adjacency, g.alive, v)
                want[d] = want.get(d, 0) + 1
        assert got == want
        assert sum(got.values()) == 180


class TestEdgeListIo:
    def test_round_trip_preserves_ids(self, tmp_path):
        g = generate_ba(BaParams(60, 2, seed=4))
        path = tmp_path / "net.txt"
        write_edge_list(g, path, comments=("test graph",))
        loaded, labels = load_edge_list(path)
        assert loaded.adjacency == g.adjacency
        assert labels == [str(v) for v in range(60)]
        assert path.read_text().startswith("# test graph\n")

    def test_arbitrary_labels_interned_first_seen(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("# comment line\nbeta alpha\n\nalpha gamma\n")
        g, labels = load_edge_list(path)
        assert labels == ["beta", "alpha", "gamma"]
        assert g.live_neighbors(1) == {0, 2}

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("a b\nc\n")
        with pytest.raises(ValueError, match=r"net.txt:2: expected two labels"):
            load_edge_list(path)

    def test_written_edges_cover_live_subgraph_only(self, tmp_path):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        g.crash_node(3)
        path = tmp_path / "net.txt"
        write_edge_list(g, path)
        loaded, labels = load_edge_list(path)
        assert sorted(map(int, labels)) == [0, 1, 2]
        assert loaded.edge_count == 2
