import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        sizes, clusters = giant_sizes(g.adjacency, [], [], (0,), oracles.read_off)
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


# sha256 of generate_ba(BaParams(2000, m, seed)).adjacency, one line of
# space-separated neighbours per node, from the urn drawn through
# Random.randrange; a change to the random stream moves them
BA_DIGESTS = {
    (1, 0): "4a49cd71780891a86cc8cc45188ecbe2ac49779081727549e28704ef801e6f94",
    (1, 1): "8435a203b8a59b136e59350ee9a0ed85c8e99391c376304e9ee7141b3103c7be",
    (1, 2): "ec60b006d898c10efda0e178fdfe5cad003e94dc58ac3ad156bb495bbdeb4ddf",
    (2, 0): "a4ed84cd22a20314d0b1a4492762cf2788fe9c05c061256e9a93da2da3b4da42",
    (2, 1): "bc316b5a9a8d2e0d73a5a60e11dd0db49b2029831074294143a63c80e6e54e64",
    (2, 2): "0729e2a8b0c2cee9f337289cddcc5017df21300d93d633f4891f54a18c7bffb9",
    (3, 0): "e93d374eb58f766552f96f493ab9cdbf70382a4289ee09702be1c00ea10c282c",
    (3, 1): "7f2b5630242a4abaaec98b687764ad60d41a297f3ce05825627e2ac5150c73a5",
    (3, 2): "9f71d01f927e2a5250a3f51ddacdd58d47b27152e076bef0f99f4fedd43fe08f",
}


class TestBaStream:
    def test_direct_draw_is_randrange(self):
        """generate_ba draws an urn slot as getrandbits(size.bit_length()),
        again while it is >= size: Random.randrange(size), draw for draw."""
        sizes = [1, 2, *(2**k + d for k in range(2, 18) for d in (-1, 0, 1)), 10**5]
        for seed in range(3):
            want = random.Random(seed)
            getrandbits = random.Random(seed).getrandbits
            for size in sizes * 20:
                k = size.bit_length()
                r = getrandbits(k)
                while r >= size:
                    r = getrandbits(k)
                assert r == want.randrange(size)

    # m=1 starts from one degree-0 node, whose urn entry is replaced
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjacency_digest_pinned(self, m, seed):
        g = generate_ba(BaParams(2000, m, seed=seed))
        text = "\n".join(" ".join(map(str, row)) for row in g.adjacency)
        assert hashlib.sha256(text.encode()).hexdigest() == BA_DIGESTS[m, seed]


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

    def test_load_holds_about_the_graph(self, tmp_path):
        """Loading 10k nodes peaks at no more than twice what the graph and
        labels keep: no copy per edge lives beside the rows."""
        path = tmp_path / "net.txt"
        write_edge_list(generate_ba(BaParams(10_000, 2, seed=0)), path)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            g, labels = load_edge_list(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (g.node_count, g.edge_count, len(labels)) == (10_000, 19_997, 10_000)
        assert peak - before <= 2 * (kept - before)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lines_match_the_sorted_pairs(self, tmp_path_factory, data):
        """Lines read off the ascending rows are the ones the sorted-pairs
        rule writes: each live edge as (max, min), sorted, written "min max"."""
        n = data.draw(st.integers(1, 12))
        node = st.integers(0, n - 1)
        g = build_graph(n, data.draw(st.lists(st.tuples(node, node), max_size=30)))
        for v in data.draw(st.sets(node)):
            g.crash_node(v)
        pairs = sorted(
            (u, v)
            for v in range(n)
            if g.alive[v]
            for u in g.adjacency[v]
            if u > v and g.alive[u]
        )
        path = tmp_path_factory.mktemp("edges") / "net.txt"
        write_edge_list(g, path, comments=("c",))
        want = "# c\n" + "".join(f"{lo} {hi}\n" for hi, lo in pairs)
        assert path.read_text(encoding="utf-8") == want

    def test_written_edges_cover_live_subgraph_only(self, tmp_path):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        g.crash_node(3)
        path = tmp_path / "net.txt"
        write_edge_list(g, path)
        loaded, labels = load_edge_list(path)
        assert sorted(map(int, labels)) == [0, 1, 2]
        assert loaded.edge_count == 2


# 7000 valid edge lines (about 90 KiB) to put before a generated text,
# so its lines and line numbers come long after the file's start
_PAD = "".join(f"p{i} p{i + 1}\n" for i in range(7000))
_LABEL = st.text(
    st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace()),
    min_size=1,
    max_size=4,
)
_BLANK = st.text(" \t", max_size=2)
_GAP = st.text(" \t", min_size=1, max_size=2)
_COMMENT_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=6
)


@st.composite
def edge_list_text(draw):
    """Edge-list file text: edges over a few labels (so duplicates in
    both orientations and self-loops), blank and whitespace-only lines,
    '#' lines with and without indent, tabs, LF and CRLF endings, and at
    times a line of one or three labels, possibly after the padding."""
    labels = draw(st.lists(_LABEL, min_size=1, max_size=4, unique=True))
    label = st.sampled_from(labels)
    pairs = draw(st.lists(st.tuples(label, label), min_size=1, max_size=4))
    edge = st.builds(
        lambda pre, ab, flip, gap, post: f"{pre}{ab[flip]}{gap}{ab[1 - flip]}{post}",
        _BLANK, st.sampled_from(pairs), st.integers(0, 1), _GAP, _BLANK,
    )
    comment = st.builds(lambda pre, text: f"{pre}#{text}", _BLANK, _COMMENT_TEXT)
    malformed = st.lists(label, min_size=1, max_size=3).filter(lambda t: len(t) != 2).map(" ".join)
    lines = draw(
        st.lists(
            st.one_of(edge, edge, _BLANK, comment, malformed if draw(st.booleans()) else edge),
            max_size=25,
        )
    )
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no newline after the last line
    return (_PAD if draw(st.booleans()) else "") + text


class TestEdgeListOracle:
    @settings(max_examples=200, deadline=None)
    @given(edge_list_text())
    def test_matches_line_by_line_reader(self, tmp_path_factory, text):
        """Same adjacency, labels and drop counts as a line-by-line read,
        or the same ValueError naming the same line."""
        path = tmp_path_factory.mktemp("edges") / "net.txt"
        path.write_bytes(text.encode("utf-8"))

        def outcome(read):
            try:
                return read()
            except ValueError as exc:
                return str(exc)

        def fast():
            g, labels = load_edge_list(path)
            return g.adjacency, labels, g.dropped_duplicates, g.dropped_self_loops

        assert outcome(fast) == outcome(lambda: oracles.read_edge_list(path))

    def test_label_counts_that_offset_still_fail(self, tmp_path):
        # one label and three labels add up to two lines' worth
        path = tmp_path / "net.txt"
        path.write_text("a b\nc\nd e f\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"net.txt:2: expected two labels, got 1"):
            load_edge_list(path)

    def test_malformed_line_past_the_first_block(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(_PAD + "# tail\na b c\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"net.txt:7002: expected two labels, got 3"):
            load_edge_list(path)
        path.write_text(_PAD + "a b # c\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"net.txt:7001: expected two labels, got 4"):
            load_edge_list(path)
