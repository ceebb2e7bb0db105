import random
import statistics
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from netattack import (
    AttackTrace,
    BaParams,
    CrashCriterion,
    CurvePoint,
    MetricsRow,
    SnapshotCadence,
    StrategySpec,
    build_graph,
    crash_threshold,
    curve_export,
    generate_ba,
    giant_sizes,
    run_attack,
    snapshot,
    write_curve_csv,
)
from netattack.metrics import _nearest_row, _pstdev, mean_std, measure, write_table


def row(f: float, s: float, d=None) -> MetricsRow:
    return MetricsRow(
        step=int(f * 100),
        removed_count=int(f * 100),
        fraction_removed=f,
        giant_fraction=s,
        cluster_diameter=d,
    )


def trace(rows, key="intentional", n=100) -> AttackTrace:
    return AttackTrace(
        total_nodes=n,
        strategy_key=key,
        removals=[],
        snapshots=list(rows),
        stop_reason="budget_exhausted",
    )


class TestCrashCriterion:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrashCriterion(0.0)
        with pytest.raises(ValueError):
            CrashCriterion(1.0)

    def test_crashed_is_at_or_below(self):
        c = CrashCriterion(0.01)
        assert c.crashed(0.01)
        assert c.crashed(0.005)
        assert not c.crashed(0.0101)


class TestSnapshot:
    def test_fields(self):
        g = build_graph(4, [(0, 1), (1, 2)])
        cadence = SnapshotCadence(s_every=1, d_every=1)
        rows, kept, exact, _ = measure(g, [(1, (3,))], cadence, CrashCriterion(), False)
        r = rows[-1]
        assert r.step == 1
        assert r.removed_count == 1
        assert r.fraction_removed == pytest.approx(0.25)
        assert r.giant_fraction == pytest.approx(0.75)
        assert r.cluster_diameter == pytest.approx((1 + 1 + 2) * 2 / 6)
        assert (kept, exact) == (None, None)
        g.crash_node(3)
        assert snapshot(g) == r.cluster_diameter

    def test_diameter_opt_out_and_tiny_cluster(self):
        g = build_graph(2, [(0, 1)])
        no_d = SnapshotCadence(s_every=1, d_every=None)
        rows, _, _, _ = measure(g, [(1, (1,))], no_d, CrashCriterion(), False)
        assert [r.cluster_diameter for r in rows] == [None, None]
        rows, _, _, _ = measure(g, [(1, (1,))], SnapshotCadence(1, 1), CrashCriterion(), False)
        assert rows[0].cluster_diameter == 1.0
        assert rows[1].cluster_diameter is None
        g.crash_node(1)
        assert snapshot(g) is None
        g.crash_node(0)
        assert snapshot(g) is None  # no live node at all

    def test_size_tie_goes_to_the_cluster_with_the_smallest_id(self):
        # a triangle (d = 1) and a three-node path (d = 4/3), joined
        # through node 6 until it falls
        cadence = SnapshotCadence(s_every=1, d_every=1)
        for triangle, path, want in (((0, 4, 5), (1, 2, 3), 1.0), ((1, 4, 5), (0, 2, 3), 4 / 3)):
            a, b, c = triangle
            p, q, r = path
            g = build_graph(7, [(a, b), (b, c), (a, c), (p, q), (q, r), (c, 6), (6, r)])
            rows, _, _, _ = measure(g, [(1, (6,))], cadence, CrashCriterion(), False)
            assert rows[1].giant_fraction == 3 / 7
            assert rows[1].cluster_diameter == want
            g.crash_node(6)
            assert snapshot(g) == want


def batched(order: list[int], cuts: list[int]) -> list[tuple[int, tuple[int, ...]]]:
    """``order`` split at ``cuts`` into (step, batch) pairs, as a trace holds them."""
    bounds = sorted({c for c in cuts if 0 < c < len(order)}) + [len(order)]
    out, lo = [], 0
    for hi in bounds:
        if hi > lo:
            out.append((len(out) + 1, tuple(order[lo:hi])))
        lo = hi
    return out


@st.composite
def graphs_and_orders(draw):
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    order = draw(st.permutations(range(n)))
    order = order[: draw(st.integers(0, n))]
    cuts = draw(st.lists(st.integers(0, n), max_size=n))
    return n, edges, batched(list(order), cuts)


class TestGiantSizes:
    @settings(max_examples=300, deadline=None)
    @given(graphs_and_orders())
    def test_matches_oracle_after_every_step(self, case):
        n, edges, removals = case
        g = build_graph(n, edges)
        steps = range(len(removals) + 1)
        sizes, clusters = giant_sizes(g.adjacency, removals, steps, oracles.read_off)
        assert len(sizes) == len(removals) + 1
        assert giant_sizes(g.adjacency, removals, (), oracles.read_off) == (sizes, {})
        alive = [True] * n
        for i, (_, batch) in enumerate([(0, ())] + removals):
            for v in batch:
                alive[v] = False
            want = oracles.largest_component(g.adjacency, alive)
            assert sizes[i] == len(want)
            members, live = clusters[i]
            assert members == sorted(want)
            assert list(live) == alive

    def test_rejects_a_node_removed_twice(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="node 1 is removed twice"):
            giant_sizes(g.adjacency, [(1, (1,)), (2, (2, 1))], (), oracles.read_off)

    @pytest.mark.parametrize("kind", ["intentional", "random_failure"])
    def test_read_off_at_depth_matches_oracle(self, kind):
        # the hypothesis graphs (n <= 14) build parent chains so short that
        # a read-off with one jump passes them; a whole BA n=2000 order
        # does not, and its last step leaves no live node
        g = generate_ba(BaParams(2000, 2, seed=21))
        spec = StrategySpec(kind, seed=3)
        removals = run_attack(g, spec, cadence=SnapshotCadence(d_every=None)).removals
        assert len(removals) == 2000
        steps = range(0, 2001, 100)
        sizes, clusters = giant_sizes(g.adjacency, removals, steps, oracles.read_off)
        assert sorted(clusters) == list(steps)
        alive = [True] * 2000
        for step, batch in [(0, ())] + removals:
            for v in batch:
                alive[v] = False
            if step in clusters:
                want = oracles.largest_component(g.adjacency, alive)
                members, live = clusters[step]
                assert sizes[step] == len(want)
                assert members == sorted(want)
                assert list(live) == alive
        assert clusters[2000] == ([], bytes(2000))


class TestMeasureD:
    @settings(max_examples=300, deadline=None)
    @given(
        graphs_and_orders(),
        st.integers(1, 6),
        st.integers(1, 4),
        st.booleans(),
        st.sampled_from([0.1, 0.3, 0.6]),
    )
    def test_every_d_row_matches_floyd_warshall(self, case, s_every, d_every, early_stop, eps):
        n, edges, removals = case
        assume(n > 0)
        g = build_graph(n, edges)
        args = (SnapshotCadence(s_every, d_every), CrashCriterion(eps), early_stop)
        rows, _, _, _ = measure(g, removals, *args)
        assert measure(g, removals, *args, intact_d=snapshot(g))[0] == rows
        by_step = {row.step: row for row in rows}
        final = rows[-1].step
        alive = [True] * n
        removed = 0
        for step, batch in [(0, ())] + removals[:final]:
            after = removed + len(batch)
            d_mark = after // d_every > removed // d_every
            for v in batch:
                alive[v] = False
            removed += len(batch)
            if step not in by_step:
                continue
            members = oracles.largest_component(g.adjacency, alive)
            want = None
            if len(members) >= 2:
                want = oracles.floyd_warshall_mean(g.adjacency, alive, members)
            # d at step 0, at d marks, and at the last step of the order
            due = step == 0 or d_mark or step == len(removals)
            # exact: an integer total over k(k-1)
            assert by_step[step].cluster_diameter == (want if due else None)

    def test_last_step_gets_d_when_it_is_an_s_mark_only(self):
        # a 10-node path cut one node a step for 5 steps: step 5 crosses
        # the s mark but no d mark, and still gets d as the last step
        g = build_graph(10, [(i, i + 1) for i in range(9)])
        removals = [(i + 1, (i,)) for i in range(5)]
        cadence = SnapshotCadence(s_every=5, d_every=3)
        rows, _, _, _ = measure(g, removals, cadence, CrashCriterion(), False)
        assert [row.step for row in rows] == [0, 3, 5]
        alive = [v >= 5 for v in range(10)]
        want = oracles.floyd_warshall_mean(g.adjacency, alive, range(5, 10))
        assert rows[-1].cluster_diameter == want == 2.0


class TestExactCrashThreshold:
    def test_first_step_at_or_below_epsilon(self):
        # a 20-node path cut from the left in batches; rows every 6 removals
        rng = random.Random(3)
        g = build_graph(20, [(i, i + 1) for i in range(19)])
        removals = batched(list(range(20)), sorted(rng.sample(range(1, 20), 8)))
        criterion = CrashCriterion(0.25)
        alive = [True] * 20
        removed = 0
        want = None
        for _, batch in [(0, ())] + removals:
            for v in batch:
                alive[v] = False
            removed += len(batch)
            s = len(oracles.largest_component(g.adjacency, alive)) / 20
            if want is None and s <= 0.25:
                want = removed / 20
        cadence = SnapshotCadence(s_every=6, d_every=None)
        rows, _, exact, _ = measure(g, removals, cadence, criterion, False)
        assert exact == want
        # the interpolated threshold reads only the rows, the exact one every step
        assert want not in [r.fraction_removed for r in rows]
        _, _, never, _ = measure(g, removals[:2], cadence, criterion, False)
        assert never is None
        apart = build_graph(20, [])
        _, _, at_once, _ = measure(apart, removals, cadence, criterion, False)
        assert at_once == 0.0


@st.composite
def falling_rows(draw):
    """Rows as a trace holds them on an n-node graph: f rises, S never does."""
    n = draw(st.integers(1, 10**6))
    counts = sorted(set(draw(st.lists(st.integers(0, n), min_size=1, max_size=8))))
    sizes = draw(st.lists(st.integers(0, n), min_size=len(counts), max_size=len(counts)))
    sizes.sort(reverse=True)
    return [
        MetricsRow(i, c, c / n, s / n, None) for i, (c, s) in enumerate(zip(counts, sizes))
    ]


class TestCrashThreshold:
    def test_exact_interpolation(self):
        t = trace([row(0.0, 1.0), row(0.10, 0.21), row(0.20, 0.01)])
        # crossing between f=0.10 (s=0.21) and f=0.20 (s=0.01)
        want = 0.10 + (0.21 - 0.01) * (0.20 - 0.10) / (0.21 - 0.01)
        assert crash_threshold(t, CrashCriterion(0.01)) == pytest.approx(want)

    def test_first_row_already_crashed(self):
        t = trace([row(0.0, 0.005), row(0.1, 0.004)])
        assert crash_threshold(t, CrashCriterion(0.01)) == 0.0

    def test_flat_segment_guard(self):
        t = trace([row(0.0, 0.01), row(0.1, 0.01)])
        assert crash_threshold(t, CrashCriterion(0.01)) == 0.0

    def test_never_crosses(self):
        t = trace([row(0.0, 1.0), row(0.5, 0.4)])
        assert crash_threshold(t, CrashCriterion(0.01)) is None

    def test_uses_first_crossing(self):
        t = trace([row(0.0, 1.0), row(0.1, 0.0), row(0.2, 0.0)])
        got = crash_threshold(t, CrashCriterion(0.01))
        assert got == pytest.approx(0.1 - 0.01 * 0.1 / 1.0)

    @settings(max_examples=300, deadline=None)
    @given(falling_rows(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    # (0.2 - 0.01) * 0.2 / (0.2 - 0.01) rounds to 0.20000000000000004
    @example(rows=[row(0.0, 0.2), row(0.2, 0.01)], eps=0.01)
    def test_lies_between_the_straddling_rows(self, rows, eps):
        got = crash_threshold(trace(rows), CrashCriterion(eps))
        crashed = [i for i, r in enumerate(rows) if r.giant_fraction <= eps]
        if not crashed:
            assert got is None
        elif crashed[0] == 0:
            assert got == rows[0].fraction_removed
        else:
            before, after = rows[crashed[0] - 1], rows[crashed[0]]
            assert before.fraction_removed <= got <= after.fraction_removed


class TestCurveExport:
    def test_grid_union_and_alignment(self):
        a = trace([row(0.0, 1.0, d=2.0), row(0.2, 0.5)])
        b = trace([row(0.0, 0.9, d=3.0), row(0.1, 0.8, d=4.0)])
        pts = curve_export([a, b])
        assert [p.f for p in pts] == [0.0, 0.1, 0.2]
        p0 = pts[0]
        assert p0.s_mean == pytest.approx(0.95)
        assert p0.d_mean == pytest.approx(2.5)
        assert p0.n_samples == 2
        # at f=0.1, trace a contributes its nearest row; 0.0 and 0.2 are
        # equidistant and the tie goes to the lower fraction
        assert pts[1].s_mean == pytest.approx((1.0 + 0.8) / 2)
        # d stats only cover traces that measured d there
        assert pts[1].d_mean == pytest.approx((2.0 + 4.0) / 2)
        assert pts[2].d_mean is not None

    def test_rejects_mixed_and_empty(self):
        a = trace([row(0.0, 1.0)])
        b = trace([row(0.0, 1.0)], key="coordinated")
        with pytest.raises(ValueError, match="mixed"):
            curve_export([a, b])
        with pytest.raises(ValueError, match="no traces"):
            curve_export([])
        with pytest.raises(ValueError, match="without snapshots"):
            curve_export([trace([])])
        with pytest.raises(ValueError, match="strictly increase"):
            curve_export([trace([row(0.0, 1.0), row(0.2, 0.5), row(0.2, 0.4)])])

    def test_bisection_matches_linear_scan(self):
        def linear(rows, f):
            best = rows[0]
            for r in rows[1:]:
                if abs(r.fraction_removed - f) < abs(best.fraction_removed - f):
                    best = r
            return best

        rng = random.Random(21)
        for n in (7, 10, 100, 1000, 4096):
            for _ in range(20):
                counts = sorted(rng.sample(range(n + 1), rng.randrange(1, min(n, 30))))
                rows = [row(k / n, rng.random()) for k in counts]
                fractions = [r.fraction_removed for r in rows]
                # every grid point of another trace, and the exact midpoints
                probes = [k / n for k in range(n + 1)]
                probes += [(a + b) / 2 for a, b in zip(fractions, fractions[1:])]
                for f in probes:
                    assert _nearest_row(rows, fractions, f) is linear(rows, f)
        # an exact tie goes to the lower fraction
        rows = [row(0.0, 1.0), row(0.5, 0.5)]
        assert _nearest_row(rows, [0.0, 0.5], 0.25) is rows[0]

    def test_csv_format(self, tmp_path):
        pts = [
            CurvePoint(f=0.0, s_mean=1.0, s_std=0.0, d_mean=2.5, d_std=0.5, n_samples=3),
            CurvePoint(f=0.5, s_mean=0.25, s_std=0.1, d_mean=None, d_std=None, n_samples=3),
        ]
        path = tmp_path / "c.csv"
        write_curve_csv(path, pts, n_traces=3)
        lines = path.read_text().splitlines()
        headers = [l for l in lines if l.startswith("#")]
        assert headers, "documenting headers expected"
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].split(",")[0] == "f"
        assert data[1].split(",")[:2] == ["0.0", "1.0"]
        # absent diameters stay empty, not 'None'
        assert ",," in data[2]


class TestWriteTable:
    def test_cell_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["# note", "a,b,c,d"], [("x;y", None, 0.1 + 0.2, 42), ("", 1.0, None, 0)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["# note", "a,b,c,d", "x;y,,0.30000000000000004,42", ",1.0,,0"]
        assert float(lines[2].split(",")[2]) == 0.1 + 0.2


class TestThresholdStats:
    """The thresholds row: mean_std over the trials that crashed."""

    def test_mean_and_spread(self):
        mean, std = mean_std([0.1, 0.2, 0.3])
        assert mean == pytest.approx(0.2)
        assert std == pytest.approx(0.0816496580927726)

    def test_empty(self):
        assert mean_std([]) == (None, None)

    def test_std_is_correctly_rounded(self):
        # Python 3.10's statistics.pstdev rounds twice and gives
        # 0.31217211420767377 here
        _, std = mean_std([0.2386, 0.9675, 0.8032])
        assert std == 0.3121721142076737


class TestPstdev:
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="pstdev rounds twice before 3.11")
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_matches_statistics_pstdev(self, xs):
        assert _pstdev(xs) == statistics.pstdev(xs)

    def test_constant_and_single_values_have_no_spread(self):
        assert _pstdev([0.3]) == 0.0
        assert _pstdev([0.1, 0.1, 0.1]) == 0.0
