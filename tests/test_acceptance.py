"""End-to-end acceptance gate for the attack engine.

Each test prints one `criterion NN PASS/FAIL` line with the measured
numbers (replayed in the terminal summary) and then asserts its bands.

Two clauses are known red and are kept red deliberately:

* criterion 03: the mean crash threshold with the biggest hub protected
  lands near f=0.31, above the required [0.16, 0.26] band.
* criterion 04: protecting half of the medium band delays the crash
  slightly less than protecting the single biggest hub, so the final
  ordering clause fails by ~0.014.

Both trace to the same mechanism: this generator grows hubs of degree
~250-350 at n=10,000, so a protected hub keeps a star of several
hundred live spokes, an order of magnitude above the 1% crash bar, and
the attack must grind the whole star down one spoke at a time. The
bands would only be reachable with a generator whose hubs are 2-3x
smaller, which would break the degree-bounded avalanche bands of
criterion 06 (checked: no generator satisfies both). The assertions
are left at their original values rather than widened; the printed
lines report the honest measurements.
"""

import json
import math
import random
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from netattack import (
    BaParams,
    CrashCriterion,
    ExperimentConfig,
    ProtectedRule,
    SnapshotCadence,
    StrategySpec,
    build_graph,
    crash_threshold,
    degree_histogram,
    generate_ba,
    giant_sizes,
    load_edge_list,
    run_attack,
    write_edge_list,
)
from netattack.cli import main as cli_main

CRIT = CrashCriterion(0.01)
CAD_10K = SnapshotCadence(s_every=50, d_every=None)
SEEDS = range(10)

INTENTIONAL = StrategySpec("intentional")
RANDOM_FAILURE = StrategySpec("random_failure")
MISS_HUB = StrategySpec("intentional", protected=ProtectedRule("miss_biggest_hub"))
MISS_10 = StrategySpec(
    "intentional", protected=ProtectedRule("miss_medium_band", miss_frac=0.10)
)
MISS_50 = StrategySpec(
    "intentional", protected=ProtectedRule("miss_medium_band", miss_frac=0.50)
)
COORDINATED = StrategySpec("coordinated")
GREEDY = StrategySpec("greedy_sequential")
LBP4 = StrategySpec("lower_bounded_parallel", threshold=4)
LBP10 = StrategySpec("lower_bounded_parallel", threshold=10)


class AttackLab:
    """Memoized attack runs on the shared 10-graph ensemble."""

    def __init__(self, graphs):
        self.graphs = graphs
        self._runs = {}

    def traces(self, spec: StrategySpec, budget: float = 1.0) -> dict:
        key = (spec, budget)
        if key not in self._runs:
            out = {}
            for seed, g in self.graphs.items():
                out[seed] = run_attack(
                    g,
                    spec.with_seed(spec.seed + seed),
                    budget=budget,
                    cadence=CAD_10K,
                    early_stop=True,
                    criterion=CRIT,
                )
            self._runs[key] = out
        return self._runs[key]

    def prime(self, spec: StrategySpec, budget: float, traces: dict) -> None:
        self._runs[(spec, budget)] = traces

    def thresholds(self, spec: StrategySpec, budget: float = 1.0) -> dict:
        return {
            seed: crash_threshold(t, CRIT)
            for seed, t in self.traces(spec, budget).items()
        }


@pytest.fixture(scope="module")
def lab(ba10k):
    return AttackLab(ba10k)


def mean(values) -> float:
    return statistics.fmean(values)


def test_criterion_01_intentional_crash_band(lab, criterion_report):
    started = time.perf_counter()
    graphs = {s: generate_ba(BaParams(10_000, 2, seed=s)) for s in SEEDS}
    traces = {
        s: run_attack(
            g,
            INTENTIONAL.with_seed(s),
            cadence=CAD_10K,
            early_stop=True,
            criterion=CRIT,
        )
        for s, g in graphs.items()
    }
    elapsed = time.perf_counter() - started
    lab.prime(INTENTIONAL, 1.0, traces)
    ths = [crash_threshold(t, CRIT) for t in traces.values()]
    assert all(t is not None for t in ths)
    m = mean(ths)
    ok = 0.10 <= m <= 0.18 and elapsed < 60.0
    criterion_report(
        f"criterion 01 {'PASS' if ok else 'FAIL'}  intentional mean f={m:.4f}"
        f" (band [0.10, 0.18]), 10 generations+runs in {elapsed:.1f}s (< 60s)"
    )
    assert 0.10 <= m <= 0.18
    assert elapsed < 60.0


def test_criterion_02_random_failure_tolerance(lab, criterion_report):
    traces = lab.traces(RANDOM_FAILURE, budget=0.5)
    crashes = sum(crash_threshold(t, CRIT) is not None for t in traces.values())
    s_at_014 = []
    for t in traces.values():
        row = next(r for r in t.snapshots if r.removed_count == 1400)
        s_at_014.append(row.giant_fraction)
    ok = crashes == 0 and min(s_at_014) >= 0.6
    criterion_report(
        f"criterion 02 {'PASS' if ok else 'FAIL'}  random failure to f=0.5:"
        f" S(0.14) min={min(s_at_014):.4f} (>= 0.6), crashes={crashes}/10 (need 0)"
    )
    assert crashes == 0
    assert min(s_at_014) >= 0.6


def test_criterion_03_missing_biggest_hub(lab, criterion_report):
    hub = lab.thresholds(MISS_HUB)
    base = lab.thresholds(INTENTIONAL)
    assert all(t is not None for t in hub.values())
    m = mean(hub.values())
    stronger_everywhere = all(hub[s] > base[s] for s in SEEDS)
    ok = 0.16 <= m <= 0.26 and stronger_everywhere
    criterion_report(
        f"criterion 03 {'PASS' if ok else 'FAIL'}  miss_biggest_hub mean f={m:.4f}"
        f" (band [0.16, 0.26]), per-seed > unprotected: {stronger_everywhere}"
    )
    assert stronger_everywhere
    assert 0.16 <= m <= 0.26, (
        f"protected-hub mean crash threshold {m:.4f} overshoots [0.16, 0.26]."
        " The protected hub keeps a ~330-spoke star alive, far above the 1%"
        " crash bar, so the attack grinds to f~0.31. Deliberate honest red:"
        " the band is only reachable with much smaller hubs, which would"
        " break criterion 06 (no generator satisfies both; see module"
        " docstring)."
    )


def test_criterion_04_medium_band_ordering(lab, criterion_report):
    base = mean(lab.thresholds(INTENTIONAL).values())
    m10 = mean(lab.thresholds(MISS_10).values())
    m50 = mean(lab.thresholds(MISS_50).values())
    hub = mean(lab.thresholds(MISS_HUB).values())
    ordered = base <= m10 <= m50
    above_hub = m50 > hub
    ok = ordered and above_hub
    criterion_report(
        f"criterion 04 {'PASS' if ok else 'FAIL'}  means: unprotected={base:.4f}"
        f" <= miss10={m10:.4f} <= miss50={m50:.4f}: {ordered};"
        f" miss50 > miss_hub({hub:.4f}): {above_hub}"
    )
    assert ordered
    assert above_hub, (
        f"miss_medium(50%) mean {m50:.4f} does not exceed miss_biggest_hub"
        f" mean {hub:.4f} (gap {m50 - hub:+.4f}). Both protected runs end in"
        " the same star-grinding regime and the single dominant hub is the"
        " better shield at this hub scale. Deliberate honest red, same root"
        " cause as criterion 03 (see module docstring)."
    )


def test_criterion_05_coordinated_close_to_global(lab, criterion_report):
    base = mean(lab.thresholds(INTENTIONAL).values())
    coord = lab.thresholds(COORDINATED)
    greedy = lab.thresholds(GREEDY)
    assert all(t is not None for t in coord.values())
    assert all(t is not None for t in greedy.values())
    m_coord = mean(coord.values())
    m_greedy = mean(greedy.values())
    gap = abs(m_coord - base)
    ok = gap <= 0.03 and m_greedy > m_coord
    criterion_report(
        f"criterion 05 {'PASS' if ok else 'FAIL'}  coordinated={m_coord:.4f} vs"
        f" intentional={base:.4f} (|gap|={gap:.4f} <= 0.03);"
        f" greedy={m_greedy:.4f} > coordinated: {m_greedy > m_coord}"
    )
    assert gap <= 0.03
    assert m_greedy > m_coord


def test_criterion_06_degree_bounded_avalanche(lab, criterion_report):
    low = lab.thresholds(LBP4)
    crashes = sum(t is not None for t in low.values())
    m_low = mean([t for t in low.values() if t is not None]) if crashes else None
    high = lab.traces(LBP10)
    stalled = all(t.stop_reason == "strategy_stalled" for t in high.values())
    s_final = min(t.final.giant_fraction for t in high.values())
    low_ok = crashes == 10 and m_low is not None and 0.12 <= m_low <= 0.20
    high_ok = stalled and s_final > 0.5
    shown = "absent" if m_low is None else f"{m_low:.4f}"
    criterion_report(
        f"criterion 06 {'PASS' if low_ok and high_ok else 'FAIL'}  bound 4:"
        f" mean f={shown} (band [0.12, 0.20], crashes {crashes}/10);"
        f" bound 10: all stalled={stalled}, min final S={s_final:.4f} (> 0.5)"
    )
    assert crashes == 10
    assert 0.12 <= m_low <= 0.20
    assert stalled
    assert s_final > 0.5


def build_hub_dominant_edges(n_body=3000, m=2, ba_seed=42, spokes=450, wire_seed=7):
    body = generate_ba(BaParams(n_body, m, seed=ba_seed))
    edges = [
        (u, v) for u in range(n_body) for v in body.adjacency[u] if u < v
    ]
    rng = random.Random(wire_seed)
    hub = n_body
    edges.extend((hub, s) for s in rng.sample(range(n_body), spokes))
    return n_body + 1, edges


def test_criterion_07_hub_dominant_edge_list(tmp_path, criterion_report):
    n, edges = build_hub_dominant_edges()
    listing = tmp_path / "hub_dominant.txt"
    write_edge_list(build_graph(n, edges), listing, comments=("hub-dominant sample",))
    g, labels = load_edge_list(listing)
    assert g.node_count == n

    degree = [len(a) for a in g.adjacency]
    second_moment_mean = mean(d * d for d in degree) / mean(degree)
    dominance = max(degree) / second_moment_mean
    assert dominance >= 10.0

    cad = SnapshotCadence(s_every=16, d_every=None)

    def run(spec, seeds, budget=1.0):
        out = []
        for s in seeds:
            out.append(
                run_attack(
                    g,
                    spec.with_seed(spec.seed + s),
                    budget=budget,
                    cadence=cad,
                    early_stop=True,
                    criterion=CRIT,
                )
            )
        return out

    def ths(traces):
        return [crash_threshold(t, CRIT) for t in traces]

    few = range(5)
    t_int = ths(run(INTENTIONAL, [0]))[0]
    t_hub = ths(run(MISS_HUB, [0]))[0]
    m_m10 = mean(ths(run(MISS_10, few)))
    m_m50 = mean(ths(run(MISS_50, few)))
    m_coord = mean(ths(run(COORDINATED, few)))
    m_greedy = mean(ths(run(GREEDY, few)))
    low = ths(run(StrategySpec("lower_bounded_parallel", threshold=3), few))
    high = run(StrategySpec("lower_bounded_parallel", threshold=10), few)

    hub_shields = t_hub > t_int
    banded = t_int <= m_m10 <= m_m50
    local_hierarchy = m_greedy > m_coord
    coord_close = abs(m_coord - t_int) <= 0.05
    low_crashes = all(t is not None for t in low)
    high_stalls = all(
        t.stop_reason == "strategy_stalled" and t.final.giant_fraction > 0.5
        for t in high
    )

    smoke = Path(__file__).resolve().parent.parent / "configs" / "internet_smoke.json"
    cfg = ExperimentConfig.from_json(
        json.loads(smoke.read_text()), base_dir=smoke.parent
    )
    smoke_ok = cfg.network[0] == "edge_list" and len(cfg.strategies) >= 1

    ok = all(
        (hub_shields, banded, local_hierarchy, coord_close, low_crashes,
         high_stalls, smoke_ok)
    )
    criterion_report(
        f"criterion 07 {'PASS' if ok else 'FAIL'}  hub-dominant edge list"
        f" (dominance {dominance:.1f}x): hub {t_hub:.3f} > unprotected"
        f" {t_int:.3f}; {t_int:.3f} <= {m_m10:.3f} <= {m_m50:.3f}; greedy"
        f" {m_greedy:.3f} > coord {m_coord:.3f} (|coord-int|="
        f"{abs(m_coord - t_int):.4f}); bound 3 crashes 5/5={low_crashes};"
        f" bound 10 stalls connected={high_stalls}; smoke config loads={smoke_ok}"
    )
    assert hub_shields
    assert banded
    assert local_hierarchy
    assert coord_close
    assert low_crashes
    assert high_stalls
    assert smoke_ok


def test_criterion_08_oracle_equivalence(criterion_report):
    rng = random.Random(88)
    cluster_checked = 0
    steps_checked = 0
    for i in range(200):
        n = rng.randrange(1, 13)
        g = build_graph(n, oracles.random_edges(rng, n, 0.3))
        order = rng.sample(range(n), rng.randrange(n + 1))
        # the same order in random batches, drawn apart from the main stream
        cut = random.Random(i)
        removals, lo = [], 0
        while lo < len(order):
            hi = lo + cut.randrange(1, 4)
            removals.append((len(removals) + 1, tuple(order[lo:hi])))
            lo = hi
        steps = range(len(removals) + 1)
        sizes, clusters = giant_sizes(g.adjacency, removals, steps, oracles.read_off)
        alive = [True] * n
        for step, batch in [(0, ())] + removals:
            for v in batch:
                alive[v] = False
            want = oracles.largest_component(g.adjacency, alive)
            assert sizes[step] == len(want)
            members, live = clusters[step]
            assert list(live) == alive
            assert len(members) == len(set(members))
            assert set(members) == want
            steps_checked += 1
            cluster_checked += 1

    path_checked = 0
    worst = 0.0
    while path_checked < 50:
        n = rng.randrange(3, 51)
        g = build_graph(n, oracles.random_connected_edges(rng, n))
        crashed = tuple(rng.sample(range(n), rng.randrange(n // 4 + 1)))
        _, clusters = giant_sizes(g.adjacency, [(1, crashed)], (1,), oracles.read_off)
        members, live = clusters[1]
        if len(members) < 2:
            continue
        got = g.avg_shortest_path(members, live)
        want = oracles.floyd_warshall_mean(g.adjacency, list(live), members)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
        path_checked += 1

    criterion_report(
        f"criterion 08 PASS  {cluster_checked} cluster enumerations exact;"
        f" giant_sizes exact at {steps_checked} batched removal steps;"
        f" {path_checked} path means within 1e-9 (worst gap {worst:.2e})"
    )


def test_criterion_09_byte_identical_sweeps(tmp_path, criterion_report):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(
        json.dumps(
            {
                "network": {"ba": {"n": 400, "m": 2}},
                "strategies": [
                    {"kind": "intentional"},
                    {"kind": "coordinated"},
                    {"kind": "lower_bounded_parallel", "threshold": 3},
                ],
                "trials": 3,
                "base_seed": 11,
                "budget": 0.7,
                "snapshot_cadence": {"s_every": 4, "d_every": 40},
            }
        )
    )
    for label, threads in (("a", 1), ("b", 8), ("c", 1)):
        rc = cli_main(
            [
                "sweep",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / label),
                "--threads",
                str(threads),
            ]
        )
        assert rc == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir() if p.suffix == ".csv")
    assert "thresholds.csv" in names and len(names) == 4
    identical = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        == (tmp_path / "c" / name).read_bytes()
        for name in names
    )
    criterion_report(
        f"criterion 09 {'PASS' if identical else 'FAIL'}  {len(names)} CSVs"
        " byte-identical across threads=1, threads=8, and a repeat run"
    )
    assert identical


def test_criterion_10_generator_structure(ba10k, criterion_report):
    n, m = 10_000, 2
    expected_edges = m * (m - 1) // 2 + (n - m) * m
    edges_ok = all(g.edge_count == expected_edges for g in ba10k.values())
    slopes = []
    for g in ba10k.values():
        hist = degree_histogram(g)
        ks = np.array(sorted(hist))
        counts = np.array([hist[k] for k in ks], dtype=float)
        ccdf = counts[::-1].cumsum()[::-1] / counts.sum()
        mask = (ks >= 4) & (ks <= 100)
        slopes.append(
            float(np.polyfit(np.log10(ks[mask]), np.log10(ccdf[mask]), 1)[0])
        )
    in_band = all(-2.5 <= s <= -1.5 for s in slopes)
    ok = edges_ok and in_band
    criterion_report(
        f"criterion 10 {'PASS' if ok else 'FAIL'}  edge count =="
        f" {expected_edges} on all 10 seeds: {edges_ok}; CCDF log-log slope"
        f" range [{min(slopes):.3f}, {max(slopes):.3f}] within [-2.5, -1.5]"
    )
    assert edges_ok
    assert in_band
