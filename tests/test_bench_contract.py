"""The names the benchmark in ``bench/`` reaches into must keep resolving.

The tracer wraps package functions by name and silently drops the
metrics of a probe whose target is gone, so a rename would cost a traced
run its per-layer metrics without failing anything else. The replay
check calls a few public functions directly.
"""

import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

import netattack
from netattack import attacks

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_probe_target_resolves(tracer):
    missing = [p.target for p in tracer.PROBES if tracer._resolve(p.target) is None]
    assert missing == []
    assert set(tracer.SELECTORS) == set(attacks.STRATEGY_KINDS)


def test_frontier_counters_read_the_frontier_argument(tracer):
    """The frontier counter takes ``len(args[1])`` of the coordinated and
    lower-bounded selectors: the heap and the last batch."""
    second = {
        kind: list(inspect.signature(getattr(attacks, fn)).parameters)[1]
        for kind, fn in tracer.SELECTORS.items()
        if kind in tracer._FRONTIER_KINDS
    }
    assert second == {"coordinated": "heap", "lower_bounded_parallel": "last_batch"}


def test_replay_check_entry_points_exist(tracer):
    """The calls ``bench/check.py`` makes, and the graph field the
    tracer's snapshot counter reads."""
    config = netattack.ExperimentConfig.from_json(
        {"network": {"ba": {"n": 30, "m": 2}}, "strategies": [{"kind": "intentional"}]}
    )
    g = netattack.materialize_graph(config.network, config.base_seed)
    assert g.live_neighbors(0) == set(g.adjacency[0])
    spec = config.strategies[0]
    trace = netattack.run_attack(
        g,
        spec.with_seed(config.base_seed + spec.seed),
        budget=config.budget,
        cadence=config.cadence.resolve(g.node_count),
        early_stop=config.early_stop,
        criterion=netattack.CrashCriterion(config.crash_epsilon),
    )
    assert trace.removed_count == g.node_count
    assert trace.stop_reason == "graph_exhausted"
    assert trace.snapshots
    d = netattack.snapshot(g)
    assert d == trace.snapshots[0].cluster_diameter
    counts = Counter()
    tracer._count_snapshot(counts, d, (g,), {})
    assert counts["s_nodes_scanned"] == g.live_count == g.node_count
