"""Per-layer tracing from outside the package.

The tracer wraps public functions of ``netattack`` modules at run time
and changes nothing on disk. Each call records a span (name, start, end,
parent span) in memory; counters are bumped at the same boundaries.
Spans are aggregated, and written out, once the traced sweeps end.

A function is patched in every loaded ``netattack`` module that holds
it, because callers look names up in their own module (``run_attack``
is called as ``netattack.experiment.run_attack``). A probe whose target
no longer exists is skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

PATH_LENGTH_LARGE = 512  # clusters this big count toward path_length_large_share


def _count_edges(counts, result, args, kwargs):
    counts["edges"] += result.edge_count


def _count_attack(counts, result, args, kwargs):
    counts["removals"] += result.removed_count
    counts["stalls"] += result.stop_reason == "strategy_stalled"


def _count_frontier(counts, result, args, kwargs):
    counts["frontier_scanned"] += len(args[1] if len(args) > 1 else kwargs["frontier"])


def _count_snapshot(counts, result, args, kwargs):
    counts["s_nodes_scanned"] += (args[0] if args else kwargs["g"]).live_count


def _count_pairs(counts, result, args, kwargs):
    k = len(args[1] if len(args) > 1 else kwargs["members"])
    counts["path_length_pairs"] += k * (k - 1)
    if k >= PATH_LENGTH_LARGE:
        counts["path_length_large_pairs"] += k * (k - 1)


@dataclass(frozen=True)
class Probe:
    span: str
    target: str  # "module:function" or "module:Class.method"
    count: Callable | None = None


# strategy kind -> selection function run_attack calls for it
SELECTORS = {
    "intentional": "select_intentional",
    "random_failure": "select_random_failure",
    "greedy_sequential": "select_greedy_sequential",
    "coordinated": "select_coordinated",
    "lower_bounded_parallel": "step_lower_bounded",
}

_FRONTIER_KINDS = ("coordinated", "lower_bounded_parallel")

PROBES = (
    Probe("experiment.run_experiment", "netattack.experiment:run_experiment"),
    Probe("experiment.run_trials", "netattack.experiment:run_trials"),
    Probe("experiment.materialize_graph", "netattack.experiment:materialize_graph"),
    Probe("generators.generate_ba", "netattack.generators:generate_ba"),
    Probe("generators.load_edge_list", "netattack.generators:load_edge_list"),
    Probe("generators.build_graph", "netattack.graph:build_graph", _count_edges),
    Probe("attacks.run_attack", "netattack.attacks:run_attack", _count_attack),
    *(
        Probe(
            f"attacks.select.{kind}",
            f"netattack.attacks:{fn}",
            _count_frontier if kind in _FRONTIER_KINDS else None,
        )
        for kind, fn in SELECTORS.items()
    ),
    Probe("graph.crash_node", "netattack.graph:Graph.crash_node"),
    Probe("metrics.snapshot", "netattack.metrics:snapshot", _count_snapshot),
    Probe("graph.avg_shortest_path", "netattack.graph:Graph.avg_shortest_path", _count_pairs),
    Probe("metrics.curve_export", "netattack.metrics:curve_export"),
    Probe("metrics.crash_threshold", "netattack.metrics:crash_threshold"),
    Probe("metrics.write_curve_csv", "netattack.metrics:write_curve_csv"),
    Probe("svgplot.render", "netattack.svgplot:render_line_chart"),
)


def _resolve(target: str):
    """(owner, attribute, object) for a probe target, or None if gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


class Tracer:
    """Wraps the probes' targets and records spans and counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counts, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for probe in PROBES:
            found = _resolve(probe.target)
            if found is None:
                self.missing.append(probe.span)
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, probe.span, probe.count)
            if isinstance(owner, type):
                owners = [owner]
            else:
                owners = [
                    mod
                    for name, mod in list(sys.modules.items())
                    if (name == "netattack" or name.startswith("netattack."))
                    and getattr(mod, attr, None) is original
                ]
            for o in owners:
                self._undo.append((o, attr, original))
                setattr(o, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, Counter]:
        """Spans and counters recorded since the last take, then reset."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


@dataclass
class Aggregate:
    total: dict
    self_time: dict
    calls: dict
    counts: Counter


def aggregate(spans: list, counts: Counter) -> Aggregate:
    """Per span name: total time, self time (minus child spans), calls."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child[i]
        calls[name] += 1
    return Aggregate(total, self_time, calls, counts)


def _total(span):
    return lambda a: a.total[span]


def _self(span):
    return lambda a: a.self_time[span]


def _calls(span):
    return lambda a: a.calls[span]


def _count(key):
    return lambda a: a.counts[key]


def _large_share(a: Aggregate) -> float:
    pairs = a.counts["path_length_pairs"]
    return a.counts["path_length_large_pairs"] / pairs if pairs else 0.0


# metric name -> (unit, spans it needs, value from an Aggregate)
METRICS = {
    "generators.generate_ba_s": ("s", ("generators.generate_ba",), _total("generators.generate_ba")),
    "generators.load_edge_list_s": ("s", ("generators.load_edge_list",), _total("generators.load_edge_list")),
    "generators.build_graph_s": ("s", ("generators.build_graph",), _total("generators.build_graph")),
    "generators.edges": ("count", ("generators.build_graph",), _count("edges")),
    "experiment.materialize_graph_s": ("s", ("experiment.materialize_graph",), _total("experiment.materialize_graph")),
    "experiment.run_trials_s": ("s", ("experiment.run_trials",), _total("experiment.run_trials")),
    "experiment.output_s": (
        "s",
        ("experiment.run_experiment", "experiment.run_trials"),
        lambda a: a.total["experiment.run_experiment"] - a.total["experiment.run_trials"],
    ),
    "attacks.run_attack_s": ("s", ("attacks.run_attack",), _total("attacks.run_attack")),
    "attacks.loop_self_s": ("s", ("attacks.run_attack",), _self("attacks.run_attack")),
    "attacks.removals": ("count", ("attacks.run_attack",), _count("removals")),
    "attacks.stalls": ("count", ("attacks.run_attack",), _count("stalls")),
    **{
        f"attacks.select_s.{kind}": ("s", (f"attacks.select.{kind}",), _total(f"attacks.select.{kind}"))
        for kind in SELECTORS
    },
    **{
        f"attacks.select_calls.{kind}": ("count", (f"attacks.select.{kind}",), _calls(f"attacks.select.{kind}"))
        for kind in SELECTORS
    },
    "attacks.frontier_scanned": (
        "count",
        tuple(f"attacks.select.{kind}" for kind in _FRONTIER_KINDS),
        _count("frontier_scanned"),
    ),
    "graph.crash_node_s": ("s", ("graph.crash_node",), _total("graph.crash_node")),
    "graph.crash_node_calls": ("count", ("graph.crash_node",), _calls("graph.crash_node")),
    "metrics.snapshot_s": ("s", ("metrics.snapshot",), _total("metrics.snapshot")),
    "metrics.snapshots": ("count", ("metrics.snapshot",), _calls("metrics.snapshot")),
    "metrics.s_measure_s": ("s", ("metrics.snapshot",), _self("metrics.snapshot")),
    "metrics.s_nodes_scanned": ("count", ("metrics.snapshot",), _count("s_nodes_scanned")),
    "graph.path_length_s": ("s", ("graph.avg_shortest_path",), _total("graph.avg_shortest_path")),
    "graph.path_length_calls": ("count", ("graph.avg_shortest_path",), _calls("graph.avg_shortest_path")),
    "graph.path_length_pairs": ("count", ("graph.avg_shortest_path",), _count("path_length_pairs")),
    "graph.path_length_large_share": ("ratio", ("graph.avg_shortest_path",), _large_share),
    "metrics.curve_export_s": ("s", ("metrics.curve_export",), _total("metrics.curve_export")),
    "metrics.crash_threshold_s": ("s", ("metrics.crash_threshold",), _total("metrics.crash_threshold")),
    "metrics.write_curve_csv_s": ("s", ("metrics.write_curve_csv",), _total("metrics.write_curve_csv")),
    "svgplot.render_s": ("s", ("svgplot.render",), _total("svgplot.render")),
}


def layer_metrics(aggregates: list[Aggregate], missing: list[str]) -> dict:
    """Median over traced sweeps of every metric whose spans exist."""
    out = {}
    for name, (unit, needs, value) in METRICS.items():
        if any(span in missing for span in needs):
            continue
        out[name] = {"value": statistics.median(value(a) for a in aggregates), "unit": unit}
    return out


def self_time_ranking(aggregates: list[Aggregate]) -> list[tuple[str, float]]:
    """Span names by summed self time over the traced sweeps, largest first."""
    summed: dict = defaultdict(float)
    for a in aggregates:
        for name, t in a.self_time.items():
            summed[name] += t
    return sorted(summed.items(), key=lambda kv: -kv[1])


def write_spans(path, sweeps: list[list]) -> None:
    """Spans of each traced sweep as CSV rows: sweep, index, name, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sweep,index,name,start,end,parent\n")
        for s, spans in enumerate(sweeps):
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{s},{i},{name},{start!r},{end!r},{parent}\n")
