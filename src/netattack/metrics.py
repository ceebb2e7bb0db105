"""Robustness observables: giant-cluster curve, path-length curve, crash point.

Terminology used throughout: f is the fraction of original nodes removed
so far, S the giant-cluster fraction (biggest live cluster size over the
original node count), d the cluster "diameter" in the loose sense used
here, i.e. the average shortest path length inside the biggest cluster
(not the max eccentricity).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .graph import Graph

if TYPE_CHECKING:
    from .attacks import AttackTrace


@dataclass(frozen=True)
class CrashCriterion:
    """Network counts as crashed when S drops to epsilon or below."""

    epsilon: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")

    def crashed(self, giant_fraction: float) -> bool:
        return giant_fraction <= self.epsilon


@dataclass(frozen=True)
class MetricsRow:
    """One observation along an attack."""

    step: int
    removed_count: int
    fraction_removed: float
    giant_fraction: float
    cluster_diameter: float | None
    component_count: int


def snapshot(g: Graph, step: int, removed_count: int, with_diameter: bool) -> MetricsRow:
    """Measure the current graph state.

    cluster_diameter is only computed when asked for (it is by far the
    expensive observable) and is None whenever the biggest cluster has
    fewer than two nodes.
    """
    best, components = g._component_scan()
    n = g.node_count
    giant = len(best) / n if n else 0.0
    diameter = None
    if with_diameter and len(best) >= 2:
        diameter = g.avg_shortest_path(best)
    return MetricsRow(
        step=step,
        removed_count=removed_count,
        fraction_removed=removed_count / n if n else 0.0,
        giant_fraction=giant,
        cluster_diameter=diameter,
        component_count=components,
    )


def crash_threshold(trace: "AttackTrace", criterion: CrashCriterion) -> float | None:
    """Smallest removal fraction at which the trace counts as crashed.

    Snapshot cadence skips steps, so the crossing is located by linear
    interpolation between the last snapshot above epsilon and the first
    one at or below it. None when the trace never crosses (stalled or
    budget-capped runs).
    """
    eps = criterion.epsilon
    prev: MetricsRow | None = None
    for row in trace.snapshots:
        if row.giant_fraction <= eps:
            if prev is None or prev.giant_fraction <= eps:
                return row.fraction_removed
            f0, s0 = prev.fraction_removed, prev.giant_fraction
            f1, s1 = row.fraction_removed, row.giant_fraction
            if s0 == s1:
                return f1
            return f0 + (s0 - eps) * (f1 - f0) / (s0 - s1)
        prev = row
    return None


def _nearest_row(rows: Sequence[MetricsRow], f: float) -> MetricsRow:
    """Snapshot closest to f; ties go to the lower fraction."""
    best = rows[0]
    gap = abs(best.fraction_removed - f)
    for row in rows[1:]:
        d = abs(row.fraction_removed - f)
        if d < gap:
            best, gap = row, d
    return best


@dataclass(frozen=True)
class CurvePoint:
    f: float
    s_mean: float
    s_std: float
    d_mean: float | None
    d_std: float | None
    n_samples: int


def curve_export(traces: Sequence["AttackTrace"]) -> list[CurvePoint]:
    """Average aligned trajectories from same-config, different-seed runs.

    The f grid is the union of all snapshot fractions; each trace
    contributes its nearest snapshot per grid point (ties to the lower
    f). d statistics cover only the traces that measured d there.
    Traces from different configs (strategy or node count) are rejected.
    """
    if not traces:
        raise ValueError("no traces to export")
    key = (traces[0].strategy_key, traces[0].total_nodes)
    for t in traces:
        if (t.strategy_key, t.total_nodes) != key:
            raise ValueError(
                f"mixed trace configs: {key} vs {(t.strategy_key, t.total_nodes)}"
            )
        if not t.snapshots:
            raise ValueError("trace without snapshots")
    grid = sorted({row.fraction_removed for t in traces for row in t.snapshots})
    points = []
    for f in grid:
        s_vals = []
        d_vals = []
        for t in traces:
            row = _nearest_row(t.snapshots, f)
            s_vals.append(row.giant_fraction)
            if row.cluster_diameter is not None:
                d_vals.append(row.cluster_diameter)
        points.append(
            CurvePoint(
                f=f,
                s_mean=statistics.fmean(s_vals),
                s_std=statistics.pstdev(s_vals),
                d_mean=statistics.fmean(d_vals) if d_vals else None,
                d_std=statistics.pstdev(d_vals) if d_vals else None,
                n_samples=len(s_vals),
            )
        )
    return points


def write_curve_csv(path, points: Iterable[CurvePoint], n_traces: int) -> None:
    """Curve table with the alignment rule documented in '#' headers."""
    points = list(points)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# averaged attack curve over {n_traces} trace(s), {len(points)} rows\n")
        fh.write(
            "# grid = union of snapshot fractions; each trace contributes its"
            " nearest snapshot per row (ties to lower f)\n"
        )
        fh.write("# d columns are empty where no contributing trace measured d\n")
        fh.write("f,S_mean,S_std,d_mean,d_std,n_samples\n")
        for p in points:
            d_mean = "" if p.d_mean is None else repr(p.d_mean)
            d_std = "" if p.d_std is None else repr(p.d_std)
            fh.write(
                f"{p.f!r},{p.s_mean!r},{p.s_std!r},{d_mean},{d_std},{p.n_samples}\n"
            )


def threshold_stats(values: Sequence[float]) -> tuple[float | None, float | None, int]:
    """(mean, population std, count) over the present threshold values."""
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None, 0
    return statistics.fmean(vals), statistics.pstdev(vals), len(vals)
