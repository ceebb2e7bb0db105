"""Batch experiment runner: config in, CSV tables (and SVG charts) out.

A run is a grid of (strategy x trial). Each trial builds its graph once
and runs every strategy on it, so trials are embarrassingly parallel;
results are merged in config order afterwards, which keeps every output
byte-identical no matter how many worker processes were used.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from ._version import __version__
from .attacks import AttackTrace, SnapshotCadence, StrategySpec, json_field, run_attack
from .generators import BaParams, generate_ba, load_edge_list
from .graph import Graph
from .metrics import (
    UNMEASURED,
    CrashCriterion,
    crash_threshold,
    curve_export,
    snapshot,
    threshold_stats,
    write_curve_csv,
)
from .svgplot import Series, render_line_chart


class ConfigError(ValueError):
    """Configuration is unusable (bad schema, bad values, missing source)."""


@dataclass(frozen=True)
class CadencePolicy:
    """Cadence as configured; concrete values resolve per graph size."""

    s_every: int | None = None
    d_every: int | None = None
    d_enabled: bool = True

    def resolve(self, n: int) -> SnapshotCadence:
        base = SnapshotCadence.default_for(n, with_diameter=self.d_enabled)
        s = self.s_every if self.s_every is not None else base.s_every
        d = None
        if self.d_enabled:
            d = self.d_every if self.d_every is not None else base.d_every
        return SnapshotCadence(s_every=s, d_every=d)


@dataclass(frozen=True)
class ExperimentConfig:
    network: tuple
    strategies: tuple[StrategySpec, ...]
    trials: int = 1
    base_seed: int = 0
    crash_epsilon: float = 0.01
    budget: float = 1.0
    cadence: CadencePolicy = CadencePolicy()
    output_dir: str | None = None
    early_stop: bool = False
    plots: bool = False

    def __post_init__(self):
        if self.network[0] not in ("ba", "edge_list"):
            raise ConfigError(f"unknown network source {self.network[0]!r}")
        if not self.strategies:
            raise ConfigError("config needs at least one strategy")
        labels = [s.label for s in self.strategies]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"strategy labels collide: {labels}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.budget <= 1.0:
            raise ConfigError(f"budget must be in (0, 1], got {self.budget}")
        if not 0.0 < self.crash_epsilon < 1.0:
            raise ConfigError(f"crash_epsilon must be in (0, 1), got {self.crash_epsilon}")

    @classmethod
    def from_json(cls, data: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "network",
            "strategies",
            "trials",
            "base_seed",
            "crash_epsilon",
            "budget",
            "snapshot_cadence",
            "output_dir",
            "early_stop",
            "plots",
            "notes",
        }
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        try:
            network = cls._parse_network(data.get("network"), base_dir)
            strategies = tuple(
                StrategySpec.from_json(s, f"strategies[{i}]")
                for i, s in enumerate(json_field(data, "strategies", list, []))
            )
            cadence = cls._parse_cadence(
                json_field(data, "snapshot_cadence", dict, None)
            )
            return cls(
                network=network,
                strategies=strategies,
                trials=json_field(data, "trials", int, 1),
                base_seed=json_field(data, "base_seed", int, 0),
                crash_epsilon=json_field(data, "crash_epsilon", float, 0.01),
                budget=json_field(data, "budget", float, 1.0),
                cadence=cadence,
                output_dir=json_field(data, "output_dir", str, None),
                early_stop=json_field(data, "early_stop", bool, False),
                plots=json_field(data, "plots", bool, False),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @staticmethod
    def _parse_network(data, base_dir: Path | None) -> tuple:
        if not isinstance(data, dict) or len(data) != 1:
            raise ConfigError("network must be exactly one of {'ba': ...} or {'edge_list': ...}")
        if "ba" in data:
            ba = json_field(data, "ba", dict, name="network.ba")
            extra = set(ba) - {"n", "m"}
            if extra:
                raise ConfigError(f"unknown ba keys: {sorted(extra)}")
            params = BaParams(  # validates n > m >= 1
                n=json_field(ba, "n", int, name="network.ba.n"),
                m=json_field(ba, "m", int, name="network.ba.m"),
            )
            return ("ba", params.n, params.m)
        if "edge_list" in data:
            path = Path(json_field(data, "edge_list", str, name="network.edge_list"))
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            return ("edge_list", str(path))
        raise ConfigError("network must name 'ba' or 'edge_list'")

    @staticmethod
    def _parse_cadence(data) -> CadencePolicy:
        if data is None:
            return CadencePolicy()
        extra = set(data) - {"s_every", "d_every"}
        if extra:
            raise ConfigError(f"unknown snapshot_cadence keys: {sorted(extra)}")
        s = json_field(data, "s_every", int, None, name="snapshot_cadence.s_every")
        d = json_field(data, "d_every", int, None, name="snapshot_cadence.d_every")
        # an explicit null turns d off; an absent key means the default cadence
        d_enabled = d is not None or "d_every" not in data
        if s is not None and s < 1:
            raise ConfigError(f"s_every must be >= 1, got {s}")
        if d is not None and d < 1:
            raise ConfigError(f"d_every must be >= 1 or null, got {d}")
        return CadencePolicy(s_every=s, d_every=d, d_enabled=d_enabled)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_json(data, base_dir=path.parent)


def materialize_graph(network: tuple, graph_seed: int) -> Graph:
    """Build the trial's graph; edge-list sources ignore the seed."""
    if network[0] == "ba":
        return generate_ba(BaParams(n=network[1], m=network[2], seed=graph_seed))
    path = Path(network[1])
    if not path.is_file():
        raise ConfigError(f"edge list not found: {path}")
    g, _ = load_edge_list(path)
    return g


def write_trace_csv(path: str | Path, trace: AttackTrace) -> None:
    """One row per attack step; S and d filled only at snapshot steps."""
    by_step = {row.step: row for row in trace.snapshots}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# strategy={trace.strategy_key} nodes={trace.total_nodes}")
        fh.write(f" stop={trace.stop_reason}\n")
        fh.write("step,removed_node_ids,f,S,d\n")
        rows: list[tuple[int, tuple[int, ...]]] = [(0, ())] + trace.removals
        removed = 0
        for step, ids in rows:
            removed += len(ids)
            snap = by_step.get(step)
            s_val = "" if snap is None else repr(snap.giant_fraction)
            d_val = ""
            if snap is not None and snap.cluster_diameter is not None:
                d_val = repr(snap.cluster_diameter)
            f_val = removed / trace.total_nodes
            joined = ";".join(str(v) for v in ids)
            fh.write(f"{step},{joined},{f_val!r},{s_val},{d_val}\n")


def _trial_job(config: ExperimentConfig, ti: int) -> list[tuple[AttackTrace, float]]:
    """Every strategy of trial ``ti``, in config order, on one graph.

    Each attack runs on its own copy, so the graph stays fresh between
    strategies; the intact graph's d is measured once and shared.
    """
    g = materialize_graph(config.network, config.base_seed + ti)
    cadence = config.cadence.resolve(g.node_count)
    criterion = CrashCriterion(config.crash_epsilon)
    intact_d = snapshot(g) if cadence.d_every is not None else UNMEASURED
    results = []
    for spec in config.strategies:
        started = time.perf_counter()
        trace = run_attack(
            g,
            spec.with_seed(config.base_seed + spec.seed + ti),
            budget=config.budget,
            cadence=cadence,
            early_stop=config.early_stop,
            criterion=criterion,
            intact_d=intact_d,
        )
        results.append((trace, time.perf_counter() - started))
    return results


def run_trials(
    config: ExperimentConfig, threads: int = 1
) -> dict[tuple[int, int], tuple[AttackTrace, float]]:
    """Execute the full (strategy x trial) grid, deterministically keyed.

    Workers split the trials; each builds its trial's graph once.
    """
    trials = range(config.trials)
    if threads <= 1 or len(trials) == 1:
        per_trial = [_trial_job(config, ti) for ti in trials]
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(trials))) as pool:
            per_trial = list(pool.map(_trial_job, repeat(config), trials))
    return {
        (si, ti): per_trial[ti][si]
        for si in range(len(config.strategies))
        for ti in trials
    }


def run_experiment(
    config: ExperimentConfig,
    *,
    threads: int = 1,
    output_dir: str | Path | None = None,
    config_echo: dict | None = None,
) -> dict:
    """Run the grid and write curve CSVs, thresholds CSV, manifest, plots.

    Returns the manifest dict. On any failure partial outputs are
    deleted before the exception propagates.
    """
    out = Path(output_dir) if output_dir is not None else None
    if out is None:
        if config.output_dir is None:
            raise ConfigError("no output directory (config output_dir or --out)")
        out = Path(config.output_dir)
    started = time.perf_counter()
    results = run_trials(config, threads=threads)
    criterion = CrashCriterion(config.crash_epsilon)

    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        trial_rows = []
        threshold_rows = []
        all_points = {}
        for si, spec in enumerate(config.strategies):
            traces = [results[(si, ti)][0] for ti in range(config.trials)]
            points = curve_export(traces)
            all_points[spec.label] = points
            curve_path = out / f"{spec.label}.curve.csv"
            write_curve_csv(curve_path, points, n_traces=len(traces))
            written.append(curve_path)
            values = [crash_threshold(t, criterion) for t in traces]
            mean, std, count = threshold_stats(values)
            threshold_rows.append((spec.label, mean, std, count))
            for ti in range(config.trials):
                trace, wall = results[(si, ti)]
                trial_rows.append(
                    {
                        "strategy": spec.label,
                        "trial": ti,
                        "graph_seed": config.base_seed + ti,
                        "attack_seed": config.base_seed + spec.seed + ti,
                        "stop_reason": trace.stop_reason,
                        "removed": trace.removed_count,
                        "final_S": trace.final.giant_fraction,
                        "crash_threshold": values[ti],
                        "exact_crash_threshold": trace.exact_crash_threshold,
                        "wall_time_s": round(wall, 3),
                    }
                )

        thresholds_path = out / "thresholds.csv"
        with thresholds_path.open("w", encoding="utf-8") as fh:
            fh.write("strategy,mean,std,n\n")
            for label, mean, std, count in threshold_rows:
                m = "" if mean is None else repr(mean)
                s = "" if std is None else repr(std)
                fh.write(f"{label},{m},{s},{count}\n")
        written.append(thresholds_path)

        if config.plots:
            s_series = [
                Series(label, [(p.f, p.s_mean) for p in pts])
                for label, pts in all_points.items()
            ]
            svg_path = out / "curves_S.svg"
            svg_path.write_text(
                render_line_chart(
                    s_series, title="giant cluster vs fraction removed",
                    x_label="f", y_label="S",
                ),
                encoding="utf-8",
            )
            written.append(svg_path)
            d_series = [
                Series(label, [(p.f, p.d_mean) for p in pts if p.d_mean is not None])
                for label, pts in all_points.items()
            ]
            d_series = [s for s in d_series if s.points]
            if d_series:
                svg_path = out / "curves_d.svg"
                svg_path.write_text(
                    render_line_chart(
                        d_series, title="cluster diameter vs fraction removed",
                        x_label="f", y_label="d",
                    ),
                    encoding="utf-8",
                )
                written.append(svg_path)

        manifest = {
            "engine": "netattack",
            "version": __version__,
            "base_seed": config.base_seed,
            "threads": threads,
            "crash_epsilon": config.crash_epsilon,
            "budget": config.budget,
            "config": config_echo,
            "trials": trial_rows,
            "thresholds": [
                {"strategy": label, "mean": mean, "std": std, "n": count}
                for label, mean, std, count in threshold_rows
            ],
            "outputs": [p.name for p in written],
            "total_wall_time_s": round(time.perf_counter() - started, 3),
        }
        manifest_path = out / "manifest.json"
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )
        return manifest
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        raise
