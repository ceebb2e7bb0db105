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
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from ._version import __version__
from .attacks import AttackTrace, SnapshotCadence, StrategySpec, run_attack
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
from .svgplot import write_chart


class ConfigError(ValueError):
    """Configuration is unusable (bad schema, bad values, missing source)."""


class _Default(Enum):
    D_EVERY = "default"


DEFAULT_D_EVERY = _Default.D_EVERY


@dataclass(frozen=True)
class CadencePolicy:
    """Cadence as configured; concrete values resolve per graph size.

    ``d_every`` has three states: an int fixes it, None (JSON null) turns
    d off, and ``DEFAULT_D_EVERY`` takes the default, as ``s_every`` None
    does. Only an absent key reads as ``DEFAULT_D_EVERY``; no JSON value
    does, and ``to_json`` writes it by leaving the key out.
    """

    s_every: int | None = None
    d_every: int | None | _Default = DEFAULT_D_EVERY

    def __post_init__(self):
        for name in ("s_every", "d_every"):
            value = getattr(self, name)
            if value is not None and value is not DEFAULT_D_EVERY and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def resolve(self, n: int) -> SnapshotCadence:
        base = SnapshotCadence.default_for(n)
        s = base.s_every if self.s_every is None else self.s_every
        d = base.d_every if self.d_every is DEFAULT_D_EVERY else self.d_every
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
        """Read a config object with read_json, but for three keys.

        ``network`` is one of two sources, a relative edge-list path
        resolving against ``base_dir``; ``snapshot_cadence`` is the
        ``cadence`` field; ``notes`` is ignored.
        """
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        data = {k: v for k, v in data.items() if k != "notes"}
        network = _read_network(data.pop("network", None), base_dir)
        cadence = read_json(CadencePolicy, data.pop("snapshot_cadence", {}), "snapshot_cadence")
        return read_json(cls, data, network=network, cadence=cadence)

    def to_json(self) -> dict:
        """The JSON object that from_json reads back to this config."""
        data = asdict(self)
        source, *args = self.network
        data["network"] = (
            {"ba": {"n": args[0], "m": args[1]}} if source == "ba" else {"edge_list": args[0]}
        )
        data["strategies"] = list(data["strategies"])
        cadence = data.pop("cadence")
        if cadence["d_every"] is DEFAULT_D_EVERY:
            del cadence["d_every"]
        data["snapshot_cadence"] = cadence
        return data

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


def read_json(cls, data, where: str = "", **given):
    """Build dataclass ``cls`` from a JSON object, typed by its annotations.

    Each key names a field, and an absent key takes the field's default.
    ``given`` holds fields the caller has read itself; they are not keys.
    A bool is never an int, an int passes for a float, null passes only
    where None is annotated, and nested objects and tuples (JSON lists)
    of them are read the same way. Every error names its field's path
    below ``where``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'config'} must be an object, got {type(data).__name__}")
    hints = get_type_hints(cls)
    keys = [f for f in fields(cls) if f.name not in given]
    extra = set(data) - {f.name for f in keys}
    if extra:
        raise ConfigError(f"unknown {where or 'config'} keys: {sorted(extra)}")
    values = dict(given)
    for f in keys:
        path = f"{where}.{f.name}" if where else f.name
        if f.name in data:
            values[f.name] = _read_value(hints[f.name], data[f.name], path)
        elif f.default is MISSING:
            raise ConfigError(f"{path} is required")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


def _read_value(hint, value, path: str):
    if is_dataclass(hint):
        return read_json(hint, value, path)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be of type list, got {value!r}")
        item = get_args(hint)[0]
        return tuple(_read_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    kinds = get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    for kind in kinds:
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) == (kind is bool) and isinstance(value, accepted):
            return value
    # no JSON value reads as the cadence default, so it goes unnamed
    names = " or ".join(k.__name__ for k in kinds if k not in (type(None), _Default))
    raise ConfigError(f"{path} must be of type {names}, got {value!r}")


def _read_network(data, base_dir: Path | None) -> tuple:
    if not isinstance(data, dict) or len(data) != 1:
        raise ConfigError("network must be exactly one of {'ba': ...} or {'edge_list': ...}")
    if "ba" in data:
        # the graph seed is not configured: each trial sets its own
        params = read_json(BaParams, data["ba"], "network.ba", seed=0)
        return ("ba", params.n, params.m)
    if "edge_list" in data:
        path = Path(_read_value(str, data["edge_list"], "network.edge_list"))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return ("edge_list", str(path))
    raise ConfigError("network must name 'ba' or 'edge_list'")


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


def _trial_job(config: ExperimentConfig, ti: int) -> list[tuple[AttackTrace, float, float]]:
    """Every strategy of trial ``ti``, in config order, on one graph.

    No attack mutates the graph, so it stays fresh between strategies;
    the intact graph's d is measured once and shared. Each result is
    (trace, attack seconds, seconds to build the graph and its intact d).
    """
    started = time.perf_counter()
    g = materialize_graph(config.network, config.base_seed + ti)
    cadence = config.cadence.resolve(g.node_count)
    criterion = CrashCriterion(config.crash_epsilon)
    intact_d = snapshot(g) if cadence.d_every is not None else UNMEASURED
    build = time.perf_counter() - started
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
        results.append((trace, time.perf_counter() - started, build))
    return results


def run_trials(
    config: ExperimentConfig, threads: int = 1
) -> dict[tuple[int, int], tuple[AttackTrace, float, float]]:
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
) -> dict:
    """Run the grid and write curve CSVs, thresholds CSV, manifest, plots.

    Returns the manifest dict, which echoes the config as run. On any
    failure partial outputs are deleted before the exception propagates.
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
                trace, wall, build = results[(si, ti)]
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
                        "build_s": round(build, 3),
                        "order_s": round(trace.order_s, 3),
                        "measure_s": round(trace.measure_s, 3),
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
            for y_label, attr in (("S", "s_mean"), ("d", "d_mean")):
                curves = [
                    (label, [(p.f, v) for p in pts if (v := getattr(p, attr)) is not None])
                    for label, pts in all_points.items()
                ]
                svg_path = out / f"curves_{y_label}.svg"
                if write_chart(svg_path, curves, y_label):
                    written.append(svg_path)

        manifest = {
            "engine": "netattack",
            "version": __version__,
            "threads": threads,
            "config": config.to_json(),
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
