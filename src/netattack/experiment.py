"""Batch experiment runner: config in, CSV tables (and SVG charts) out.

A run is a grid of (strategy x trial). A trial, ``_trial_job``, runs
every strategy on one graph, so trials are embarrassingly parallel;
results are merged in config order afterwards, which keeps every
output byte-identical no matter how many worker processes were used.
``_trial_job`` is the one trial path: the CLI's ``attack`` is trial 0
of a one-strategy sweep through ``run_trials``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from itertools import pairwise, repeat
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from ._version import __version__
from .attacks import AttackTrace, StrategySpec, run_attack
from .generators import BaParams, generate_ba, load_edge_list
from .graph import Graph
from .metrics import (
    DEFAULT_D_EVERY,
    CrashCriterion,
    SnapshotCadence,
    crash_threshold,
    curve_export,
    mean_std,
    write_curve_csv,
    write_table,
)
from .svgplot import write_chart


class ConfigError(ValueError):
    """Configuration is unusable (bad schema, bad values, missing source)."""


@dataclass(frozen=True)
class ExperimentConfig:
    network: tuple
    strategies: tuple[StrategySpec, ...]
    trials: int = 1
    base_seed: int = 0
    crash_epsilon: float = 0.01
    budget: float = 1.0
    cadence: SnapshotCadence = SnapshotCadence()
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
        cadence = read_json(SnapshotCadence, data.pop("snapshot_cadence", {}), "snapshot_cadence")
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
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    names = " or ".join(k.__name__ for k in kinds if k not in (type(None), type(DEFAULT_D_EVERY)))
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
    """Build the trial's graph; edge-list sources ignore the seed.

    An unreadable, malformed or non-UTF-8 edge list, or one with no
    edges (self-loops alone included), is a ConfigError.
    """
    if network[0] == "ba":
        return generate_ba(BaParams(n=network[1], m=network[2], seed=graph_seed))
    path = Path(network[1])
    try:
        g, _ = load_edge_list(path)
    except OSError as exc:
        raise ConfigError(f"edge list {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if g.edge_count == 0:
        raise ConfigError(f"edge list has no edges: {path}")
    return g


def write_trace_csv(path: str | Path, trace: AttackTrace) -> None:
    """One row per attack step; S and d filled only at snapshot steps."""
    by_step = {row.step: row for row in trace.snapshots}
    head = [
        f"# strategy={trace.strategy_key} nodes={trace.total_nodes} stop={trace.stop_reason}",
        "step,removed_node_ids,f,S,d",
    ]
    rows = []
    # step k removed order[lo:hi]; the extra leading 0 gives step 0 nothing
    for step, (lo, hi) in enumerate(pairwise([0, 0, *trace.ends])):
        snap = by_step.get(step)
        s, d = (None, None) if snap is None else (snap.giant_fraction, snap.cluster_diameter)
        rows.append((step, ";".join(map(str, trace.order[lo:hi])), hi / trace.total_nodes, s, d))
    write_table(path, head, rows)


def _trial_job(config: ExperimentConfig, ti: int, loaded) -> tuple[float, list[AttackTrace]]:
    """Trial ``ti``: seconds to build its graph, and its traces in config order.

    The graph and its seconds are ``loaded``, the pair ``run_trials``
    read, or else grown and timed here with seed ``base_seed + ti``.
    The graph must hold every explicit initial_target. Every strategy
    runs on it, since no attack mutates it, with attack seed
    ``base_seed + spec.seed + ti``. The first measures the intact d at
    its step 0, and the rest take that value as theirs.
    """
    started = time.perf_counter()
    g = loaded[0] if loaded else materialize_graph(config.network, config.base_seed + ti)
    build_s = loaded[1] if loaded else time.perf_counter() - started
    for i, spec in enumerate(config.strategies):
        if isinstance(spec.initial_target, int) and spec.initial_target >= g.node_count:
            raise ConfigError(
                f"strategies[{i}].initial_target {spec.initial_target} is not a node"
                f" of the {g.node_count}-node graph"
            )
    criterion = CrashCriterion(config.crash_epsilon)
    traces: list[AttackTrace] = []
    for spec in config.strategies:
        traces.append(
            run_attack(
                g,
                spec.with_seed(config.base_seed + spec.seed + ti),
                budget=config.budget,
                cadence=config.cadence,
                early_stop=config.early_stop,
                criterion=criterion,
                intact_d=traces[0].snapshots[0].cluster_diameter if traces else None,
            )
        )
    return build_s, traces


def run_trials(config: ExperimentConfig, threads: int = 1) -> list[tuple[float, list[AttackTrace]]]:
    """One ``(build_s, traces)`` pair per trial, in trial order.

    A BA graph is grown in each trial. An edge list, the same graph in
    every trial, is read once, here: trial 0's ``build_s`` is the read's
    seconds, the others' 0.0. Workers, no more than the trials or the
    CPUs this process may use, split the trials.
    """
    trials = range(config.trials)
    loaded = repeat(None)
    if config.network[0] == "edge_list":
        started = time.perf_counter()
        g = materialize_graph(config.network, config.base_seed)
        loaded = [(g, time.perf_counter() - started)] + [(g, 0.0)] * (config.trials - 1)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(threads, len(trials), len(affinity(0)) if affinity else os.cpu_count() or 1)
    if workers <= 1:
        return list(map(_trial_job, repeat(config), trials, loaded))
    # imported here, so a one-worker run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_trial_job, repeat(config), trials, loaded))


def run_experiment(
    config: ExperimentConfig,
    *,
    threads: int = 1,
    output_dir: str | Path | None = None,
) -> dict:
    """Run the grid and write curve CSVs, thresholds CSV, manifest, plots.

    Returns the manifest dict, which echoes the config as run. An output
    name that is a directory is a ConfigError before any trial runs. On
    any failure partial outputs are deleted before the exception propagates.
    """
    out = Path(output_dir) if output_dir is not None else None
    if out is None:
        if config.output_dir is None:
            raise ConfigError("no output directory (config output_dir or --out)")
        out = Path(config.output_dir)
    names = [f"{spec.label}.curve.csv" for spec in config.strategies]
    names += ["thresholds.csv", "manifest.json"]
    names += ["curves_S.svg", "curves_d.svg"] if config.plots else []
    for name in names:
        if (out / name).is_dir():
            raise ConfigError(f"output {out / name}: is a directory")
    started = time.perf_counter()
    per_trial = run_trials(config, threads=threads)
    criterion = CrashCriterion(config.crash_epsilon)

    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        trial_rows = []
        threshold_rows = []
        all_points = {}
        for si, spec in enumerate(config.strategies):
            traces = [trial[si] for _, trial in per_trial]
            points = curve_export(traces)
            all_points[spec.label] = points
            curve_path = out / f"{spec.label}.curve.csv"
            write_curve_csv(curve_path, points, n_traces=len(traces))
            written.append(curve_path)
            values = [crash_threshold(t, criterion) for t in traces]
            crashed = [v for v in values if v is not None]
            threshold_rows.append((spec.label, *mean_std(crashed), len(crashed)))
            for ti, ((build_s, _), trace) in enumerate(zip(per_trial, traces)):
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
                        "build_s": round(build_s, 3),
                        "order_s": round(trace.order_s, 3),
                        "measure_s": round(trace.measure_s, 3),
                        "d_s": round(trace.d_s, 3),
                    }
                )

        thresholds_path = out / "thresholds.csv"
        write_table(thresholds_path, ["strategy,mean,std,n"], threshold_rows)
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
