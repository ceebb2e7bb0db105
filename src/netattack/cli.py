"""Command line front end.

Subcommands:
  generate  grow a scale-free graph and write it as an edge-list file
  attack    run trial 0 of the first configured strategy, write a step trace CSV
  sweep     run the full strategy-by-trial grid, write curves/thresholds
  report    replot curve CSVs into an SVG chart

Exit codes: 0 success, 1 configuration error (a ConfigError, or a file
that is missing or a directory), 2 runtime error (anything else, engine
invariant failures included).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from .experiment import ConfigError, ExperimentConfig, run_experiment, run_trials, write_trace_csv
from .generators import BaParams, generate_ba, write_edge_list
from ._version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netattack",
        description="Attack and failure simulations on scale-free networks.",
    )
    parser.add_argument("--version", action="version", version=f"netattack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="grow a graph and write an edge-list file")
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    p.add_argument("--m", type=int, required=True, help="edges added per new node")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--out", required=True, help="output edge-list path")

    p = sub.add_parser("attack", help="single run of the config's first strategy")
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--seed", type=int, default=None, help="override base_seed")
    p.add_argument("--out", default=None, help="trace CSV path (default: <output_dir>/trace_<strategy>.csv)")
    p.add_argument("--epsilon", type=float, default=None, help="override crash epsilon")

    p = sub.add_parser("sweep", help="full experiment: curves, thresholds, manifest")
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--seed", type=int, default=None, help="override base_seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--epsilon", type=float, default=None, help="override crash epsilon")

    p = sub.add_parser("report", help="plot curve CSVs as one SVG chart")
    p.add_argument("curves", nargs="+", help="curve CSV files from a sweep")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument(
        "--column", choices=("S", "d"), default="S", help="which observable to plot (default S)"
    )

    return parser


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    if getattr(args, "epsilon", None) is not None:
        config = dataclasses.replace(config, crash_epsilon=args.epsilon)
    return config


def _out_file(path: str) -> Path:
    """An ``--out`` file path, checked before any work: not a directory, in one that exists."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"--out {path}: is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"--out {path}: no such directory: {out.parent}")
    return out


def _out_dir(path: str, name: str) -> Path:
    """A directory from flag or field ``name``, checked before any work but not made."""
    out = Path(path)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"{name} {path}: not a directory: {nearest}")
    return out


def _cmd_generate(args) -> int:
    try:
        params = BaParams(n=args.n, m=args.m, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = _out_file(args.out)
    g = generate_ba(params)
    comments = [f"ba n={args.n} m={args.m} seed={args.seed}", f"edges={g.edge_count}"]
    write_edge_list(g, out, comments=comments)
    print(f"wrote {args.out}: {g.node_count} nodes, {g.edge_count} edges")
    return 0


def _cmd_attack(args) -> int:
    config = _load_config(args)
    spec = config.strategies[0]
    if args.out is not None:
        out = _out_file(args.out)
    elif config.output_dir is None:
        raise ConfigError("no trace output path (config output_dir or --out)")
    else:
        out = _out_dir(config.output_dir, "output_dir") / f"trace_{spec.label}.csv"
    # trial 0 of a one-strategy sweep: its graph and attack seeds are the sweep's
    [(_, [trace])] = run_trials(dataclasses.replace(config, strategies=(spec,), trials=1))
    out.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out, trace)
    final = trace.final
    print(
        f"{spec.label}: removed {trace.removed_count}/{trace.total_nodes}"
        f" ({trace.stop_reason}), final S={final.giant_fraction:.4f} -> {out}"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    out = args.out if args.out is not None else config.output_dir
    if out is not None:
        _out_dir(out, "--out" if args.out is not None else "output_dir")
    manifest = run_experiment(config, threads=args.threads, output_dir=out)
    for row in manifest["thresholds"]:
        mean = row["mean"]
        shown = "absent" if mean is None else f"{mean:.4f}"
        print(f"{row['strategy']}: crash threshold mean={shown} (n={row['n']})")
    print(f"outputs in {out}: {', '.join(manifest['outputs'])}")
    return 0


def _cmd_report(args) -> int:
    from .svgplot import write_chart

    out = _out_file(args.out)
    col = f"{args.column}_mean"
    curves = []
    for path in args.curves:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.DictReader(line for line in fh if not line.startswith("#"))
            try:
                points = [(float(row["f"]), float(row[col])) for row in rows if row.get(col)]
            except (KeyError, ValueError) as exc:
                why = f"not UTF-8: {exc.reason}" if isinstance(exc, UnicodeDecodeError) else repr(exc)
                raise ConfigError(f"{path}: not a curve CSV ({why})") from None
        curves.append((Path(path).name.removesuffix(".curve.csv").removesuffix(".csv"), points))
    if not write_chart(out, curves, args.column):
        raise ConfigError(f"no {args.column} data found in the given curve files")
    print(f"wrote {out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "attack": _cmd_attack,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort runtime report
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
