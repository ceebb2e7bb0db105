"""Child process of the benchmark: one set-up probe or one workload's sweeps.

  python3 bench/worker.py setup --config CONFIG
  python3 bench/worker.py sweep --config CONFIG --out DIR --seconds S --trace 0|1 [--spans FILE]

Both print one JSON object on stdout. ``run.py`` starts each in a fresh
interpreter, so every import is paid again and peak memory belongs to
the workload alone.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_UNTRACED_SWEEPS = 3


def setup_probe(config_path: str) -> dict:
    """Time import + config parse + trial 0's graph, the wait before attacks."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import netattack

    config = netattack.ExperimentConfig.from_file(config_path)
    netattack.materialize_graph(config.network, config.base_seed)
    return {"setup_s": time.perf_counter() - started}


def output_digests(directory: Path) -> dict[str, str]:
    """sha256 of the outputs that must be byte-identical across runs."""
    files = sorted(directory.glob("*.curve.csv")) + [directory / "thresholds.csv"]
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files if p.is_file()
    }


def sweeps(config_path: str, out: Path, seconds: float, trace: bool, spans_path: str | None) -> dict:
    """Repeat the workload's sweep until ``seconds`` have passed.

    Untraced runs do at least three sweeps. Traced runs alternate an
    untraced and a traced sweep, in whole pairs, so the tracing overhead
    is measured under the same conditions.
    """
    sys.path.insert(0, str(SRC))
    from netattack import experiment

    config = experiment.ExperimentConfig.from_file(config_path)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    reps = []
    aggregates = []
    traced_spans = []
    started = time.perf_counter()
    while True:
        i = len(reps)
        elapsed = time.perf_counter() - started
        if trace:
            if i % 2 == 0 and i > 0 and elapsed >= seconds:
                break
        elif i >= MIN_UNTRACED_SWEEPS and elapsed >= seconds:
            break
        traced = trace and i % 2 == 1
        rep_dir = out / f"rep{i}"
        gc.collect()
        if traced:
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            experiment.run_experiment(config, threads=1, output_dir=rep_dir)
        except Exception:  # a failed sweep is counted, not fatal
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            spans, counts = tracer.take()
            aggregates.append(tracing.aggregate(spans, counts))
            traced_spans.append(spans)
        reps.append(
            {
                "traced": traced,
                "wall_s": wall,
                "error": error,
                "digests": output_digests(rep_dir),
            }
        )
        if i > 0:
            shutil.rmtree(rep_dir, ignore_errors=True)

    result = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["layers"] = tracing.layer_metrics(aggregates, tracer.missing)
        result["missing"] = tracer.missing
        result["self_time"] = tracing.self_time_ranking(aggregates)
        traced_ok = [r["wall_s"] for r in reps if r["error"] is None and r["traced"]]
        plain_ok = [r["wall_s"] for r in reps if r["error"] is None and not r["traced"]]
        if traced_ok and plain_ok:
            result["layers"]["trace.sweep_s"] = {
                "value": statistics.median(traced_ok),
                "unit": "s",
            }
            result["layers"]["trace.overhead_s"] = {
                "value": statistics.median(traced_ok) - statistics.median(plain_ok),
                "unit": "s",
            }
        if spans_path is not None:
            tracing.write_spans(spans_path, traced_spans)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup_probe(args.config)
    else:
        result = sweeps(args.config, Path(args.out), args.seconds, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
