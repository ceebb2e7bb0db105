"""netattack sweep benchmark.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --shipped-configs

The first form writes the workload's inputs from the seed, times set-up
in fresh processes, repeats the sweep in one fresh process for S
seconds, checks every output, and prints one JSON object as the last
line of stdout. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs traced sweeps and reports per-layer metrics instead. The
second form times each shipped BA config once through ``netattack sweep
--threads 1``; it is not part of the repeated benchmark. See
bench/README.md for the workloads and metrics.

Run from the root of a netattack checkout. Scratch files go under
.bench_work/ (removed at exit); result records go under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import check
from workloads import WORKLOADS, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference_digests.json"
REFERENCE_SEED = 0
# set-up probes per phase of a run; spreading them over the run keeps one
# slow spell of a shared machine from deciding the median
SETUP_PROBES_PER_PHASE = 3
SETUP_TIMEOUT_S = 60
SWEEP_TIMEOUT_S = 150


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree itself."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            # never report the commit of a repository that merely contains the checkout
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def package_version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int | None, load_1m: float) -> dict:
    """What a result depends on besides the code: machine, load, versions."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "loadavg_1m_at_start": load_1m,
        "seed": seed,
        "git_commit": git_commit(),
    }


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference output digests, recorded at REFERENCE_SEED only."""
    if seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})


def cell_problem(rep: dict, label: str, first: dict, reference: dict | None, replay: list[str]):
    """Why the cell (one sweep, one strategy) failed, or None."""
    if rep["error"] is not None:
        return "sweep raised"
    for name in (f"{label}.curve.csv", "thresholds.csv"):
        digest = rep["digests"].get(name)
        if digest is None:
            return f"{name} missing"
        if digest != first.get(name):
            return f"{name} differs from sweep 0"
        if reference is not None and digest != reference.get(name):
            return f"{name} differs from the reference digest"
    return replay[0] if replay else None


def shipped_configs(load_1m: float) -> int:
    """Time each shipped BA config once through the command line."""
    configs = sorted((ROOT / "configs").glob("ba_*.json"))
    if not configs:
        print("error: no configs/ba_*.json in this checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="shipped-", dir=WORK))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    rows = []
    try:
        for cfg in configs:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "netattack.cli", "sweep", "--config", str(cfg),
                 "--threads", "1", "--out", str(work / cfg.stem)],
                capture_output=True, text=True, env=env,
            )
            wall = time.perf_counter() - started
            sys.stderr.write(proc.stderr)
            rows.append({"config": cfg.name, "wall_s": wall, "exit_code": proc.returncode})
            print(f"{cfg.name} {wall:.1f} s exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"environment": environment(None, load_1m), "configs": rows}
    path = OUT / "shipped_configs.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if all(r["exit_code"] == 0 for r in rows) else 1


def benchmark(args, load_1m: float) -> int:
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        config_path = write_inputs(args.workload, args.seed, work / "inputs")
        setup: list[float] = []

        def probe_setup():
            if not args.trace:
                setup.extend(
                    run_worker(["setup", "--config", str(config_path)], SETUP_TIMEOUT_S)["setup_s"]
                    for _ in range(SETUP_PROBES_PER_PHASE)
                )

        probe_setup()
        stem = f"{args.workload}-seed{args.seed}"
        sweep_args = [
            "sweep", "--config", str(config_path), "--out", str(work / "sweeps"),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.trace:
            sweep_args += ["--spans", str(OUT / f"{stem}.spans.csv")]
        sweep = run_worker(sweep_args, SWEEP_TIMEOUT_S)
        probe_setup()
        replay = check.check_strategies(config_path, work / "sweeps" / "rep0")
        probe_setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = sweep["reps"]
    if args.record_reference:
        if args.seed != REFERENCE_SEED or any(r["error"] for r in reps):
            print(f"error: record at seed {REFERENCE_SEED} from a clean run", file=sys.stderr)
            return 1
        table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
        table[args.workload] = reps[0]["digests"]
        REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    reference = load_reference(args.workload, args.seed)
    failures = [
        f"sweep {i} {label}: {problem}"
        for i, rep in enumerate(reps)
        for label, found in replay.items()
        if (problem := cell_problem(rep, label, reps[0]["digests"], reference, found))
    ]
    attempted = len(reps) * len(replay)
    walls = [r["wall_s"] for r in reps if r["error"] is None and not r["traced"]]
    if not walls:
        print("error: every sweep raised; nothing to time", file=sys.stderr)
        return 1

    if args.trace:
        metrics = sweep["layers"]
    else:
        metrics = {
            "sweep_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": sweep["peak_rss_mb"], "unit": "MiB"},
        }
    env = environment(args.seed, load_1m)
    print("environment " + json.dumps(env))
    for line in failures:
        print(f"FAILED {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} cells)")
    if args.trace:
        top = ", ".join(f"{name} {t:.3f} s" for name, t in sweep["self_time"][:5])
        print(f"largest self time: {top}")
        if sweep["missing"]:
            print(f"absent probes: {', '.join(sweep['missing'])}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "sweeps_s": [r["wall_s"] for r in reps],
        "setup_probes_s": setup,
        **({"self_time_s": sweep["self_time"], "absent_probes": sweep["missing"]} if args.trace else {}),
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--shipped-configs", action="store_true",
                      help="time each configs/ba_*.json once via the CLI")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's output digests as the seed-{REFERENCE_SEED} reference")
    args = parser.parse_args(argv)
    load_1m = os.getloadavg()[0]
    if not (SRC / "netattack" / "__init__.py").is_file():
        print(f"error: no netattack sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    if args.shipped_configs:
        return shipped_configs(load_1m)
    return benchmark(args, load_1m)


if __name__ == "__main__":
    sys.exit(main())
