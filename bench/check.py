"""Output checks that hold at any seed.

For each strategy, trial 0 is replayed through the public ``run_attack``
with the seeds ``run_experiment`` gives it. The giant-cluster fraction S
is recounted at every snapshot with the benchmark's own BFS, and the
path length d at the snapshot whose cluster is smallest among those that
measured d. With one trial per strategy, each row of a sweep's curve CSV
is one snapshot of trial 0, so the CSV must equal the replayed trace.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def largest_cluster(adjacency: list[list[int]], alive: bytearray) -> list[int]:
    """Biggest live component; equal sizes go to the one with the smallest id."""
    seen = bytearray(len(adjacency))
    best: list[int] = []
    for s in range(len(adjacency)):
        if not alive[s] or seen[s]:
            continue
        seen[s] = 1
        comp = [s]
        for v in comp:
            for u in adjacency[v]:
                if alive[u] and not seen[u]:
                    seen[u] = 1
                    comp.append(u)
        if len(comp) > len(best):
            best = comp
    return best


def mean_distance(adjacency: list[list[int]], alive: bytearray, members: list[int]) -> float:
    """Mean hop count over ordered pairs of one live component, one BFS per member."""
    index = {v: i for i, v in enumerate(members)}
    nbrs = [[index[u] for u in adjacency[v] if alive[u]] for v in members]
    k = len(members)
    total = 0
    for src in range(k):
        dist = [-1] * k
        dist[src] = 0
        frontier = [src]
        hops = 0
        reached = 1
        while frontier:
            hops += 1
            nxt = []
            for v in frontier:
                for u in nbrs[v]:
                    if dist[u] < 0:
                        dist[u] = hops
                        nxt.append(u)
            total += hops * len(nxt)
            reached += len(nxt)
            frontier = nxt
        if reached != k:
            raise ValueError("members are not one component")
    return total / (k * (k - 1))


def recount(adjacency: list[list[int]], trace) -> list[str]:
    """Mismatches between a trace's snapshots and an independent recount."""
    n = len(adjacency)
    alive = bytearray(b"\x01") * n
    with_d = [row for row in trace.snapshots if row.cluster_diameter is not None]
    cheapest = min(with_d, key=lambda row: row.giant_fraction) if with_d else None
    problems = []
    batches = trace.removals
    applied = 0
    removed = 0
    for row in trace.snapshots:
        while applied < len(batches) and batches[applied][0] <= row.step:
            for v in batches[applied][1]:
                alive[v] = 0
                removed += 1
            applied += 1
        if row.removed_count != removed:
            problems.append(f"step {row.step}: removed {row.removed_count}, replay has {removed}")
        members = largest_cluster(adjacency, alive)
        if row.giant_fraction != len(members) / n:
            problems.append(
                f"step {row.step}: S={row.giant_fraction!r}, recount {len(members) / n!r}"
            )
        elif row is cheapest:
            d = mean_distance(adjacency, alive, members)
            if d != row.cluster_diameter:
                problems.append(f"step {row.step}: d={row.cluster_diameter!r}, recount {d!r}")
    return problems


def compare_curve(path: Path, trace) -> list[str]:
    """Mismatches between a one-trial curve CSV and the replayed trace."""
    if not path.is_file():
        return [f"{path.name} missing"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(rows) != len(trace.snapshots):
        return [f"{path.name}: {len(rows)} rows, replay has {len(trace.snapshots)} snapshots"]
    problems = []
    for csv_row, snap in zip(rows, trace.snapshots):
        d = snap.cluster_diameter
        want = (snap.fraction_removed, snap.giant_fraction, None if d is None else d, "1")
        got = (
            float(csv_row["f"]),
            float(csv_row["S_mean"]),
            float(csv_row["d_mean"]) if csv_row["d_mean"] else None,
            csv_row["n_samples"],
        )
        if got != want:
            problems.append(f"{path.name}: row {got} differs from snapshot {want}")
    return problems


def check_strategies(config_path: Path, curves_dir: Path) -> dict[str, list[str]]:
    """Problems found for trial 0 of each strategy, keyed by label, config order."""
    sys.path.insert(0, str(SRC))
    import netattack

    config = netattack.ExperimentConfig.from_file(config_path)
    found = {}
    for spec in config.strategies:
        try:
            g = netattack.materialize_graph(config.network, config.base_seed)
            adjacency = [sorted(g.live_neighbors(v)) for v in range(g.node_count)]
            trace = netattack.run_attack(
                g,
                spec.with_seed(config.base_seed + spec.seed),
                budget=config.budget,
                cadence=config.cadence.resolve(g.node_count),
                early_stop=config.early_stop,
                criterion=netattack.CrashCriterion(config.crash_epsilon),
            )
            problems = recount(adjacency, trace)
            problems += compare_curve(curves_dir / f"{spec.label}.curve.csv", trace)
        except Exception as exc:  # a broken replay fails the cell, not the run
            problems = [f"replay raised {exc!r}"]
        found[spec.label] = problems
    return found
