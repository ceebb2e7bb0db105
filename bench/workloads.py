"""Workload definitions: each one is an experiment config built from a seed.

Every workload is a closed loop in one process: the (strategy x trial)
cells of a sweep run one after another with ``threads=1``. The seed the
benchmark is given becomes the config's ``base_seed`` (and the seed of
the edge-list graph for ``local_attacks``), so one seed always yields
the same inputs.

``trials`` is 1 everywhere, down from 2 in the design sketch. That keeps
every layer's share of a sweep unchanged, lets a run repeat the sweep
often enough to report a median, and makes each curve CSV row equal one
snapshot of trial 0, which the replay check relies on.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

TRIALS = 1

WORKLOADS = {
    # Global max-degree selection (select_intentional) dominates, worst
    # with protected sets; the S scan is second and d never runs.
    "hub_protection": {
        "network": {"ba": {"n": 10000, "m": 2}},
        "strategies": [
            {"kind": "intentional"},
            {"kind": "intentional", "protected": {"kind": "miss_biggest_hub"}},
            {"kind": "intentional",
             "protected": {"kind": "miss_medium_band", "miss_frac": 0.10}},
            {"kind": "intentional",
             "protected": {"kind": "miss_medium_band", "miss_frac": 0.50}},
        ],
        "budget": 0.5,
        "snapshot_cadence": {"s_every": 50, "d_every": None},
    },
    # Frontier selection (select_coordinated) dominates; set-up parses a
    # file instead of growing a graph; lower_bounded_parallel crashes in
    # batches, so a selection speed-up that makes crashes dearer shows.
    "local_attacks": {
        "network": {"edge_list": "graph.txt"},
        "strategies": [
            {"kind": "greedy_sequential"},
            {"kind": "coordinated"},
            {"kind": "lower_bounded_parallel", "threshold": 4},
        ],
        "budget": 0.6,
        "snapshot_cadence": {"s_every": 50, "d_every": None},
    },
    # Average path length dominates and sets peak memory, on big clusters
    # (random failure) and on sub-512-node clusters (after the intentional
    # crash); selection and S are a few percent.
    "path_length": {
        "network": {"ba": {"n": 3000, "m": 2}},
        "strategies": [
            {"kind": "intentional"},
            {"kind": "random_failure"},
        ],
        "budget": 0.5,
        "snapshot_cadence": {"s_every": 15, "d_every": 300},
    },
}

EDGE_LIST_NODES = 10000
EDGE_LIST_M = 2


def ba_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Preferential-attachment edges grown by the benchmark itself.

    Starts from a complete graph on m + 1 nodes; each later node links to
    m distinct earlier nodes drawn in proportion to degree. The input of
    ``local_attacks`` must not change when the engine's own generator
    does, so it is not built with ``netattack.generate_ba``.
    """
    rng = random.Random(seed)
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    urn = [v for edge in edges for v in edge]
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(urn[rng.randrange(len(urn))])
        for t in sorted(targets):
            edges.append((t, v))
            urn.append(t)
            urn.append(v)
    return edges


def config_dict(name: str, seed: int) -> dict:
    """The experiment config of a workload, as the program reads it."""
    return {
        **WORKLOADS[name],
        "trials": TRIALS,
        "base_seed": seed,
        "plots": True,
    }


def write_inputs(name: str, seed: int, directory: Path) -> Path:
    """Write the workload's config (and graph file) into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    if "edge_list" in WORKLOADS[name]["network"]:
        edges = ba_edges(EDGE_LIST_NODES, EDGE_LIST_M, seed)
        with open(directory / "graph.txt", "w", encoding="utf-8") as fh:
            fh.write(f"# benchmark BA graph n={EDGE_LIST_NODES} m={EDGE_LIST_M} seed={seed}\n")
            fh.writelines(f"{u} {v}\n" for u, v in edges)
    path = directory / "config.json"
    path.write_text(json.dumps(config_dict(name, seed), indent=2) + "\n", encoding="utf-8")
    return path
