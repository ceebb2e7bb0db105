"""Every file the shipped configs write, pinned by its sha256.

``pinned_outputs.json`` beside this module holds one digest per file.
The runs come from ``configs/``, so a new config or strategy that has
no pin fails. Each config is swept at one worker process and at two,
and both must match the one set of pins. At one worker, each of its
strategies is also traced by ``attack``, which runs a config's first
strategy, from a one-strategy copy. An edge-list config reads the list
that ``generate --n 3000 --m 2 --seed 4`` writes, itself pinned. It
takes no d, so it is swept once more with ``d_every`` 600.

A messy copy of that list, with a byte order mark, string labels,
duplicates in both orientations, self-loops, indented comments and
CRLF endings, must write the generated list's files byte for byte,
and each of its runs logs the edges it dropped once.

The tier-1 job runs this module on every supported Python and on the
numpy floor, so the pins hold on each of them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from netattack.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PINS = json.loads(Path(__file__).with_name("pinned_outputs.json").read_text(encoding="utf-8"))
DROPS = "dropped 1403 duplicate edge(s) and 462 self-loop(s)"


def _generate(path: Path) -> Path:
    assert main(["generate", "--n", "3000", "--m", "2", "--seed", "4", "--out", str(path)]) == 0
    return path


def _write(out: Path, graph: Path, threads: int, caplog, edge_lists_only=False) -> dict:
    """Sweep each shipped config into ``out/<name>/`` at ``threads``
    workers and, at one worker, trace each strategy into
    ``out/<name>-<i>.csv``, edge-list networks read from ``graph``.

    Returns the messages each run logged, by the output name in ``out``.
    """
    logs = {}

    def run(name, command, config, *args):
        path = out / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        caplog.clear()
        assert main([command, "--config", str(path), "--out", str(out / name), *args]) == 0
        logs[name] = [r.getMessage() for r in caplog.records]

    for path in sorted(CONFIGS.glob("*.json")):
        config = json.loads(path.read_text(encoding="utf-8"))
        sweeps = {path.stem: config}
        if "edge_list" in config["network"]:
            config["network"] = {"edge_list": str(graph)}
            cadence = dict(config["snapshot_cadence"], d_every=600)
            sweeps[f"{path.stem}_d600"] = dict(config, snapshot_cadence=cadence)
        elif edge_lists_only:
            continue
        for name, swept in sweeps.items():
            run(name, "sweep", swept, "--threads", str(threads))
        if threads == 1:
            for i, strategy in enumerate(config["strategies"]):
                run(f"{path.stem}-{i}.csv", "attack", dict(config, strategies=[strategy]))
    return logs


def _digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.suffix in (".csv", ".svg", ".txt")
    }


def _pins_of(names) -> dict[str, str]:
    """The pins of the files under the given top-level output names."""
    return {name: pin for name, pin in PINS.items() if name.split("/")[0] in names}


def _assert_pinned(got: dict[str, str], pins: dict[str, str]) -> None:
    diff = []
    for name in sorted(pins.keys() | got.keys()):
        if name not in got:
            diff.append(f"  {name}: missing")
        elif got[name] != pins.get(name):
            diff.append(f"  {name}: {'differs' if name in pins else 'extra'}, got {got[name]}")
    if diff:
        pytest.fail("outputs differ from tests/pinned_outputs.json:\n" + "\n".join(diff))


@pytest.mark.parametrize("threads", [1, 2])
def test_shipped_outputs_match_the_pins(tmp_path, caplog, threads):
    out = tmp_path / "out"
    out.mkdir()
    logs = _write(out, _generate(out / "graph.txt"), threads, caplog)
    # attack takes no --threads, so the traces run at one worker only
    _assert_pinned(_digests(out), PINS if threads == 1 else _pins_of({*logs, "graph.txt"}))
    # the generated list holds no duplicate edge or self-loop
    assert all(messages == [] for messages in logs.values())


def _messy_copy(graph: Path, path: Path) -> Path:
    lines = graph.read_text(encoding="utf-8").splitlines()
    edges = [line.split() for line in lines if not line.startswith("#")]
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("\ufeff  # indented comment\r\n\r\n")
        for i, (a, b) in enumerate(edges):
            fh.write(f"as{a} as{b}\r\n")
            if i % 7 == 0:
                fh.write(f"as{b}\tas{a}\r\n")
            if i % 11 == 0:
                fh.write(f" as{a}  as{b} \r\n")
            if i % 13 == 0:
                fh.write(f"as{a} as{a}\r\n")
            if i % 97 == 0:
                fh.write("\t# comment\r\n")
    return path


@pytest.mark.parametrize("threads", [1, 2])
def test_messy_edge_list_writes_the_generated_lists_outputs(tmp_path, caplog, threads):
    messy = _messy_copy(_generate(tmp_path / "graph.txt"), tmp_path / "messy.txt")
    out = tmp_path / "out"
    out.mkdir()
    logs = _write(out, messy, threads, caplog, edge_lists_only=True)
    _assert_pinned(_digests(out), _pins_of(logs))
    # a run reads its edge list once, so it logs the drops once
    assert logs and all(messages == [DROPS] for messages in logs.values())
