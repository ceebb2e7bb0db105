import concurrent.futures
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from netattack import (
    AttackTrace,
    BaParams,
    ConfigError,
    CrashCriterion,
    ExperimentConfig,
    Graph,
    ProtectedRule,
    SnapshotCadence,
    StrategySpec,
    build_graph,
    generate_ba,
    materialize_graph,
    run_attack,
    run_experiment,
    run_trials,
    snapshot,
    write_trace_csv,
)
from netattack.experiment import trial_graph
from netattack import experiment as experiment_mod
from netattack import metrics as metrics_mod


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        network=("ba", 150, 2),
        strategies=(
            StrategySpec("intentional"),
            StrategySpec("lower_bounded_parallel", threshold=3),
        ),
        trials=2,
        base_seed=5,
        budget=0.9,
        cadence=SnapshotCadence(s_every=5, d_every=25),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def config_cadence(snapshot_cadence: dict) -> SnapshotCadence:
    return ExperimentConfig.from_json(
        {
            "network": {"ba": {"n": 100, "m": 2}},
            "strategies": [{"kind": "intentional"}],
            "snapshot_cadence": snapshot_cadence,
        }
    ).cadence


class TestCadencePolicy:
    """The config's snapshot_cadence, as read from JSON, resolved against n."""

    def test_resolve_defaults(self):
        c = config_cadence({}).resolve(10_000)
        assert (c.s_every, c.d_every) == (50, 200)

    def test_resolve_explicit_and_disabled(self):
        assert config_cadence({"s_every": 7}).resolve(100).s_every == 7
        assert config_cadence({"d_every": None}).resolve(100).d_every is None
        assert config_cadence({}).resolve(100).d_every == 2
        assert config_cadence({"d_every": 9}).resolve(100).d_every == 9


class TestConfigValidation:
    def test_needs_strategies(self):
        with pytest.raises(ConfigError, match="at least one strategy"):
            small_config(strategies=())

    def test_label_collisions(self):
        with pytest.raises(ConfigError, match="collide"):
            small_config(
                strategies=(StrategySpec("intentional"), StrategySpec("intentional", seed=1))
            )

    def test_ranges(self):
        with pytest.raises(ConfigError, match="trials"):
            small_config(trials=0)
        with pytest.raises(ConfigError, match="budget"):
            small_config(budget=1.5)
        with pytest.raises(ConfigError, match="crash_epsilon"):
            small_config(crash_epsilon=0.0)


@st.composite
def experiment_configs(draw) -> ExperimentConfig:
    """Valid configs over both network sources and all three cadence states."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 20))
        network = ("ba", draw(st.integers(m + 1, 10**6)), m)
    else:
        network = ("edge_list", str(Path(draw(st.text("ab/._-", min_size=1)))))
    s_every = draw(st.none() | st.integers(1, 10**4))
    cadence = draw(
        st.sampled_from(
            [
                SnapshotCadence(s_every),  # d_every absent: the default cadence
                SnapshotCadence(s_every, d_every=draw(st.integers(1, 10**4))),
                SnapshotCadence(s_every, d_every=None),  # d_every null: no d
            ]
        )
    )
    specs = (
        StrategySpec("intentional"),
        StrategySpec("intentional", protected=ProtectedRule("miss_biggest_hub")),
        StrategySpec("random_failure", seed=3),
        StrategySpec("coordinated", initial_target=7),
        StrategySpec("lower_bounded_parallel", threshold=4, initial_target="max_degree"),
    )
    return ExperimentConfig(
        network=network,
        strategies=tuple(draw(st.lists(st.sampled_from(specs), min_size=1, unique=True))),
        trials=draw(st.integers(1, 100)),
        base_seed=draw(st.integers(-(2**40), 2**40)),
        crash_epsilon=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        budget=draw(st.floats(0.0, 1.0, exclude_min=True)),
        cadence=cadence,
        output_dir=draw(st.none() | st.text(max_size=10)),
        early_stop=draw(st.booleans()),
        plots=draw(st.booleans()),
    )


class TestConfigJson:
    @settings(max_examples=300, deadline=None)
    @given(experiment_configs())
    def test_json_round_trip(self, cfg):
        assert ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg
        # a resolved cadence is concrete, so no node count changes it again
        n = cfg.network[1] if cfg.network[0] == "ba" else 10_000
        resolved = cfg.cadence.resolve(n)
        assert resolved.resolve(n) == resolved.resolve(1) == resolved

    def test_disabled_d_is_written_as_null(self):
        cfg = small_config(cadence=SnapshotCadence(d_every=None))
        assert cfg.to_json()["snapshot_cadence"]["d_every"] is None
        default = small_config(cadence=SnapshotCadence()).to_json()["snapshot_cadence"]
        assert "d_every" not in default

    def test_happy_path(self, tmp_path):
        data = {
            "network": {"ba": {"n": 200, "m": 2}},
            "strategies": [
                {"kind": "intentional"},
                {"kind": "coordinated", "seed": 3},
            ],
            "trials": 4,
            "base_seed": 9,
            "crash_epsilon": 0.02,
            "budget": 0.8,
            "snapshot_cadence": {"s_every": 10, "d_every": None},
            "output_dir": str(tmp_path / "out"),
            "notes": "free-form, ignored by the engine",
        }
        cfg = ExperimentConfig.from_json(data, base_dir=tmp_path)
        assert cfg.network == ("ba", 200, 2)
        assert [s.kind for s in cfg.strategies] == ["intentional", "coordinated"]
        assert cfg.trials == 4
        assert cfg.crash_epsilon == 0.02
        assert cfg.cadence.d_every is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_json({"network": {"ba": {"n": 5, "m": 1}}, "oops": 1})
        with pytest.raises(ConfigError, match="unknown network.ba keys"):
            ExperimentConfig.from_json(
                {"network": {"ba": {"n": 5, "m": 1, "p": 2}}, "strategies": [{"kind": "intentional"}]}
            )
        with pytest.raises(ConfigError, match="unknown snapshot_cadence"):
            ExperimentConfig.from_json(
                {
                    "network": {"ba": {"n": 5, "m": 1}},
                    "strategies": [{"kind": "intentional"}],
                    "snapshot_cadence": {"every": 2},
                }
            )

    def test_network_shape_errors(self):
        for bad in (None, [], {"ba": {"n": 5, "m": 1}, "edge_list": "x"}, {"x": 1}):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_json(
                    {"network": bad, "strategies": [{"kind": "intentional"}]}
                )

    def test_relative_edge_list_resolved_against_base_dir(self, tmp_path):
        cfg = ExperimentConfig.from_json(
            {"network": {"edge_list": "net.txt"}, "strategies": [{"kind": "intentional"}]},
            base_dir=tmp_path,
        )
        assert cfg.network == ("edge_list", str(tmp_path / "net.txt"))

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_file(bad)


class TestMaterializeGraph:
    def test_ba_uses_seed(self):
        a = materialize_graph(("ba", 100, 2), graph_seed=1)
        b = materialize_graph(("ba", 100, 2), graph_seed=2)
        assert a.adjacency != b.adjacency

    def test_edge_list(self, tmp_path):
        p = tmp_path / "net.txt"
        p.write_text("a b\nb c\n")
        g = materialize_graph(("edge_list", str(p)), graph_seed=0)
        assert g.node_count == 3
        with pytest.raises(ConfigError, match="edge list not found"):
            materialize_graph(("edge_list", str(tmp_path / "gone.txt")), graph_seed=0)

    def test_bad_edge_lists_are_config_errors(self, tmp_path):
        malformed = tmp_path / "malformed.txt"
        malformed.write_text("a b\nb c d\n")
        with pytest.raises(ConfigError, match=r"malformed.txt:2: expected two labels"):
            materialize_graph(("edge_list", str(malformed)), graph_seed=0)
        empty = tmp_path / "empty.txt"
        empty.write_text("# no edges\n\n")
        with pytest.raises(ConfigError, match="edge list has no edges"):
            materialize_graph(("edge_list", str(empty)), graph_seed=0)

    def test_initial_target_must_be_a_node(self):
        cfg = small_config(
            network=("ba", 40, 2),
            strategies=(
                StrategySpec("intentional"),
                StrategySpec("coordinated", initial_target=40),
            ),
        )
        with pytest.raises(ConfigError, match=r"strategies\[1\].initial_target 40 is not"):
            trial_graph(cfg, 0)
        ok = small_config(strategies=(StrategySpec("coordinated", initial_target=149),))
        assert trial_graph(ok, 1).adjacency == materialize_graph(("ba", 150, 2), 6).adjacency


class TestTraceCsv:
    def test_layout(self, tmp_path):
        from netattack import CrashCriterion, SnapshotCadence, generate_ba, run_attack
        from netattack import BaParams

        g = generate_ba(BaParams(60, 2, seed=0))
        trace = run_attack(
            g,
            StrategySpec("intentional"),
            cadence=SnapshotCadence(s_every=4, d_every=None),
            budget=0.5,
        )
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# strategy=intentional nodes=60 stop=")
        assert lines[1] == "step,removed_node_ids,f,S,d"
        body = lines[2:]
        assert len(body) == len(trace.removals) + 1
        first = body[0].split(",")
        assert first[0] == "0" and first[1] == ""
        assert first[3] != ""  # step 0 is always measured
        # snapshot rows carry S, intermediate rows leave it blank
        measured = {r.step for r in trace.snapshots}
        for line in body[1:]:
            parts = line.split(",")
            has_s = parts[3] != ""
            assert has_s == (int(parts[0]) in measured)


THREE_STRATEGIES = (
    StrategySpec("intentional"),
    StrategySpec("random_failure"),
    StrategySpec("coordinated"),
)


class TestRunTrials:
    def test_grid_and_parallel_equivalence(self):
        cfg = small_config()
        seq = run_trials(cfg, threads=1)
        par = run_trials(cfg, threads=4)
        labels = [spec.label for spec in cfg.strategies]
        assert [[t.strategy_key for t in traces] for _, traces in seq] == [labels] * 2
        for (_, seq_traces), (_, par_traces) in zip(seq, par, strict=True):
            for a, b in zip(seq_traces, par_traces, strict=True):
                assert a.removals == b.removals
                assert a.snapshots == b.snapshots

    def test_one_graph_per_trial_stays_fresh(self, monkeypatch):
        built = []

        def recording(network, graph_seed):
            g = materialize_graph(network, graph_seed)
            built.append((graph_seed, g))
            return g

        monkeypatch.setattr(experiment_mod, "materialize_graph", recording)
        cfg = small_config(strategies=THREE_STRATEGIES, trials=4)
        results = run_trials(cfg)
        assert [seed for seed, _ in built] == [5, 6, 7, 8]
        for _, g in built:
            assert g.live_count == g.node_count
            assert all(g.alive)
        assert [len(traces) for _, traces in results] == [3] * 4

    @pytest.mark.parametrize("d_every, per_trial", [(25, 1), (None, 0)])
    def test_intact_d_measured_once_per_trial(self, monkeypatch, d_every, per_trial):
        """The d kernel runs on the intact cluster once per trial, in the
        first strategy's measure, and a sweep never calls snapshot."""
        intact = []
        kernel = Graph.avg_shortest_path

        def recording(g, members, live):
            if all(live):
                intact.append(g.node_count)
            return kernel(g, members, live)

        def unused(g):
            raise AssertionError("a sweep takes the intact d from measure")

        monkeypatch.setattr(Graph, "avg_shortest_path", recording)
        monkeypatch.setattr(metrics_mod, "snapshot", unused)
        assert not hasattr(experiment_mod, "snapshot")
        cadence = SnapshotCadence(s_every=5, d_every=d_every)
        cfg = small_config(strategies=THREE_STRATEGIES, trials=3, cadence=cadence)
        results = run_trials(cfg)
        assert len(intact) == 3 * per_trial
        for _, traces in results:
            for trace in traces:
                first = trace.snapshots[0]
                assert first.step == 0
                assert (first.cluster_diameter is not None) == (d_every is not None)
            assert len({trace.snapshots[0].cluster_diameter for trace in traces}) == 1

    def test_pool_capped_at_trial_count(self, monkeypatch):
        opened = []

        class RecordingPool:
            """Runs the jobs in this process; records the requested size."""

            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_trials imports the pool inside its multi-worker branch
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = small_config(trials=3, cadence=SnapshotCadence(s_every=10, d_every=None))
        wide = run_trials(cfg, threads=8)
        assert opened == [3]
        run_trials(cfg, threads=2)
        assert opened == [3, 2]
        serial = run_trials(cfg, threads=1)
        assert opened == [3, 2]
        assert [traces for _, traces in wide] == [traces for _, traces in serial]

    def test_import_leaves_the_process_pool_unloaded(self):
        # only a run with more than one worker imports the pool
        code = (
            f"import sys; sys.path.insert(0, {str(Path(experiment_mod.__file__).parents[1])!r}); "
            "import netattack; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"


class TestSharedIntactD:
    """run_attack given the intact d matches run_attack measuring it itself."""

    SPECS = (
        StrategySpec("intentional"),
        StrategySpec("random_failure"),
        StrategySpec("greedy_sequential"),
        StrategySpec("coordinated"),
        StrategySpec("lower_bounded_parallel", threshold=2),
    )

    @staticmethod
    def assert_same(g, spec, **kwargs):
        own = run_attack(g, spec, **kwargs)
        shared = run_attack(g, spec, intact_d=snapshot(g), **kwargs)
        assert shared.removals == own.removals
        assert shared.snapshots == own.snapshots
        assert shared.stop_reason == own.stop_reason
        assert g.live_count == g.node_count
        return own

    def test_seeded_random_and_ba_graphs(self):
        rng = random.Random(23)
        graphs = [generate_ba(BaParams(rng.randrange(20, 120), 2, seed=s)) for s in range(6)]
        for _ in range(6):
            n = rng.randrange(10, 80)
            graphs.append(build_graph(n, oracles.random_edges(rng, n, 0.08)))
        measured = 0
        for i, g in enumerate(graphs):
            for j, spec in enumerate(self.SPECS):
                for d_every in (None, 7):
                    trace = self.assert_same(
                        g,
                        spec.with_seed(i * 10 + j),
                        budget=0.8,
                        cadence=SnapshotCadence(s_every=3, d_every=d_every),
                        early_stop=(i + j) % 2 == 0,
                        criterion=CrashCriterion(0.1),
                    )
                    measured += trace.snapshots[0].cluster_diameter is not None
        assert measured == len(graphs) * len(self.SPECS)

    def test_early_stop_crashed_at_step_zero(self):
        # 40 nodes, biggest cluster 3: S = 0.075 <= epsilon before any removal
        g = build_graph(40, [(0, 1), (1, 2), (5, 6)])
        for spec in self.SPECS:
            trace = self.assert_same(
                g,
                spec.with_seed(3),
                cadence=SnapshotCadence(s_every=2, d_every=4),
                early_stop=True,
                criterion=CrashCriterion(0.1),
            )
            assert trace.removals == []
            assert [row.step for row in trace.snapshots] == [0]
            assert trace.snapshots[0].cluster_diameter == pytest.approx(4 / 3)
            assert trace.stop_reason == "network_crashed"


class TestRunExperiment:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = small_config(output_dir=str(tmp_path / "run"))
        manifest = run_experiment(cfg)
        out = tmp_path / "run"
        assert (out / "intentional.curve.csv").is_file()
        assert (out / "lower_bounded_parallel_t3.curve.csv").is_file()
        assert (out / "thresholds.csv").is_file()
        disk = json.loads((out / "manifest.json").read_text())
        assert disk == manifest
        assert manifest["engine"] == "netattack"
        assert ExperimentConfig.from_json(manifest["config"]) == cfg
        # run-wide settings live in the config echo only
        assert not {"base_seed", "crash_epsilon", "budget"} & manifest.keys()
        assert len(manifest["trials"]) == 4
        row = manifest["trials"][0]
        assert row["graph_seed"] == 5 and row["attack_seed"] == 5
        assert {"strategy", "stop_reason", "removed", "final_S", "crash_threshold"} <= set(row)
        _, traces = run_trials(cfg)[0]
        trace = traces[0]
        assert row["exact_crash_threshold"] == trace.exact_crash_threshold is not None
        assert "exact" not in (out / "thresholds.csv").read_text()
        labels = {t["strategy"] for t in manifest["thresholds"]}
        assert labels == {"intentional", "lower_bounded_parallel_t3"}
        th = (out / "thresholds.csv").read_text().splitlines()
        assert th[0] == "strategy,mean,std,n"
        assert len(th) == 3

    def test_thresholds_row_is_blank_when_no_trial_crashes(self, tmp_path):
        stalls = StrategySpec("lower_bounded_parallel", threshold=100)
        cfg = small_config(strategies=(StrategySpec("intentional"), stalls))
        manifest = run_experiment(cfg, output_dir=tmp_path)
        stops = {t["stop_reason"] for t in manifest["trials"] if t["strategy"] == stalls.label}
        assert stops == {"strategy_stalled"}
        th = (tmp_path / "thresholds.csv").read_text(encoding="utf-8").splitlines()
        assert th[2] == "lower_bounded_parallel_t100,,,0"
        crashed = manifest["thresholds"][0]
        assert th[1] == f"intentional,{crashed['mean']!r},{crashed['std']!r},2"

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_a = small_config(output_dir=str(tmp_path / "a"))
        cfg_b = small_config(output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b, threads=4)
        for name in ("intentional.curve.csv", "lower_bounded_parallel_t3.curve.csv", "thresholds.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_phase_times_stay_out_of_csvs(self, tmp_path, monkeypatch):
        """Phase seconds fill the manifest rows and never reach a CSV."""
        cfg = small_config(strategies=THREE_STRATEGIES)
        manifest = run_experiment(cfg, output_dir=tmp_path / "timed")
        for row in manifest["trials"]:
            assert row["build_s"] >= 0 and row["order_s"] >= 0 and row["measure_s"] >= 0
            # d rows are a part of the measuring, and rounding keeps the order
            assert 0 <= row["d_s"] <= row["measure_s"]
        for ti in range(cfg.trials):
            builds = {row["build_s"] for row in manifest["trials"] if row["trial"] == ti}
            assert len(builds) == 1  # one graph per trial
        for build_s, traces in run_trials(cfg):
            assert build_s > 0
            for trace in traces:
                assert 0 < trace.order_s + trace.measure_s
                assert 0 < trace.d_s <= trace.measure_s
        ticks = iter(range(10**6))
        # a clock that leaps 1000 s per read changes every time, not one CSV byte
        monkeypatch.setattr("time.perf_counter", lambda: 1000.0 * next(ticks))
        slow = run_experiment(cfg, output_dir=tmp_path / "slow")
        assert slow["trials"][0]["order_s"] >= 1000
        assert slow["trials"][0]["d_s"] >= 1000
        timed, slow_dir = tmp_path / "timed", tmp_path / "slow"
        csvs = sorted(p.name for p in timed.glob("*.csv"))
        assert len(csvs) == 4
        for name in csvs:
            assert (timed / name).read_bytes() == (slow_dir / name).read_bytes()

    def test_d_curves_match_pinned_digests(self, tmp_path):
        """The bytes of a small d-measuring sweep's curves are pinned.

        The digests were recorded with the CSR gather and OR-reduce d
        kernel; any change to d, its cluster or its rounding shows here.
        """
        cfg = ExperimentConfig.from_json(
            {
                "network": {"ba": {"n": 2000, "m": 2}},
                "strategies": [{"kind": "intentional"}, {"kind": "random_failure"}],
                "trials": 2,
                "budget": 0.5,
                "snapshot_cadence": {"s_every": 20, "d_every": 200},
            }
        )
        run_experiment(cfg, output_dir=tmp_path)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("intentional.curve.csv", "random_failure.curve.csv")
        }
        assert digests == {
            "intentional.curve.csv":
                "a1a6162000adeb122e85b133f8f94750dc412a042570a2c2c879f9a1a5ee0ef8",
            "random_failure.curve.csv":
                "1eec5f43607c32eaef41fcfe44a8a5f0c422329716bc70258118f451d589b96b",
        }

    def test_plots_written_when_asked(self, tmp_path):
        cfg = small_config(output_dir=str(tmp_path / "run"), plots=True)
        manifest = run_experiment(cfg)
        assert (tmp_path / "run" / "curves_S.svg").is_file()
        assert (tmp_path / "run" / "curves_d.svg").is_file()
        assert "curves_S.svg" in manifest["outputs"]
        svg = (tmp_path / "run" / "curves_S.svg").read_text()
        assert svg.startswith("<svg") and "intentional" in svg

    def test_requires_some_output_dir(self):
        with pytest.raises(ConfigError, match="output directory"):
            run_experiment(small_config(output_dir=None))

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        cfg = small_config(output_dir=str(tmp_path / "run"))
        real = experiment_mod.write_curve_csv
        calls = {"n": 0}

        def flaky(path, points, n_traces):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("disk on fire")
            real(path, points, n_traces)

        monkeypatch.setattr(experiment_mod, "write_curve_csv", flaky)
        with pytest.raises(RuntimeError, match="disk on fire"):
            run_experiment(cfg)
        leftovers = [p.name for p in (tmp_path / "run").iterdir()]
        assert leftovers == []
