import dataclasses
import json

import pytest

from netattack import (
    BaParams,
    CrashCriterion,
    ExperimentConfig,
    SnapshotCadence,
    StrategySpec,
    generate_ba,
    load_edge_list,
    run_attack,
    write_trace_csv,
)
from netattack.cli import main


def write_config(path, **data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestGenerate:
    def test_writes_loadable_graph(self, tmp_path, capsys):
        out = tmp_path / "net.txt"
        rc = main(["generate", "--n", "120", "--m", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert "120 nodes, 237 edges" in capsys.readouterr().out
        g, labels = load_edge_list(out)
        reference = generate_ba(BaParams(120, 2, seed=3))
        assert g.adjacency == reference.adjacency
        assert labels == [str(v) for v in range(120)]

    def test_bad_params_exit_1(self, tmp_path, capsys):
        rc = main(["generate", "--n", "2", "--m", "2", "--out", str(tmp_path / "x.txt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestAttack:
    def test_generated_file_attacks_like_the_original(self, tmp_path, capsys):
        net = tmp_path / "net.txt"
        assert main(["generate", "--n", "150", "--m", "2", "--seed", "4", "--out", str(net)]) == 0
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"edge_list": "net.txt"},
            strategies=[{"kind": "coordinated", "seed": 2}],
            base_seed=11,
            budget=0.6,
            snapshot_cadence={"s_every": 5, "d_every": None},
        )
        trace_path = tmp_path / "trace.csv"
        rc = main(["attack", "--config", cfg, "--out", str(trace_path)])
        assert rc == 0
        assert "coordinated: removed" in capsys.readouterr().out

        # the same attack driven in-process on the pristine generator output
        g = generate_ba(BaParams(150, 2, seed=4))
        spec = StrategySpec("coordinated", seed=2).with_seed(13)
        trace = run_attack(
            g,
            spec,
            budget=0.6,
            cadence=SnapshotCadence(s_every=5, d_every=None),
            criterion=CrashCriterion(0.01),
        )
        expect = tmp_path / "expect.csv"
        write_trace_csv(expect, trace)
        assert trace_path.read_bytes() == expect.read_bytes()

    def test_default_output_needs_output_dir(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 50, "m": 2}},
            strategies=[{"kind": "intentional"}],
        )
        rc = main(["attack", "--config", cfg])
        assert rc == 1
        assert "no trace output path" in capsys.readouterr().err

    def test_seed_and_epsilon_overrides(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 80, "m": 2}},
            strategies=[{"kind": "random_failure"}],
            snapshot_cadence={"s_every": 4, "d_every": None},
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["attack", "--config", cfg, "--out", str(a), "--seed", "21"]) == 0
        assert main(["attack", "--config", cfg, "--out", str(b), "--seed", "22"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_checks_only_the_strategy_it_runs(self, tmp_path, capsys):
        # attack is trial 0 of a sweep of its one strategy, so a bad
        # initial_target in a later strategy stops only the sweep
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 50, "m": 2}},
            strategies=[{"kind": "intentional"}, {"kind": "coordinated", "initial_target": 50}],
            output_dir=str(tmp_path / "out"),
        )
        assert main(["attack", "--config", cfg]) == 0
        assert (tmp_path / "out" / "trace_intentional.csv").is_file()
        assert main(["sweep", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: strategies[1].initial_target 50 is not a node")
        assert not (tmp_path / "out" / "thresholds.csv").exists()


class TestSweepAndReport:
    @pytest.fixture()
    def swept(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 120, "m": 2}},
            strategies=[{"kind": "intentional"}, {"kind": "greedy_sequential"}],
            trials=2,
            base_seed=3,
            budget=0.8,
            snapshot_cadence={"s_every": 6, "d_every": 24},
            output_dir=str(tmp_path / "out"),
        )
        rc = main(["sweep", "--config", cfg, "--threads", "2"])
        assert rc == 0
        assert "intentional: crash threshold mean=" in capsys.readouterr().out
        return tmp_path

    def test_sweep_outputs(self, swept):
        out = swept / "out"
        for name in (
            "intentional.curve.csv",
            "greedy_sequential.curve.csv",
            "thresholds.csv",
            "manifest.json",
        ):
            assert (out / name).is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 2
        assert len(manifest["trials"]) == 4

    def test_manifest_echoes_effective_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 60, "m": 2}},
            strategies=[{"kind": "intentional"}],
            snapshot_cadence={"s_every": 5, "d_every": None},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["sweep", "--config", cfg, "--seed", "7"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        expect = dataclasses.replace(ExperimentConfig.from_file(cfg), base_seed=7)
        assert ExperimentConfig.from_json(manifest["config"]) == expect

    def test_report_builds_svg(self, swept, capsys):
        out = swept / "out"
        svg = swept / "chart.svg"
        rc = main(
            [
                "report",
                str(out / "intentional.curve.csv"),
                str(out / "greedy_sequential.curve.csv"),
                "--out",
                str(svg),
            ]
        )
        assert rc == 0
        content = svg.read_text()
        assert content.startswith("<svg")
        assert "intentional" in content and "greedy_sequential" in content
        rc = main(["report", str(out / "intentional.curve.csv"), "--out", str(svg), "--column", "d"])
        assert rc == 0

    def test_report_without_requested_column(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 60, "m": 2}},
            strategies=[{"kind": "intentional"}],
            snapshot_cadence={"s_every": 5, "d_every": None},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["sweep", "--config", cfg]) == 0
        rc = main(
            ["report", str(tmp_path / "out" / "intentional.curve.csv"),
             "--out", str(tmp_path / "x.svg"), "--column", "d"]
        )
        assert rc == 1
        assert "no d data" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_config_exit_1(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "gone.json")])
        assert rc == 1
        assert f"error: config file not found: {tmp_path / 'gone.json'}" in capsys.readouterr().err
        # a config that is a directory, or not UTF-8, is no more readable
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"notes": "caf\xe9"}')
        for path in (tmp_path, latin1):
            for command in ("sweep", "attack"):
                assert main([command, "--config", str(path)]) == 1, (command, path)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and str(path) in err, err

    def test_report_input_that_is_a_directory_exit_1(self, tmp_path, capsys):
        assert main(["report", str(tmp_path), "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "name, plots",
        [
            ("intentional.curve.csv", False),
            ("thresholds.csv", False),
            ("manifest.json", False),
            ("curves_d.svg", True),
        ],
    )
    def test_output_name_that_is_a_directory_fails_before_any_trial(
        self, tmp_path, capsys, monkeypatch, name, plots
    ):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 50, "m": 2}},
            strategies=[{"kind": "intentional"}],
            output_dir=str(out),
            plots=plots,
        )

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the output names were checked")

        with monkeypatch.context() as m:
            m.setattr("netattack.experiment.run_trials", no_trials)
            assert main(["sweep", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: output {out / name}: is a directory\n"
        assert [p.name for p in out.iterdir()] == [name]
        # a chart name is free to be a directory when no chart is drawn
        if plots:
            write_config(
                tmp_path / "cfg.json",
                network={"ba": {"n": 50, "m": 2}},
                strategies=[{"kind": "intentional"}],
                output_dir=str(out),
            )
            assert main(["sweep", "--config", cfg]) == 0
            assert (out / "thresholds.csv").is_file()

    def test_invalid_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        rc = main(["attack", "--config", str(bad), "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_out_into_missing_directory_names_flag_and_directory(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 50, "m": 2}},
            strategies=[{"kind": "intentional"}],
            output_dir=str(tmp_path / "out"),
        )
        curve = tmp_path / "a.curve.csv"
        curve.write_text("f,S_mean\n0.0,1.0\n")
        missing = tmp_path / "gone"
        for argv in (
            ["generate", "--n", "30", "--m", "2", "--out", str(missing / "net.txt")],
            ["attack", "--config", cfg, "--out", str(missing / "t.csv")],
            ["report", str(curve), "--out", str(missing / "c.svg")],
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: --out {missing}")
            assert err.rstrip().endswith(f"no such directory: {missing}")
        assert not missing.exists()
        # sweep makes the directories it writes into
        assert main(["sweep", "--config", cfg, "--out", str(missing / "deep")]) == 0
        assert (missing / "deep" / "thresholds.csv").is_file()

    def test_out_of_the_wrong_kind_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        # a file where a directory goes, or a directory where a file goes
        a_file = tmp_path / "file"
        a_file.write_text("")
        a_dir = tmp_path / "dir"
        a_dir.mkdir()
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 50, "m": 2}},
            strategies=[{"kind": "intentional"}],
            output_dir=str(a_file),
        )
        curve = tmp_path / "a.curve.csv"
        curve.write_text("f,S_mean\n0.0,1.0\n")

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output path was checked")

        for name in ("generate_ba", "run_trials", "run_experiment"):
            monkeypatch.setattr(f"netattack.cli.{name}", no_work)
        monkeypatch.setattr("netattack.svgplot.write_chart", no_work)
        is_dir = f"--out {a_dir}: is a directory"
        for argv, err in (
            (["generate", "--n", "30", "--m", "2", "--out", str(a_dir)], is_dir),
            (["attack", "--config", cfg, "--out", str(a_dir)], is_dir),
            (["report", str(curve), "--out", str(a_dir)], is_dir),
            (["attack", "--config", cfg], f"output_dir {a_file}: not a directory: {a_file}"),
            (["sweep", "--config", cfg], f"output_dir {a_file}: not a directory: {a_file}"),
            (
                ["sweep", "--config", cfg, "--out", str(a_file)],
                f"--out {a_file}: not a directory: {a_file}",
            ),
            (
                ["sweep", "--config", cfg, "--out", str(a_file / "deep")],
                f"--out {a_file / 'deep'}: not a directory: {a_file}",
            ),
        ):
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == f"error: {err}\n", argv
        assert a_file.read_text() == "" and not any(a_dir.iterdir())

    def test_bad_thread_count_exit_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 50, "m": 2}},
            strategies=[{"kind": "intentional"}],
            output_dir=str(tmp_path / "out"),
        )
        rc = main(["sweep", "--config", cfg, "--threads", "0"])
        assert rc == 1

    def test_bad_epsilon_names_crash_epsilon(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 50, "m": 2}},
            strategies=[{"kind": "intentional"}],
            output_dir=str(tmp_path / "out"),
        )
        rc = main(["sweep", "--config", cfg, "--epsilon", "2"])
        assert rc == 1
        assert "error: crash_epsilon " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failing_worker_leaves_no_outputs(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 50, "m": 2}},
            strategies=[{"kind": "coordinated", "initial_target": 50}],
            trials=2,
            output_dir=str(tmp_path / "out"),
        )
        rc = main(["sweep", "--config", cfg, "--threads", "2"])
        assert rc == 1
        assert "strategies[0].initial_target 50 is not a node" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        rc = main(["attack", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "initial_target 50" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change,field",
        [
            ({"network": {"ba": {"n": 50}}}, "network.ba.m"),
            ({"network": {"ba": {"n": "50", "m": 2}}}, "network.ba.n"),
            ({"trials": "3"}, "trials"),
            ({"budget": "0.5"}, "budget"),
            ({"early_stop": "false"}, "early_stop"),
            ({"snapshot_cadence": {"s_every": "5"}}, "snapshot_cadence.s_every"),
            # a strategy entry is named by its position in the list
            pytest.param(
                {"strategies": [{"kind": "lower_bounded_parallel", "threshold": "4"}]},
                "strategies[0].threshold",
                id="strategy0-threshold",
            ),
            pytest.param(
                {"strategies": [{"kind": "intentional", "seed": "1"}]},
                "strategies[0].seed",
                id="strategy0-seed",
            ),
            pytest.param(
                {"strategies": [{"kind": "intentional",
                                 "protected": {"kind": "miss_medium_band", "miss_frac": "x"}}]},
                "strategies[0].protected.miss_frac",
                id="strategy0-miss_frac",
            ),
            pytest.param(
                {"strategies": [{"kind": "intentional"}, {"kind": "coordinated"},
                                {"kind": "random_failure", "seed": "1"},
                                {"kind": "greedy_sequential"}]},
                "strategies[2].seed",
                id="strategy2-seed",
            ),
            pytest.param(
                {"strategies": [{"kind": "intentional"}, {"kind": "bogus"}]},
                "strategies[1]:",
                id="strategy1-kind",
            ),
            # a bool is never an int
            pytest.param({"base_seed": True}, "base_seed", id="bool-base_seed"),
            # no JSON value reads as the default d cadence
            pytest.param(
                {"snapshot_cadence": {"d_every": "default"}},
                "snapshot_cadence.d_every",
                id="string-d_every",
            ),
        ],
    )
    def test_malformed_config_exit_1_names_field(self, tmp_path, capsys, change, field):
        data = {
            "network": {"ba": {"n": 50, "m": 2}},
            "strategies": [{"kind": "intentional"}],
            "output_dir": str(tmp_path / "out"),
        }
        data.update(change)
        cfg = write_config(tmp_path / "cfg.json", **data)
        rc = main(["sweep", "--config", cfg])
        assert rc == 1
        assert f"error: {field} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a b\nb c d\n", "net.txt:2: expected two labels"),
            ("# nothing\n", "no edges"),
            ("a a\n", "edge list has no edges"),
            (b"a b\nb \xff\n", "net.txt: not UTF-8 text"),
        ],
        ids=["malformed-line", "empty-graph", "self-loops-only", "not-utf8"],
    )
    def test_bad_edge_list_exit_1(self, tmp_path, capsys, text, message):
        net = tmp_path / "net.txt"
        net.write_bytes(text if isinstance(text, bytes) else text.encode())
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"edge_list": "net.txt"},
            strategies=[{"kind": "intentional"}],
            output_dir=str(tmp_path / "out"),
        )
        for argv in (["sweep", "--config", cfg], ["attack", "--config", cfg]):
            assert main(argv) == 1
            assert message in capsys.readouterr().err

    def test_unreadable_edge_list_exit_1(self, tmp_path, capsys, monkeypatch):
        """A directory, or a file the read is denied, is the input's fault."""
        (tmp_path / "netdir").mkdir()
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"edge_list": "netdir"},
            strategies=[{"kind": "intentional"}],
            output_dir=str(tmp_path / "out"),
        )
        assert main(["sweep", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: edge list {tmp_path / 'netdir'}: Is a directory\n"

        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("netattack.experiment.load_edge_list", denied)
        assert main(["attack", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"error: edge list {tmp_path / 'netdir'}: Permission denied\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [b"f,S_mean\n0.0,abc\n", b"x,S_mean\n0.0,1.0\n", b"f,S_mean\n0.0,1.0\n\xff\n"],
        ids=["value", "column", "not-utf8"],
    )
    def test_malformed_curve_csv_exit_1(self, tmp_path, capsys, text):
        curve = tmp_path / "bad.curve.csv"
        curve.write_bytes(text)
        assert main(["report", str(curve), "--out", str(tmp_path / "x.svg")]) == 1
        err = capsys.readouterr().err
        assert "bad.curve.csv: not a curve CSV" in err
        # one line, and no raw bytes of the file
        assert err.count("\n") == 1
        assert "b'" not in err and "\\x" not in err

    def test_engine_value_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # an engine invariant failure is a runtime error, not a bad config
        def broken(*args, **kwargs):
            raise ValueError("node 3 is removed twice")

        monkeypatch.setattr("netattack.metrics.giant_sizes", broken)
        cfg = write_config(
            tmp_path / "cfg.json",
            network={"ba": {"n": 50, "m": 2}},
            strategies=[{"kind": "intentional"}],
            output_dir=str(tmp_path / "out"),
        )
        assert main(["sweep", "--config", cfg]) == 2
        assert "runtime error: node 3 is removed twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unexpected_failures_exit_2(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("chart writer failed")

        monkeypatch.setattr("netattack.svgplot.write_chart", broken)
        curve = tmp_path / "a.curve.csv"
        curve.write_text("f,S_mean\n0.0,1.0\n")
        rc = main(["report", str(curve), "--out", str(tmp_path / "x.svg")])
        assert rc == 2
        assert capsys.readouterr().err == "runtime error: chart writer failed\n"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("netattack ")
