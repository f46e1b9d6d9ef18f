"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def network_file(tmp_path):
    path = tmp_path / "net.npz"
    code = main(
        ["network", "--caches", "15", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture
def groups_file(tmp_path, network_file):
    path = tmp_path / "groups.json"
    code = main(
        [
            "form-groups",
            "--network", str(network_file),
            "--scheme", "SL",
            "--k", "3",
            "--landmarks", "5",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestNetworkCommand:
    def test_generates_and_reports(self, capsys, tmp_path):
        code = main(["network", "--caches", "10", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "caches=10" in out
        assert "server-dist" in out

    def test_writes_archive(self, network_file):
        assert network_file.exists()


class TestFormGroupsCommand:
    def test_forms_and_saves(self, capsys, groups_file):
        out = capsys.readouterr().out
        assert "SL:" in out
        assert "gicost" in out
        payload = json.loads(groups_file.read_text())
        assert payload["scheme"] == "SL"
        members = [m for g in payload["groups"] for m in g["members"]]
        assert sorted(members) == list(range(1, 16))

    def test_sdsl_scheme(self, capsys, network_file, tmp_path):
        code = main(
            [
                "form-groups",
                "--network", str(network_file),
                "--scheme", "SDSL",
                "--k", "3",
                "--landmarks", "5",
            ]
        )
        assert code == 0
        assert "SDSL" in capsys.readouterr().out

    def test_missing_network_errors(self, capsys, tmp_path):
        code = main(
            [
                "form-groups",
                "--network", str(tmp_path / "nope.npz"),
                "--k", "3",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSimulateCommand:
    def test_simulates_and_exports(
        self, capsys, tmp_path, network_file, groups_file
    ):
        csv_path = tmp_path / "stats.csv"
        code = main(
            [
                "simulate",
                "--network", str(network_file),
                "--groups", str(groups_file),
                "--requests-per-cache", "20",
                "--documents", "50",
                "--export-csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg latency" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("cache_node,")

    def test_per_group_and_trace_stats(
        self, capsys, network_file, groups_file
    ):
        code = main(
            [
                "simulate",
                "--network", str(network_file),
                "--groups", str(groups_file),
                "--requests-per-cache", "30",
                "--documents", "50",
                "--per-group",
                "--trace-stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workload:" in out
        assert "zipf-alpha" in out
        assert "gicost_ms" in out         # per-group table header
        assert "server_dist_ms" in out


class TestExperimentCommand:
    def test_runs_and_saves(self, capsys, tmp_path):
        json_path = tmp_path / "fig4.json"
        csv_path = tmp_path / "fig4.csv"
        code = main(
            [
                "experiment", "fig4",
                "--repetitions", "1",
                "--out", str(json_path),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== fig4 ==" in out
        assert json.loads(json_path.read_text())["experiment_id"] == "fig4"
        assert csv_path.exists()

    def test_plot_flag(self, capsys):
        code = main(["experiment", "fig4", "--repetitions", "1", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sl_ms" in out
        assert "(! = overlap)" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestFigureArguments:
    """Every figure command builds the runner's arguments one way."""

    @pytest.mark.parametrize(
        "command",
        [
            ["experiment", "fig4"],
            ["sanitize", "run", "--figure", "fig4", "--out", "ledger.json"],
            ["chaos", "run", "--figure", "fig4", "--jobs", "2"],
        ],
        ids=["experiment", "sanitize-run", "chaos-run"],
    )
    def test_type_error_inside_a_figure_is_not_retried(
        self, command, monkeypatch, tmp_path
    ):
        """A figure that raises TypeError runs once, with --repetitions."""
        from repro.experiments import registry

        calls = []

        def broken_fig4(seed=13, repetitions=3, paper_scale=False):
            calls.append({"seed": seed, "repetitions": repetitions})
            raise TypeError("a bug inside the figure")

        monkeypatch.setitem(registry.REGISTRY, "fig4", broken_fig4)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TypeError, match="a bug inside the figure"):
            main([*command, "--seed", "5", "--repetitions", "2"])
        assert calls == [{"seed": 5, "repetitions": 2}]

    def test_fig3_ignores_repetitions(self, capsys):
        code = main(["experiment", "fig3", "--repetitions", "2"])
        assert code == 0
        assert "== fig3 ==" in capsys.readouterr().out


class TestSchedulerTimeArguments:
    """Invalid scheduler times are usage errors, not tracebacks."""

    @pytest.mark.parametrize(
        "command",
        [["experiment", "fig3"], ["chaos", "run", "--figure", "fig3"]],
        ids=["experiment", "chaos-run"],
    )
    @pytest.mark.parametrize(
        "option",
        [
            ["--task-timeout", "nan"],
            ["--task-timeout", "0"],
            ["--task-timeout", "-1"],
            ["--task-timeout", "inf"],
            ["--retry-backoff", "nan"],
            ["--retry-backoff", "inf"],
            ["--retry-backoff", "-0.5"],
            ["--max-retries", "-1"],
        ],
        ids=lambda option: " ".join(option),
    )
    def test_rejected_with_exit_code_2(self, capsys, command, option):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, *option])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option[0]}: must be" in err
        assert "Traceback" not in err

    def test_valid_times_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["experiment", "fig3", "--task-timeout", "2.5",
             "--retry-backoff", "0"]
        )
        assert (args.task_timeout, args.retry_backoff) == (2.5, 0.0)


class TestCountArguments:
    """Zero or negative counts are usage errors before any work runs."""

    @pytest.mark.parametrize(
        "command",
        [
            ["experiment", "fig3"],
            ["experiment", "fig4"],
            ["experiment", "all"],
            ["sanitize", "run", "--figure", "fig6", "--out", "x.json"],
            ["chaos", "run", "--figure", "fig6"],
        ],
        ids=["experiment-fig3", "experiment-fig4", "experiment-all",
             "sanitize-run", "chaos-run"],
    )
    @pytest.mark.parametrize(
        "option",
        [["--jobs", "0"], ["--jobs", "-2"], ["--repetitions", "0"]],
        ids=lambda option: " ".join(option),
    )
    def test_rejected_with_exit_code_2(
        self, capsys, tmp_path, monkeypatch, command, option
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*command, *option])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {option[0]}: must be a positive integer" \
            in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestExperimentAll:
    def test_all_archives_selected(self, capsys, tmp_path, monkeypatch):
        """'experiment all' runs the registry and archives results."""
        from repro.experiments import registry, run_fig4

        # Shrink the registry so the test stays fast.
        small = {
            "fig4": lambda **kw: run_fig4(
                network_sizes=(10,), num_landmarks=4, repetitions=1
            )
        }
        monkeypatch.setattr(registry, "REGISTRY", small)
        import repro.experiments.suite as suite

        monkeypatch.setattr(suite, "REGISTRY", small)
        out_dir = tmp_path / "results"
        code = main(
            [
                "experiment", "all",
                "--figures", "fig4",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== fig4 ==" in out
        assert (out_dir / "fig4.json").exists()
        assert (out_dir / "summary.md").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["all", "--out", "x.json"], "experiment all: --out apply"),
            (["all", "--csv", "x.csv"], "experiment all: --csv apply"),
            (["all", "--figures", "fig3", "--plot"],
             "experiment all: --plot apply"),
            (["all", "--out", "x.json", "--csv", "x.csv", "--plot"],
             "experiment all: --out, --csv, --plot apply"),
            (["fig3", "--figures", "fig4"],
             "experiment fig3: --figures selects figures"),
        ],
        ids=["out", "csv", "plot", "all-three", "figures-on-one-figure"],
    )
    def test_ignored_options_are_usage_errors(
        self, capsys, tmp_path, monkeypatch, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", *argv])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert message in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestSharedFigureOptions:
    """experiment, chaos run and sanitize run declare their options once."""

    @pytest.mark.parametrize(
        "command, expected",
        [
            (["experiment", "fig3"], (1, 3, 0.1)),
            (["chaos", "run", "--figure", "fig3"], (2, 5, 0.05)),
        ],
        ids=["experiment", "chaos-run"],
    )
    def test_each_command_keeps_its_defaults(self, command, expected):
        from repro.cli import build_parser

        args = build_parser().parse_args(command)
        assert (args.jobs, args.max_retries, args.retry_backoff) == expected
        assert args.task_timeout is None
        assert (args.seed, args.repetitions, args.paper_scale) == (
            None, None, False
        )
        assert (args.cache_dir, args.registry) == (None, None)

    def test_sanitize_run_has_no_scheduler_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sanitize", "run", "--figure", "fig3", "--out", "x.json"]
        )
        assert args.jobs == 1
        assert not hasattr(args, "max_retries")

    def test_zero_retries_allowed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["experiment", "fig3", "--max-retries", "0"]
        )
        assert args.max_retries == 0


class TestExperimentRegistry:
    """Every figure run journals and registers through run_suite."""

    @pytest.fixture
    def fig3_calls(self, monkeypatch):
        from repro.experiments import registry, run_fig3

        calls = []

        def small_fig3(**kwargs):
            calls.append(kwargs)
            return run_fig3(num_caches=20, group_sizes=(5, 10), **kwargs)

        monkeypatch.setitem(registry.REGISTRY, "fig3", small_fig3)
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        return calls

    def test_env_registry_covers_experiment_all(
        self, capsys, tmp_path, monkeypatch, fig3_calls
    ):
        from repro.obs.registry import RunRegistry

        root = tmp_path / "runs"
        monkeypatch.setenv("REPRO_REGISTRY", str(root))
        code = main(
            ["experiment", "all", "--figures", "fig3", "--repetitions", "1"]
        )
        assert code == 0
        records = RunRegistry(root).records()
        assert [(r.kind, r.label) for r in records] == [("experiment", "fig3")]
        assert len(list((root / "journals").glob("*.jsonl"))) == 1
        out = capsys.readouterr().out
        assert f"registered run {records[0].run_id}" in out
        assert "task journal " in out

    def test_experiment_all_resumes_from_its_journal(
        self, capsys, tmp_path, fig3_calls
    ):
        import re

        common = [
            "experiment", "all", "--figures", "fig3",
            "--registry", str(tmp_path / "runs"),
        ]
        assert main([*common, "--out-dir", str(tmp_path / "full")]) == 0
        capsys.readouterr()
        assert main([
            *common, "--resume", "auto",
            "--out-dir", str(tmp_path / "resumed"),
        ]) == 0
        line = re.search(
            r"(\d+) unit\(s\) on record, (\d+) unit\(s\) resumed",
            capsys.readouterr().out,
        )
        assert line is not None
        assert int(line.group(2)) == int(line.group(1)) > 0
        for name in ("fig3.json", "fig3.csv", "summary.md"):
            assert (tmp_path / "full" / name).read_bytes() == (
                tmp_path / "resumed" / name
            ).read_bytes()

    def test_mismatched_resume_fails_before_any_work(
        self, capsys, tmp_path, fig3_calls
    ):
        code = main([
            "experiment", "all", "--figures", "fig3",
            "--registry", str(tmp_path / "runs"), "--resume", "zzzz",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "does not match this sweep" in capsys.readouterr().err
        assert fig3_calls == []
        assert list(tmp_path.iterdir()) == []

    def test_resume_needs_a_registry(self, capsys, fig3_calls):
        assert main(["experiment", "fig3", "--resume", "auto"]) == 1
        assert "--resume requires --registry" in capsys.readouterr().err
        assert fig3_calls == []

    def test_chaos_run_registers_without_journaling(
        self, capsys, tmp_path, monkeypatch, fig3_calls
    ):
        from repro.obs.registry import RunRegistry

        root = tmp_path / "runs"
        monkeypatch.setenv("REPRO_REGISTRY", str(root))
        assert main(["chaos", "run", "--figure", "fig3"]) == 0
        records = RunRegistry(root).records()
        assert [(r.kind, r.label) for r in records] == [
            ("chaos", "chaos:fig3")
        ]
        assert not (root / "journals").exists()
        assert "chaos ok: fig3 survived" in capsys.readouterr().out


class TestCompareCommand:
    def test_no_regression_exit_zero(self, capsys, tmp_path):
        from repro.analysis.report import ExperimentResult, SeriesResult
        from repro.persist import save_result

        result = ExperimentResult(
            experiment_id="figX",
            x_label="k",
            x_values=(1,),
            series=(SeriesResult("a_ms", (5.0,)),),
        )
        base = tmp_path / "base.json"
        save_result(result, base)
        code = main(["compare", str(base), str(base)])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exit_one(self, capsys, tmp_path):
        from repro.analysis.report import ExperimentResult, SeriesResult
        from repro.persist import save_result

        def result_of(value):
            return ExperimentResult(
                experiment_id="figX",
                x_label="k",
                x_values=(1,),
                series=(SeriesResult("a_ms", (value,)),),
            )

        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        save_result(result_of(5.0), base)
        save_result(result_of(9.0), cand)
        code = main(["compare", str(base), str(cand)])
        # A finding exits 1, as runs compare and bench gate do; 2 is
        # argparse's usage error.
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_negative_tolerance_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "a.json", "b.json", "--tolerance", "-0.1"])
        assert excinfo.value.code == 2
        assert "--tolerance" in capsys.readouterr().err


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["form-groups", "simulate"])
    def test_scheme_choices_come_from_the_registry(self, command):
        from repro.cli import build_parser
        from repro.core.schemes import SCHEME_NAMES

        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if action.dest == "command"
        ).choices[command]
        [scheme] = [a for a in sub._actions if a.dest == "scheme"]
        assert tuple(scheme.choices) == SCHEME_NAMES


class TestInstrumentedSimulate:
    def run_instrumented(self, tmp_path, network_file, extra):
        return main(
            [
                "simulate",
                "--network", str(network_file),
                "--scheme", "SDSL",
                "--landmarks", "5",
                "--requests-per-cache", "30",
                "--documents", "50",
                *extra,
            ]
        )

    def test_forms_groups_in_process(self, capsys, tmp_path, network_file):
        code = self.run_instrumented(tmp_path, network_file, [])
        assert code == 0
        out = capsys.readouterr().out
        assert "formed" in out
        assert "SDSL" in out
        assert "p95 latency" in out

    def test_trace_replays_to_reported_rates(
        self, capsys, tmp_path, network_file
    ):
        from repro.obs import read_jsonl, replay_hit_rates

        trace_path = tmp_path / "trace.jsonl"
        code = self.run_instrumented(
            tmp_path, network_file, ["--trace", str(trace_path)]
        )
        assert code == 0
        records = read_jsonl(trace_path)
        assert records
        rates = replay_hit_rates(records)
        out = capsys.readouterr().out
        assert f"local hit share            |   {rates['local']:.2f}" in out

    def test_trace_capacity_bounds_file(self, tmp_path, network_file):
        trace_path = tmp_path / "trace.jsonl"
        code = self.run_instrumented(
            tmp_path, network_file,
            ["--trace", str(trace_path), "--trace-capacity", "10"],
        )
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 10

    def test_manifest_has_phases_and_series(self, tmp_path, network_file):
        from repro.persist import load_manifest

        manifest_path = tmp_path / "run.json"
        code = self.run_instrumented(
            tmp_path, network_file,
            ["--manifest", str(manifest_path), "--sample-ms", "500"],
        )
        assert code == 0
        manifest = load_manifest(manifest_path)
        # the GF-Coordinator steps are timed once, under form_groups
        for step in ("landmarks", "features", "cluster"):
            assert f"form_groups/{step}" in manifest.phase_timings_s
        assert not any(
            name.startswith("gf/") for name in manifest.phase_timings_s
        )
        assert manifest.totals["requests"] > 0
        assert manifest.run_stats["events_per_sec"] > 0
        assert len(manifest.timeseries) >= 10

    def test_manifest_with_preformed_groups(
        self, tmp_path, network_file, groups_file
    ):
        from repro.persist import load_manifest

        manifest_path = tmp_path / "run.json"
        code = main(
            [
                "simulate",
                "--network", str(network_file),
                "--groups", str(groups_file),
                "--requests-per-cache", "20",
                "--documents", "50",
                "--manifest", str(manifest_path),
            ]
        )
        assert code == 0
        manifest = load_manifest(manifest_path)
        assert manifest.totals["requests"] > 0
        assert "workload" in manifest.phase_timings_s


class TestReportCommand:
    def test_pretty_prints_manifest(self, capsys, tmp_path, network_file):
        manifest_path = tmp_path / "run.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "simulate",
                "--network", str(network_file),
                "--scheme", "SL",
                "--landmarks", "5",
                "--requests-per-cache", "30",
                "--documents", "50",
                "--trace", str(trace_path),
                "--sample-ms", "500",
                "--manifest", str(manifest_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["report", str(manifest_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulate:SL" in out
        assert "form_groups/landmarks" in out
        assert "time series:" in out
        assert "hit_rate" in out
        assert "trace.records" in out

    def test_missing_manifest_errors(self, capsys, tmp_path):
        code = main(["report", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestFaultFlags:
    def test_form_groups_with_faults_reports_degraded(
        self, capsys, tmp_path, network_file
    ):
        out_path = tmp_path / "degraded.json"
        code = main(
            [
                "form-groups",
                "--network", str(network_file),
                "--scheme", "SL",
                "--k", "3",
                "--landmarks", "5",
                "--probe-loss", "0.3",
                "--fail-landmarks", "1",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded formation" in out
        payload = json.loads(out_path.read_text())
        assert payload["degraded"] is True

    def test_zero_fault_flags_leave_archive_clean(
        self, tmp_path, network_file
    ):
        """Explicit zeros are a no-op: byte-identical archive."""
        paths = []
        for name, extra in (
            ("plain.json", []),
            ("zeros.json", ["--probe-loss", "0.0", "--fail-landmarks", "0"]),
        ):
            path = tmp_path / name
            code = main(
                [
                    "form-groups",
                    "--network", str(network_file),
                    "--scheme", "SL",
                    "--k", "3",
                    "--landmarks", "5",
                    "--out", str(path),
                ]
                + extra
            )
            assert code == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_simulate_manifest_carries_fault_counters(
        self, tmp_path, network_file
    ):
        from repro.persist import load_manifest

        manifest_path = tmp_path / "run.json"
        code = main(
            [
                "simulate",
                "--network", str(network_file),
                "--scheme", "SL",
                "--k", "3",
                "--landmarks", "5",
                "--requests-per-cache", "20",
                "--documents", "50",
                "--probe-loss", "0.3",
                "--fail-landmarks", "1",
                "--crash", "2:100",
                "--crash", "3:200:400",
                "--partition", "150:300:4,5",
                "--manifest", str(manifest_path),
            ]
        )
        assert code == 0
        manifest = load_manifest(manifest_path)
        assert manifest.config["probe_loss"] == 0.3
        assert manifest.config["fail_landmarks"] == 1
        assert manifest.run_stats["degraded"] == 1.0
        for key in ("probes_lost", "retries", "timeouts"):
            assert key in manifest.run_stats
        assert manifest.run_stats["scheduled_crashes"] == 2.0
        assert manifest.run_stats["scheduled_partitions"] == 1.0
        assert "partition_timeouts" in manifest.run_stats

    def test_formation_faults_conflict_with_preformed_groups(
        self, capsys, network_file, groups_file
    ):
        code = main(
            [
                "simulate",
                "--network", str(network_file),
                "--groups", str(groups_file),
                "--probe-loss", "0.2",
            ]
        )
        assert code == 1
        assert "re-run form-groups" in capsys.readouterr().err

    def test_malformed_crash_spec_rejected(self, capsys, network_file):
        code = main(
            [
                "simulate",
                "--network", str(network_file),
                "--scheme", "SL",
                "--k", "3",
                "--landmarks", "5",
                "--crash", "banana",
            ]
        )
        assert code == 1
        assert "--crash" in capsys.readouterr().err

    def test_malformed_partition_spec_rejected(self, capsys, network_file):
        code = main(
            [
                "simulate",
                "--network", str(network_file),
                "--scheme", "SL",
                "--k", "3",
                "--landmarks", "5",
                "--partition", "10:20",
            ]
        )
        assert code == 1
        assert "--partition" in capsys.readouterr().err

    def test_invalid_probe_loss_rejected(self, capsys, network_file):
        code = main(
            [
                "form-groups",
                "--network", str(network_file),
                "--k", "3",
                "--landmarks", "5",
                "--probe-loss", "1.5",
            ]
        )
        assert code == 1
        assert "probe_loss_rate" in capsys.readouterr().err
