"""The bench subsystem: measurement, persistence, gating."""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.bench import (
    DEFAULT_SCENARIO,
    LARGE_SCENARIO,
    SMALL_SCENARIO,
    BenchResult,
    BenchScenario,
    ScenarioRun,
    gate_bench,
    load_bench,
    run_bench,
    save_bench,
    scenario_by_name,
)
from repro.cli import build_parser
from repro.errors import BenchmarkError


def _result(label="base", events=1000.0, plain=50_000.0, **extra):
    engine = {"events": events, "plain_events_per_sec": plain}
    engine.update({str(k): float(v) for k, v in extra.items()})
    return BenchResult(
        label=label, cores=4, created_unix=100.0,
        scenarios={"small": ScenarioRun(SMALL_SCENARIO, engine)},
    )


class TestScenario:
    def test_named_scenarios(self):
        assert scenario_by_name("default") == BenchScenario()
        assert scenario_by_name("small") == SMALL_SCENARIO
        with pytest.raises(BenchmarkError, match="unknown bench scenario"):
            scenario_by_name("huge")

    def test_round_trips_through_dict(self):
        scenario = BenchScenario(num_caches=42, rounds=2)
        assert BenchScenario.from_dict(scenario.to_dict()) == scenario

    def test_malformed_payload_raises(self):
        with pytest.raises(BenchmarkError, match="malformed"):
            BenchScenario.from_dict({"num_caches": "lots"})
        with pytest.raises(BenchmarkError, match="unknown bench measure"):
            BenchScenario.from_dict({"measure": "plian"})
        with pytest.raises(BenchmarkError, match="rounds must be >= 1"):
            BenchScenario.from_dict({"rounds": 0})
        # A misspelt key is named, not dropped for the default.
        with pytest.raises(BenchmarkError,
                           match="unknown bench scenario key.*: mesure"):
            BenchScenario.from_dict({"mesure": "plain", "num_caches": 5})


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        result = _result(instrumented_events_per_sec=40_000.0)
        path = tmp_path / "bench.json"
        save_bench(result, path)
        loaded = load_bench(path)
        assert loaded == result

    def test_rejects_wrong_kind_and_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "run_manifest"}))
        with pytest.raises(BenchmarkError, match="not a bench result"):
            load_bench(path)
        payload = _result().to_dict()
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchmarkError, match="format version 99"):
            load_bench(path)
        # Format 2 (a primary scenario plus extras) is no longer read.
        payload["format_version"] = 2
        payload["scenario"] = payload["engine"] = {}
        del payload["scenarios"]
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchmarkError, match="format version 2"):
            load_bench(path)

    def test_committed_baseline_gates_three_metrics(self):
        path = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "baselines" / "BENCH_engine_main.json"
        )
        baseline = load_bench(path)
        assert baseline.label == "pr7-main"
        assert baseline.scenarios["default"].scenario == DEFAULT_SCENARIO
        assert baseline.scenarios["large"].scenario == LARGE_SCENARIO
        assert sorted(baseline.metrics()) == [
            "default.instrumented_events_per_sec",
            "default.plain_events_per_sec",
            "large.plain_events_per_sec",
        ]

    def test_missing_file_raises_bencherror(self, tmp_path):
        with pytest.raises(BenchmarkError, match="cannot read"):
            load_bench(tmp_path / "absent.json")


class TestMeasurement:
    def test_small_scenario_measures_throughput(self):
        result = run_bench({"small": SMALL_SCENARIO}, label="test")
        engine = result.scenarios["small"].engine
        assert engine["events"] > 0
        for name in ("plain", "instrumented"):
            assert engine[f"{name}_events_per_sec"] > 0
        metrics = result.metrics()
        assert "small.plain_events_per_sec" in metrics
        # The raw event count anchors comparability, it is not gated.
        assert "small.events" not in metrics

    def test_event_count_is_deterministic(self):
        a = run_bench({"small": SMALL_SCENARIO})
        b = run_bench({"small": SMALL_SCENARIO})
        assert a.scenarios["small"].engine["events"] \
            == b.scenarios["small"].engine["events"]


class TestGate:
    def test_identical_results_pass(self):
        report = gate_bench(_result(), _result(label="cand"))
        assert report.passed
        assert report.regressions == []

    def test_twenty_percent_regression_fails_default_tolerance(self):
        baseline = _result(plain=50_000.0)
        candidate = _result(label="cand", plain=40_000.0)
        report = gate_bench(baseline, candidate)
        assert not report.passed
        assert [c.name for c in report.regressions] == [
            "small.plain_events_per_sec"
        ]

    def test_small_dip_inside_tolerance_passes(self):
        report = gate_bench(_result(plain=50_000.0),
                            _result(label="cand", plain=45_000.0))
        assert report.passed

    def test_improvement_passes(self):
        report = gate_bench(_result(plain=50_000.0),
                            _result(label="cand", plain=80_000.0))
        assert report.passed

    def test_mismatched_event_counts_are_incomparable(self):
        with pytest.raises(BenchmarkError, match="not comparable"):
            gate_bench(_result(events=1000.0),
                       _result(label="cand", events=2000.0))

    def test_no_shared_metrics_raises(self):
        empty = BenchResult(label="empty", created_unix=1.0)
        with pytest.raises(BenchmarkError, match="no throughput metrics"):
            gate_bench(empty, empty)

    def test_negative_tolerance_rejected(self):
        for tolerance in (-0.1, float("nan"), float("inf")):
            with pytest.raises(BenchmarkError, match="tolerance"):
                gate_bench(_result(), _result(), tolerance=tolerance)

    def test_one_sided_metrics_are_skipped_not_gated(self):
        baseline = _result()
        candidate = _result(
            label="cand", instrumented_events_per_sec=40_000.0
        )
        report = gate_bench(baseline, candidate)
        assert report.skipped == ("small.instrumented_events_per_sec",)
        assert [c.name for c in report.checks] == [
            "small.plain_events_per_sec"
        ]


class TestCli:
    def _run(self, argv):
        from repro.bench.cli import run_bench_cli

        parser = build_parser()
        out, err = io.StringIO(), io.StringIO()
        code = run_bench_cli(parser.parse_args(argv), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def test_run_writes_result(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        path = tmp_path / "out.json"
        code, out, _ = self._run([
            "bench", "run", "--scenarios", "small", "--rounds", "1",
            "--label", "clitest", "--out", str(path),
        ])
        assert code == 0
        assert "small.plain_events_per_sec" in out
        assert load_bench(path).label == "clitest"

    def test_run_registers_when_registry_given(self, tmp_path, monkeypatch):
        from repro.obs.registry import RunRegistry

        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        code, _, _ = self._run([
            "bench", "run", "--scenarios", "small", "--rounds", "1",
            "--label", "reg", "--registry", str(tmp_path / "runs"),
        ])
        assert code == 0
        records = RunRegistry(tmp_path / "runs").records()
        assert [r.kind for r in records] == ["bench"]
        assert records[0].label == "bench:reg"

    def test_gate_exit_codes(self, tmp_path):
        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        save_bench(_result(plain=50_000.0), base)
        save_bench(_result(label="slow", plain=30_000.0), slow)

        code, out, _ = self._run([
            "bench", "gate", "--baseline", str(base),
            "--candidate", str(base),
        ])
        assert code == 0 and "PASS" in out

        code, out, _ = self._run([
            "bench", "gate", "--baseline", str(base),
            "--candidate", str(slow),
        ])
        assert code == 1 and "FAIL" in out and "REGRESSED" in out

        # A generous tolerance absorbs the same 40% drop.
        code, out, _ = self._run([
            "bench", "gate", "--baseline", str(base),
            "--candidate", str(slow), "--tolerance", "0.6",
        ])
        assert code == 0

    def test_usage_errors_exit_2(self, tmp_path):
        incomparable = tmp_path / "other.json"
        base = tmp_path / "base.json"
        save_bench(_result(), base)
        save_bench(_result(label="other", events=2.0), incomparable)

        code, _, err = self._run([
            "bench", "gate", "--baseline", str(tmp_path / "absent.json"),
        ])
        assert code == 2 and "cannot read" in err

        code, _, err = self._run([
            "bench", "gate", "--baseline", str(base),
            "--candidate", str(incomparable),
        ])
        assert code == 2 and "not comparable" in err

        code, _, err = self._run([
            "bench", "gate", "--baseline", str(base),
            "--candidate", str(base), "--tolerance", "nan",
        ])
        assert code == 2 and "tolerance" in err

        typo = tmp_path / "typo.json"
        payload = _result().to_dict()
        payload["scenarios"]["small"]["scenario"]["measure"] = "plian"
        typo.write_text(json.dumps(payload))
        code, _, err = self._run([
            "bench", "gate", "--baseline", str(base),
            "--candidate", str(typo),
        ])
        assert code == 2 and "unknown bench measure" in err

        misspelt = tmp_path / "misspelt.json"
        payload = _result().to_dict()
        payload["scenarios"]["small"]["scenario"]["mesure"] = "plain"
        misspelt.write_text(json.dumps(payload))
        code, _, err = self._run([
            "bench", "gate", "--baseline", str(misspelt),
            "--candidate", str(base),
        ])
        assert code == 2 and "unknown bench scenario key(s): mesure" in err

        code, _, err = self._run(
            ["bench", "run", "--scenarios", "small", "--rounds", "0"]
        )
        assert code == 2 and "rounds must be >= 1" in err

        code, _, err = self._run(["bench", "run", "--scenarios", "huge"])
        assert code == 2 and "unknown bench scenario" in err

    def test_gate_json_output(self, tmp_path):
        base = tmp_path / "base.json"
        save_bench(_result(), base)
        code, out, _ = self._run([
            "bench", "gate", "--baseline", str(base),
            "--candidate", str(base), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["checks"][0]["ratio"] == 1.0

    def test_gate_measures_fresh_candidate(self, tmp_path, monkeypatch):
        """Without --candidate the gate measures with the baseline's
        scenario (pinned to the small one here so the test stays fast)."""
        base = tmp_path / "base.json"
        fresh = run_bench({"small": SMALL_SCENARIO}, label="base")
        save_bench(fresh, base)
        out_path = tmp_path / "candidate.json"
        code, out, _ = self._run([
            "bench", "gate", "--baseline", str(base),
            "--tolerance", "0.99", "--out", str(out_path),
        ])
        assert code == 0
        measured = load_bench(out_path)
        assert list(measured.scenarios) == ["small"]
        assert measured.scenarios["small"].scenario == SMALL_SCENARIO
        assert measured.scenarios["small"].engine["events"] \
            == fresh.scenarios["small"].engine["events"]


def test_scenario_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SMALL_SCENARIO.rounds = 5  # type: ignore[misc]
