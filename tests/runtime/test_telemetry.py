"""Worker telemetry: collector math, progress heartbeat, invariants.

The load-bearing contract: enabling ``worker_perf``/``progress``/the
run registry must leave every archived result byte-identical to a plain
serial run — telemetry observes the computation, it never joins it.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.report import ExperimentResult, SeriesResult
from repro.experiments.fig6_num_landmarks import run_fig6
from repro.experiments.registry import REGISTRY
from repro.experiments.suite import run_figure, run_suite
from repro.runtime import TaskHook, TaskScheduler, reset_cache, use_scheduler
from repro.runtime.scheduler import installed_hooks, map_tasks, task_hooks
from repro.runtime.telemetry import PerfCollector, ProgressReporter


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


@pytest.fixture(autouse=True)
def no_leaked_hook():
    yield
    assert installed_hooks() == (), "a test leaked a scheduler hook"


def _small_fig6(**kwargs):
    kwargs.setdefault("num_caches", 40)
    kwargs.setdefault("landmark_counts", (4, 6))
    kwargs.setdefault("num_groups", 4)
    return run_fig6(**kwargs)


class TestPerfCollectorMath:
    def test_summary_reduces_synthetic_records(self):
        collector = PerfCollector(jobs=2)
        collector.on_map_begin(2)
        collector.record_task(
            0,
            {"wall_s": 1.0, "queue_wait_s": 0.1, "events": 100},
            {"hits": 2, "misses": 1},
        )
        collector.record_task(
            1,
            {"wall_s": 3.0, "queue_wait_s": 0.3, "events": 300},
            {"hits": 0, "misses": 0, "disk_hits": 1},
        )
        collector.on_map_end(2.5)
        summary = collector.summary()
        assert summary["worker_jobs"] == 2.0
        assert summary["worker_tasks"] == 2.0
        assert summary["worker_busy_s"] == pytest.approx(4.0)
        assert summary["worker_span_s"] == pytest.approx(2.5)
        assert summary["worker_task_mean_s"] == pytest.approx(2.0)
        assert summary["worker_task_max_s"] == pytest.approx(3.0)
        assert summary["worker_straggler_ratio"] == pytest.approx(1.5)
        # busy / (jobs * span) = 4 / 5
        assert summary["worker_utilization"] == pytest.approx(0.8)
        assert summary["worker_queue_wait_mean_s"] == pytest.approx(0.2)
        assert summary["worker_queue_wait_max_s"] == pytest.approx(0.3)
        assert summary["worker_events"] == 400.0
        assert summary["worker_events_per_sec"] == pytest.approx(160.0)
        assert summary["worker_cache_hits"] == 2.0
        assert summary["worker_cache_misses"] == 1.0
        assert summary["worker_cache_disk_hits"] == 1.0

    def test_empty_collector_yields_zeroes(self):
        summary = PerfCollector(jobs=4).summary()
        assert summary["worker_tasks"] == 0.0
        assert summary["worker_utilization"] == 0.0
        assert summary["worker_straggler_ratio"] == 0.0

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            PerfCollector(jobs=0)

    def test_retries_and_timeouts_flow_into_the_summary(
        self, tmp_path, monkeypatch
    ):
        # The scheduler is the one counter of retries: the manifest's
        # worker_* summary takes the figure's retry_stats() delta.
        monkeypatch.setitem(REGISTRY, "fig3", _crashing_figure(tmp_path))
        with TaskScheduler(2, retry_backoff_s=0.01) as scheduler, \
                use_scheduler(scheduler):
            _result, manifest = run_figure(
                "fig3", {}, jobs=2, worker_perf=True
            )
        stats = scheduler.retry_stats()
        assert stats["retries"] >= 1
        assert manifest.run_stats["worker_retries"] == stats["retries"]
        assert manifest.run_stats["worker_timeouts"] == 0.0
        assert manifest.run_stats["worker_tasks"] == 4.0

    def test_clean_runs_report_zero_retries(self):
        _result, manifest = run_figure(
            "fig3",
            {"num_caches": 20, "group_sizes": (5,)},
            worker_perf=True,
        )
        assert manifest.run_stats["worker_retries"] == 0.0
        assert manifest.run_stats["worker_timeouts"] == 0.0


class TestProgressReporter:
    def test_reports_progress_and_final_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            label="fig6", stream=stream, interval_s=0.0
        )
        reporter.update(1, 3, events=500)
        reporter.update(3, 3, events=1500)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert "fig6" in lines[0]
        assert "1/3" in lines[0]
        assert "3/3" in lines[1] and "100%" in lines[1]
        assert "events/s" in lines[1]

    def test_throttles_between_emissions(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, interval_s=3600.0)
        for done in range(1, 5):
            reporter.update(done, 10, events=0)
        # Only the first update lands; the rest fall inside the window
        # (and none is the final task).
        assert len(stream.getvalue().strip().splitlines()) == 1


def _square(x):
    return x * x


def _crash_once(payload):
    """Die hard (os._exit) on the first attempt of the flagged payload."""
    marker = Path(payload["dir"]) / f"kill-{payload['x']}.marker"
    if payload["kill"] and not marker.exists():
        marker.write_text("died here")
        os._exit(86)
    return payload["x"]


def _crashing_figure(tmp_path):
    def figure():
        payloads = [
            {"x": x, "dir": str(tmp_path), "kill": x == 1} for x in range(4)
        ]
        values = tuple(float(v) for v in map_tasks(_crash_once, payloads))
        return ExperimentResult(
            "fig3", "x", (0.0, 1.0, 2.0, 3.0), (SeriesResult("x", values),)
        )

    return figure


class TestSchedulerIntegration:
    def _collect(self, jobs):
        collector = PerfCollector(jobs=jobs)
        with task_hooks(collector):
            with TaskScheduler(jobs) as sched, use_scheduler(sched):
                values = map_tasks(_square, [1, 2, 3, 4])
        assert values == [1, 4, 9, 16]
        return collector.summary()

    def test_inline_map_records_every_task(self):
        summary = self._collect(jobs=1)
        assert summary["worker_tasks"] == 4.0
        assert summary["worker_queue_wait_max_s"] == 0.0
        assert summary["worker_span_s"] > 0.0

    def test_pool_map_records_every_task(self):
        summary = self._collect(jobs=2)
        assert summary["worker_tasks"] == 4.0
        assert summary["worker_jobs"] == 2.0
        # Worker pickup necessarily happens after parent submission.
        assert summary["worker_queue_wait_mean_s"] >= 0.0
        assert summary["worker_span_s"] > 0.0

    def test_hook_restored_after_run_figure(self):
        sentinel = TaskHook()
        with task_hooks(sentinel):
            run_figure(
                "fig3",
                {"num_caches": 20, "group_sizes": (5,)},
                worker_perf=True,
            )
            assert installed_hooks() == (sentinel,)


class TestTelemetryTransparency:
    def test_archives_identical_with_full_telemetry_enabled(
        self, tmp_path, monkeypatch
    ):
        """jobs=4 + worker-perf + progress + registry == plain serial."""
        monkeypatch.setitem(REGISTRY, "fig6", _small_fig6)
        monkeypatch.setattr(sys, "stderr", io.StringIO())

        plain_dir = tmp_path / "plain"
        run_suite(
            figures=["fig6"], output_dir=plain_dir,
            repetitions=1, seed=19, jobs=1,
        )
        reset_cache()
        telemetry_dir = tmp_path / "telemetry"
        run = run_suite(
            figures=["fig6"], output_dir=telemetry_dir,
            repetitions=1, seed=19, jobs=4,
            worker_perf=True, progress=True,
            registry_dir=tmp_path / "registry",
        )
        for name in ("fig6.json", "fig6.csv"):
            assert (
                (plain_dir / name).read_bytes()
                == (telemetry_dir / name).read_bytes()
            ), f"{name} differs once telemetry is enabled"
        summary = run.manifests["fig6"].run_stats
        assert summary["worker_jobs"] == 4.0
        assert summary["worker_tasks"] > 0.0

    def test_suite_appends_manifests_to_registry(self, tmp_path, monkeypatch):
        from repro.obs.registry import RunRegistry

        monkeypatch.setitem(REGISTRY, "fig6", _small_fig6)
        run_suite(
            figures=["fig6"], repetitions=1, seed=19,
            registry_dir=tmp_path / "registry",
        )
        records = RunRegistry(tmp_path / "registry").records()
        assert [r.label for r in records] == ["fig6"]
        assert records[0].kind == "experiment"

    def test_sanitize_diff_clean_under_telemetry(self, tmp_path, monkeypatch):
        """The draw ledger is unperturbed by the perf hook."""
        from repro.sanitize.cli import run_sanitize
        from repro.cli import build_parser

        monkeypatch.setitem(REGISTRY, "fig6", _small_fig6)
        parser = build_parser()
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"

        collector = PerfCollector(jobs=1)
        with task_hooks(collector):
            args = parser.parse_args([
                "sanitize", "run", "--figure", "fig6",
                "--repetitions", "1", "--out", str(serial),
            ])
            assert run_sanitize(args, stdout=io.StringIO()) == 0
        reset_cache()

        collector = PerfCollector(jobs=4)
        with task_hooks(collector):
            args = parser.parse_args([
                "sanitize", "run", "--figure", "fig6",
                "--repetitions", "1", "--jobs", "4", "--out", str(parallel),
            ])
            assert run_sanitize(args, stdout=io.StringIO()) == 0

        args = parser.parse_args([
            "sanitize", "diff", str(serial), str(parallel),
        ])
        assert run_sanitize(args, stdout=io.StringIO()) == 0
        assert collector.summary()["worker_tasks"] > 0.0


_PROBE = """
import sys
from repro.experiments.suite import run_suite
from repro.experiments.fig6_num_landmarks import run_fig6
from repro.experiments.registry import REGISTRY

def small(**kwargs):
    kwargs.setdefault("num_caches", 30)
    kwargs.setdefault("landmark_counts", (4,))
    kwargs.setdefault("num_groups", 3)
    return run_fig6(**kwargs)

REGISTRY["fig6"] = small
run_suite(figures=["fig6"], repetitions=1, seed=5, jobs=2)
for forbidden in (
    "repro.runtime.telemetry", "repro.obs.registry", "repro.bench",
    "repro.runtime.journal", "repro.runtime.chaos",
    "scipy.optimize", "scipy.cluster.hierarchy",
):
    assert forbidden not in sys.modules, f"hot path imported {forbidden}"
print("clean")
"""


class TestZeroCostDisabled:
    def test_disabled_telemetry_imports_nothing(self):
        """A plain suite run must never load the new subsystems."""
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parents[2]),
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout
