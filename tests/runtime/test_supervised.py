"""Supervised scheduler execution: retries, deadlines, SchedulerError.

The crash/timeout tasks must be module-level (picklable by reference)
and fault at most once per payload, which they coordinate through
marker files in a tmp directory — the first attempt leaves a marker
and dies, the retried attempt finds it and completes.
"""

import os
import time
from pathlib import Path

import pytest

from repro.errors import SchedulerError
from repro.runtime.cache import reset_cache
from repro.runtime.scheduler import TaskScheduler, task_hooks
from repro.runtime.telemetry import PerfCollector


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


def _square(x):
    return x * x


def _crash_once(payload):
    """Die hard (os._exit) on the first attempt of flagged payloads."""
    x = payload["x"]
    if payload.get("kill"):
        marker = Path(payload["dir"]) / f"kill-{x}.marker"
        if not marker.exists():
            marker.write_text("died here")
            os._exit(86)
    return x * x


def _crash_always(payload):
    os._exit(86)


def _stall_once(payload):
    """Outlive any reasonable deadline on the first flagged attempt."""
    x = payload["x"]
    if payload.get("stall"):
        marker = Path(payload["dir"]) / f"stall-{x}.marker"
        if not marker.exists():
            marker.write_text("stalled here")
            time.sleep(30.0)
    return x + 100


def _raise_value_error(payload):
    raise ValueError(f"unit {payload} objects")


def _return_unpicklable(x):
    return lambda: x  # a result that cannot cross the process boundary


class TestCrashRecovery:
    def test_killed_worker_is_retried_and_results_match_serial(
        self, tmp_path
    ):
        payloads = [
            {"x": x, "dir": str(tmp_path), "kill": x == 1}
            for x in range(5)
        ]
        with TaskScheduler(2, retry_backoff_s=0.01) as scheduler:
            values = scheduler.map(_crash_once, payloads)
        assert values == [x * x for x in range(5)]
        assert scheduler.retry_stats()["retries"] >= 1
        assert scheduler.retry_stats()["timeouts"] == 0

    def test_every_inflight_task_is_charged_once_per_crash(self, tmp_path):
        payloads = [
            {"x": x, "dir": str(tmp_path), "kill": x == 0}
            for x in range(4)
        ]
        collector = PerfCollector(jobs=2)
        with task_hooks(collector):
            with TaskScheduler(2, retry_backoff_s=0.01) as scheduler:
                values = scheduler.map(_crash_once, payloads)
        assert values == [0, 1, 4, 9]
        # One crash charges each task then in flight (at most jobs=2)
        # exactly once, and all of it counts as a crash retry.
        assert 1 <= scheduler.retry_stats()["retries"] <= 2
        assert scheduler.retry_stats()["timeouts"] == 0
        # Every task completed once and was folded back once, in order.
        assert [task.index for task in collector.tasks] == [0, 1, 2, 3]

    def test_retry_exhaustion_raises_scheduler_error(self, tmp_path):
        with TaskScheduler(
            2, max_retries=1, retry_backoff_s=0.01
        ) as scheduler:
            with pytest.raises(SchedulerError) as excinfo:
                scheduler.map(_crash_always, [{"x": 1}, {"x": 2}])
        error = excinfo.value
        assert error.attempts == 2  # initial + max_retries
        assert "_crash_always" in error.qualname
        assert "worker crashed" in error.last_error
        assert error.task_index >= 0

    def test_pool_is_rebuilt_and_reusable_after_a_crash(self, tmp_path):
        payloads = [
            {"x": x, "dir": str(tmp_path), "kill": x == 2}
            for x in range(4)
        ]
        with TaskScheduler(2, retry_backoff_s=0.01) as scheduler:
            first = scheduler.map(_crash_once, payloads)
            # The next fan reuses the rebuilt pool without incident.
            second = scheduler.map(_square, [5, 6, 7])
        assert first == [0, 1, 4, 9]
        assert second == [25, 36, 49]


class TestDeadlines:
    def test_stalled_worker_is_timed_out_and_retried(self, tmp_path):
        payloads = [
            {"x": x, "dir": str(tmp_path), "stall": x == 1}
            for x in range(3)
        ]
        with TaskScheduler(
            2, task_timeout_s=0.8, max_retries=2, retry_backoff_s=0.01
        ) as scheduler:
            values = scheduler.map(_stall_once, payloads)
        assert values == [100, 101, 102]
        assert scheduler.retry_stats()["timeouts"] >= 1

    def test_timeout_exhaustion_raises_scheduler_error(self):
        with TaskScheduler(
            2, task_timeout_s=0.5, max_retries=1, retry_backoff_s=0.01
        ) as scheduler:
            with pytest.raises(SchedulerError) as excinfo:
                scheduler.map(_stall_forever, [{"x": 0}, {"x": 1}])
        assert "deadline" in str(excinfo.value)
        assert excinfo.value.attempts == 2


def _stall_forever(payload):
    if payload["x"] == 1:
        time.sleep(30.0)
    return payload["x"]


class TestErrorTaxonomy:
    def test_task_exceptions_propagate_unwrapped(self):
        with TaskScheduler(2, retry_backoff_s=0.01) as scheduler:
            with pytest.raises(ValueError, match="objects"):
                scheduler.map(_raise_value_error, [{"a": 1}, {"a": 2}])
        # No retries are charged for deterministic task errors.
        assert scheduler.retry_stats() == {"retries": 0, "timeouts": 0}

    def test_unpicklable_result_raises_scheduler_error(self):
        with TaskScheduler(2, retry_backoff_s=0.01) as scheduler:
            with pytest.raises(SchedulerError, match="process boundary"):
                scheduler.map(_return_unpicklable, [1, 2])

    def test_invalid_supervision_parameters_rejected(self):
        with pytest.raises(ValueError):
            TaskScheduler(2, task_timeout_s=0.0)
        with pytest.raises(ValueError):
            TaskScheduler(2, max_retries=-1)
        with pytest.raises(ValueError):
            TaskScheduler(2, retry_backoff_s=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", ["task_timeout_s", "retry_backoff_s", "retry_backoff_cap_s"]
    )
    def test_non_finite_times_rejected(self, name, value):
        # A NaN deadline never expires and makes the parent busy-poll;
        # an infinite one overflows wait().  Both fail up front.
        with pytest.raises(ValueError, match="finite"):
            TaskScheduler(2, **{name: value})


class TestClose:
    def test_close_is_idempotent(self):
        scheduler = TaskScheduler(2)
        scheduler.map(_square, [1, 2])
        scheduler.close()
        scheduler.close()
        assert scheduler._executor is None

    def test_close_after_broken_pool_does_not_leak_or_raise(self):
        scheduler = TaskScheduler(2, max_retries=0, retry_backoff_s=0.0)
        with pytest.raises(SchedulerError):
            scheduler.map(_crash_always, [{"x": 1}, {"x": 2}])
        # The broken executor was discarded during recovery, so close
        # finds nothing to tear down — and stays callable.
        assert scheduler._executor is None
        scheduler.close()
        scheduler.close()

    def test_close_is_usable_across_pool_rebuilds(self, tmp_path):
        payloads = [
            {"x": x, "dir": str(tmp_path), "kill": x == 0}
            for x in range(3)
        ]
        scheduler = TaskScheduler(2, retry_backoff_s=0.01)
        try:
            assert scheduler.map(_crash_once, payloads) == [0, 1, 4]
        finally:
            scheduler.close()
        assert scheduler._executor is None
