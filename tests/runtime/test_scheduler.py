"""Tests for the process-pool task scheduler."""

import importlib
import sys
import textwrap

import pytest

from repro.obs import profiling
from repro.obs.profiling import PhaseRegistry, activate, phase_timer
from repro.runtime.cache import get_cache, reset_cache
from repro.runtime.journal import TaskJournal
from repro.runtime.scheduler import (
    TaskScheduler,
    active_scheduler,
    map_tasks,
    task_hooks,
    use_scheduler,
)
from repro.runtime.telemetry import PerfCollector
from repro.sanitize import diff_ledgers, sanitize
from repro.simulator.engine import events_total
from repro.utils.rng import RngFactory


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


def _square(x):
    return x * x


def _timed_square(x):
    with phase_timer("square"):
        return x * x


def _cache_probe(x):
    get_cache().get_or_build(f"probe-{x % 2}", lambda: x)
    return x


def _bump_engine_counter(n):
    # Stand-in for "the task ran a simulation": bump the worker-local
    # cumulative event counter the way SimulationEngine.run does.
    from repro.simulator.engine import absorb_events

    absorb_events(n)
    return n


class TestTaskScheduler:
    def test_inline_map_preserves_order(self):
        with TaskScheduler(1) as scheduler:
            assert scheduler.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_preserves_order(self):
        with TaskScheduler(2) as scheduler:
            assert scheduler.map(_square, list(range(8))) == [
                x * x for x in range(8)
            ]

    def test_single_item_runs_inline(self):
        with TaskScheduler(4) as scheduler:
            assert scheduler.map(_square, [5]) == [25]
            assert scheduler._executor is None  # pool never spun up

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            TaskScheduler(0)

    def test_worker_phase_totals_merged_under_open_phase(self):
        registry = PhaseRegistry()
        with activate(registry), registry.time("fig"):
            with TaskScheduler(2) as scheduler:
                scheduler.map(_timed_square, [1, 2, 3])
        totals = registry.total_seconds()
        assert "fig/square" in totals
        assert totals["fig/square"] >= 0.0

    def test_worker_cache_stats_merged(self):
        with TaskScheduler(2) as scheduler:
            scheduler.map(_cache_probe, [1, 2, 3, 4])
        stats = get_cache().stats()
        # Every worker miss/hit is visible in the parent's counters.
        assert stats["hits"] + stats["misses"] == 4

    def test_worker_event_deltas_fold_into_parent_counter(self):
        # Worker processes bump *their* copy of the engine counter;
        # the parent must end up exactly where a serial run would.
        from repro.simulator.engine import events_total

        before = events_total()
        with TaskScheduler(2) as scheduler:
            assert scheduler.map(_bump_engine_counter, [3, 4, 5]) == [
                3, 4, 5
            ]
        assert events_total() - before == 12

    def test_shutdown_idempotent(self):
        scheduler = TaskScheduler(2)
        scheduler.map(_square, [1, 2])
        scheduler.shutdown()
        scheduler.shutdown()


def _observed_unit(x):
    """Draws, a testbed-cache miss and engine events in one unit."""
    rng = RngFactory(x).stream("unit")
    get_cache().get_or_build(f"parity-{x}", lambda: x)
    _bump_engine_counter(10 + x)
    return float(rng.random(3).sum())


def _bump_helper_counter(payload):
    # Imported here, in the worker, for the first time in any process.
    module = importlib.import_module(payload["module"])
    module.bump(payload["n"])
    return payload["n"]


_HELPER = """
from repro.obs.profiling import register_counter

_TOTAL = 0


def total():
    return _TOTAL


def absorb(count):
    global _TOTAL
    _TOTAL += count


def bump(count):
    absorb(count)


register_counter("{name}:_TOTAL", total, absorb)
"""


class TestHookParity:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_inline_and_pooled_maps_fold_the_same_state(
        self, jobs, tmp_path
    ):
        """Sanitizer, perf collector and journal all installed at once."""

        def run(jobs, label):
            reset_cache()
            cache_before = get_cache().stats()
            events_before = events_total()
            collector = PerfCollector(jobs=jobs)
            journal = TaskJournal(tmp_path / f"{label}.jsonl")
            with sanitize() as state, task_hooks(collector, journal):
                with TaskScheduler(jobs) as scheduler:
                    values = scheduler.map(_observed_unit, list(range(5)))
            cache_after = get_cache().stats()
            return {
                "values": values,
                "ledger": state.ledger,
                "cache": {
                    name: cache_after[name] - cache_before[name]
                    for name in cache_after
                },
                "events": events_total() - events_before,
                "perf_tasks": [task.index for task in collector.tasks],
                "perf_events": sum(task.events for task in collector.tasks),
                "recorded": journal.recorded,
            }

        serial, observed = run(1, "serial"), run(jobs, "observed")
        assert observed["values"] == serial["values"]
        assert diff_ledgers(serial["ledger"], observed["ledger"]).clean
        for key in ("cache", "events", "perf_tasks", "perf_events",
                    "recorded"):
            assert observed[key] == serial[key], key
        assert serial["cache"]["misses"] == 5
        assert serial["events"] == serial["perf_events"] == 60
        assert serial["perf_tasks"] == [0, 1, 2, 3, 4]
        assert serial["recorded"] == 5

    def test_counter_registered_only_in_workers_is_absorbed_lazily(
        self, tmp_path, monkeypatch
    ):
        name = "repro_lazy_counter_helper"
        (tmp_path / f"{name}.py").write_text(
            textwrap.dedent(_HELPER).format(name=name)
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        # Registrations made here are dropped again after the test.
        monkeypatch.setattr(profiling, "_COUNTERS", dict(profiling._COUNTERS))
        assert name not in sys.modules
        payloads = [{"module": name, "n": n} for n in (3, 4, 5)]
        try:
            with TaskScheduler(2) as scheduler:
                assert scheduler.map(_bump_helper_counter, payloads) == [
                    3, 4, 5
                ]
            # The parent imported the helper to absorb its deltas.
            assert sys.modules[name].total() == 12
        finally:
            sys.modules.pop(name, None)


class TestAmbientScheduler:
    def test_no_scheduler_runs_inline(self):
        assert active_scheduler() is None
        assert map_tasks(_square, [2, 3]) == [4, 9]

    def test_use_scheduler_routes_map_tasks(self):
        with TaskScheduler(1) as scheduler:
            with use_scheduler(scheduler):
                assert active_scheduler() is scheduler
                assert map_tasks(_square, [2, 3]) == [4, 9]
            assert active_scheduler() is None
