"""The sanitize() context: identical draws, correct ledgers, clean exit.

The parity tests drive real :class:`TaskScheduler` pools, so the work
unit must be module-level (picklable by reference).
"""

import numpy as np
import pytest

from repro.runtime import TaskScheduler, map_tasks, use_scheduler
from repro.runtime.scheduler import installed_hooks
from repro.sanitize import (
    EVENT_SITE,
    SanitizeError,
    diff_ledgers,
    sanitize,
)
from repro.simulator.events import column_ledger, set_column_ledger
from repro.utils.rng import RngFactory


def _unit(payload):
    """One parallelisable work unit drawing from content-keyed streams."""
    factory = RngFactory(payload["seed"])
    rng = factory.stream(f"rep{payload['rep']}")
    values = rng.random(4)
    extra = rng.integers(0, 100)
    return float(values.sum()) + float(extra)


def _payloads(count=6, seed=123):
    return [{"seed": seed, "rep": rep} for rep in range(count)]


class TestDrawTransparency:
    def test_draws_are_bit_identical_under_the_sanitizer(self):
        def draw():
            rng = RngFactory(7).stream("noise")
            return (rng.random(8), rng.integers(0, 1000, size=5),
                    rng.normal(size=3))

        plain = draw()
        with sanitize():
            instrumented = draw()
        for a, b in zip(plain, instrumented):
            np.testing.assert_array_equal(a, b)

    def test_stream_identity_is_stable_within_the_context(self):
        with sanitize():
            factory = RngFactory(7)
            assert factory.stream("noise") is factory.stream("noise")

    def test_spawned_generators_still_pass_isinstance(self):
        with sanitize():
            rng = RngFactory(7).stream("noise")
            assert isinstance(rng, np.random.Generator)


class TestLedgerContents:
    def test_site_fingerprint_names_caller_and_label(self):
        with sanitize() as state:
            rng = RngFactory(7).stream("noise")
            rng.random()
        sites = [site for _, site, _ in state.ledger.sites()]
        [site] = sites
        module, rest = site.split(":", 1)
        assert module == __name__
        assert rest.endswith("#noise")

    def test_draw_counts_per_phase(self):
        with sanitize() as state:
            rng = RngFactory(7).stream("noise")
            rng.random()
            with state.phase("experiment/figX"):
                rng.random()
                rng.random()
        counts = {
            (phase, entry.count) for phase, _, entry in state.ledger.sites()
        }
        assert counts == {("main", 1), ("experiment/figX", 2)}

    def test_fork_records_its_own_site(self):
        with sanitize() as state:
            RngFactory(7).fork("faults")
        [(_, site, entry)] = list(state.ledger.sites())
        assert site.endswith("#fork:faults")
        assert entry.count == 1

    def test_event_pops_are_recorded(self):
        with sanitize() as state:
            column_ledger().record_stream(
                ("RequestEvent", t) for t in (1.0, 2.0, 3.0)
            )
        [(phase, site, entry)] = list(state.ledger.sites())
        assert site == EVENT_SITE
        assert entry.count == 3

    def test_event_order_changes_the_digest(self):
        def run(stream):
            with sanitize() as state:
                column_ledger().record_stream(iter(stream))
            return state.ledger

        update, request = ("OriginUpdateEvent", 1.0), ("RequestEvent", 1.0)
        same = diff_ledgers(run([update, request]), run([update, request]))
        assert same.clean
        swapped = diff_ledgers(run([update, request]), run([request, update]))
        assert not swapped.clean
        retimed = diff_ledgers(
            run([("RequestEvent", 1.0)]), run([("RequestEvent", 3.0)])
        )
        assert not retimed.clean


class TestLifecycle:
    def test_patches_are_restored_on_exit(self):
        before = (RngFactory.stream, RngFactory.fork)
        with sanitize():
            assert RngFactory.stream is not before[0]
            assert len(installed_hooks()) == 1
            assert column_ledger() is not None
        after = (RngFactory.stream, RngFactory.fork)
        assert before == after
        assert installed_hooks() == ()
        assert column_ledger() is None

    def test_patches_are_restored_after_an_exception(self):
        before = RngFactory.stream
        with pytest.raises(RuntimeError, match="boom"):
            with sanitize():
                raise RuntimeError("boom")
        assert RngFactory.stream is before
        assert installed_hooks() == ()
        assert column_ledger() is None

    def test_column_ledger_hook_goes_through_its_setter(self):
        outer = object()
        previous = set_column_ledger(outer)
        try:
            with sanitize():
                assert column_ledger() not in (None, outer)
            assert column_ledger() is outer
        finally:
            set_column_ledger(previous)
        assert column_ledger() is None

    def test_nesting_raises(self):
        with sanitize():
            with pytest.raises(SanitizeError, match="nest"):
                with sanitize():
                    pass

    def test_leftover_wrapped_streams_go_quiet_after_exit(self):
        factory = RngFactory(7)
        with sanitize() as state:
            rng = factory.stream("noise")
            rng.random()
        draws_inside = state.ledger.total_draws()
        rng.random()  # the wrapped instance outlives the context
        assert state.ledger.total_draws() == draws_inside


class TestSchedulerParity:
    def run_with_jobs(self, jobs):
        with sanitize() as state:
            with TaskScheduler(jobs) as scheduler, use_scheduler(scheduler):
                values = map_tasks(_unit, _payloads())
        return values, state.ledger

    def test_serial_and_pooled_ledgers_match(self):
        serial_values, serial_ledger = self.run_with_jobs(1)
        pooled_values, pooled_ledger = self.run_with_jobs(2)
        assert serial_values == pooled_values
        result = diff_ledgers(serial_ledger, pooled_ledger)
        assert result.clean, "\n" + "\n".join(
            d.describe() for d in result.divergences
        )

    def test_task_draws_land_under_the_task_phase(self):
        _, ledger = self.run_with_jobs(1)
        assert set(ledger.phases) == {"task"}
        assert ledger.total_draws() == 2 * len(_payloads())

    def test_injected_extra_draw_names_site_and_phase(self):
        _, clean = self.run_with_jobs(1)

        def tainted(payload):
            value = _unit(payload)
            if payload["rep"] == 3:
                # The unseeded stray draw a lint pragma could hide.
                value += float(RngFactory(999).stream("stray").random())
            return value

        with sanitize() as state:
            with TaskScheduler(1) as scheduler, use_scheduler(scheduler):
                map_tasks(tainted, _payloads())
        result = diff_ledgers(clean, state.ledger)
        assert not result.clean
        assert result.first.phase == "task"
        assert result.first.kind == "missing-in-a"
        module, rest = result.first.site.split(":", 1)
        assert module == __name__
        assert rest.endswith("#stray")


def test_sanitize_not_imported_by_hot_paths():
    """Flag off => zero overhead: a plain run never loads the sanitizer."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    probe = (
        "import sys\n"
        "from repro.topology import build_network\n"
        "from repro.core.groups import single_group\n"
        "from repro.config import WorkloadConfig, DocumentConfig\n"
        "from repro.workload import generate_workload\n"
        "from repro.simulator import simulate\n"
        "network = build_network(num_caches=20, seed=5)\n"
        "workload = generate_workload(network.cache_nodes,\n"
        "    WorkloadConfig(documents=DocumentConfig(num_documents=50),\n"
        "                   requests_per_cache=10), seed=9)\n"
        "simulate(network, single_group(network.cache_nodes), workload)\n"
        "bad = [m for m in sys.modules if m.startswith('repro.sanitize')]\n"
        "assert not bad, f'hot path imported {bad}'\n"
    )
    subprocess.run(
        [sys.executable, "-c", probe], check=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=str(Path(__file__).resolve().parents[2]),
    )
