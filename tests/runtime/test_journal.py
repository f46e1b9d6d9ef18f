"""TaskJournal: content keys, torn-line tolerance, scheduler resume."""

import json

import pytest

from repro.errors import JournalError
from repro.runtime import TaskScheduler
from repro.runtime.cache import reset_cache
from repro.runtime.journal import (
    TaskJournal,
    callable_name,
    sweep_id_for,
    task_key,
)
from repro.runtime.scheduler import task_hooks
from repro.utils.rng import RngFactory


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_cache()
    yield
    reset_cache()


def _unit(payload):
    rng = RngFactory(payload["seed"]).stream(f"rep{payload['rep']}")
    return float(rng.random(4).sum())


def _payloads(count=6, seed=123):
    return [{"seed": seed, "rep": rep} for rep in range(count)]


def _other_unit(payload):
    return payload


class TestContentKeys:
    def test_key_depends_only_on_callable_and_payload(self):
        a = task_key(_unit, {"seed": 1, "rep": 0})
        b = task_key(_unit, {"rep": 0, "seed": 1})  # key order canonical
        assert a == b
        assert len(a) == 64

    def test_key_distinguishes_payloads_and_callables(self):
        arg = {"seed": 1, "rep": 0}
        assert task_key(_unit, arg) != task_key(_unit, {"seed": 1, "rep": 1})
        assert task_key(_unit, arg) != task_key(_other_unit, arg)

    def test_unserialisable_payload_raises_journal_error(self):
        with pytest.raises(JournalError, match="content-keyable"):
            task_key(_unit, {"bad": object()})

    def test_callable_name_is_module_qualified(self):
        assert callable_name(_unit) == f"{__name__}:_unit"

    def test_sweep_id_is_stable_and_kwarg_order_free(self):
        a = sweep_id_for("fig6", {"seed": 7, "repetitions": 2})
        b = sweep_id_for("fig6", {"repetitions": 2, "seed": 7})
        assert a == b
        assert len(a) == 12
        assert a != sweep_id_for("fig6", {"seed": 8, "repetitions": 2})
        assert a != sweep_id_for("fig5", {"seed": 7, "repetitions": 2})


class TestJournalStore:
    def test_record_and_resume_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        writer = TaskJournal(path, resume=False)
        value = (1.5, {"nested": [1, 2]}, None)
        writer.record(_unit, {"seed": 1, "rep": 0}, value)
        assert writer.recorded == 1

        reader = TaskJournal(path, resume=True)
        hit, loaded = reader.lookup(_unit, {"seed": 1, "rep": 0})
        assert hit and loaded == value
        assert reader.hits == 1
        assert reader.lookup(_unit, {"seed": 1, "rep": 99}) == (False, None)

    def test_record_only_mode_never_serves_lookups(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        TaskJournal(path).record(_unit, {"seed": 1, "rep": 0}, 42.0)
        recorder = TaskJournal(path, resume=False)
        assert recorder.completed == 1
        assert recorder.lookup(_unit, {"seed": 1, "rep": 0}) == (False, None)
        assert recorder.hits == 0

    def test_record_is_idempotent_per_content_key(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = TaskJournal(path)
        for _ in range(3):
            journal.record(_unit, {"seed": 1, "rep": 0}, 42.0)
        assert journal.recorded == 1
        assert len(path.read_text().splitlines()) == 1

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = TaskJournal(path)
        journal.record(_unit, {"seed": 1, "rep": 0}, 1.0)
        journal.record(_unit, {"seed": 1, "rep": 1}, 2.0)
        with path.open("a") as handle:
            handle.write('{"v": 1, "key": "abc", "val')  # torn append

        survivor = TaskJournal(path, resume=True)
        assert survivor.completed == 2
        assert survivor.torn_lines == 1
        assert survivor.lookup(_unit, {"seed": 1, "rep": 1}) == (True, 2.0)

    def test_garbage_value_lines_are_skipped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        lines = [
            json.dumps({"v": 1, "key": "k1", "value": "!!notbase64!!"}),
            json.dumps(["not", "a", "dict"]),
            json.dumps({"v": 1, "key": 5, "value": "QQ=="}),
        ]
        path.write_text("\n".join(lines) + "\n")
        journal = TaskJournal(path, resume=True)
        assert journal.completed == 0
        assert journal.torn_lines == 3

    def test_missing_file_is_an_empty_journal(self, tmp_path):
        journal = TaskJournal(tmp_path / "absent.jsonl", resume=True)
        assert journal.completed == 0
        assert journal.lookup(_unit, {"seed": 1, "rep": 0}) == (False, None)


class TestSchedulerResume:
    def _run(self, journal, jobs=2):
        with task_hooks(journal):
            with TaskScheduler(jobs, retry_backoff_s=0.01) as scheduler:
                return scheduler.map(_unit, _payloads())

    def test_partial_journal_resumes_only_missing_units(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with TaskScheduler(1) as scheduler:
            expected = scheduler.map(_unit, _payloads())

        # Simulate an interrupted sweep: only the first 4 units landed.
        seeded = TaskJournal(path)
        for payload, value in zip(_payloads()[:4], expected[:4]):
            seeded.record(_unit, payload, value)

        resumed = TaskJournal(path, resume=True)
        values = self._run(resumed)
        assert values == expected
        assert resumed.hits == 4
        assert resumed.recorded == len(_payloads()) - 4
        # The journal is now complete: a further resume runs nothing.
        completed = TaskJournal(path, resume=True)
        assert self._run(completed) == expected
        assert completed.hits == len(_payloads())
        assert completed.recorded == 0

    def test_journal_records_under_serial_inline_path_too(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = TaskJournal(path)
        values = self._run(journal, jobs=1)
        assert journal.recorded == len(_payloads())
        assert TaskJournal(path, resume=True).completed == len(values)

    def test_resume_is_jobs_level_independent(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        self._run(TaskJournal(path), jobs=4)
        resumed = TaskJournal(path, resume=True)
        values = self._run(resumed, jobs=2)
        with TaskScheduler(1) as scheduler:
            assert values == scheduler.map(_unit, _payloads())
        assert resumed.hits == len(_payloads())
        assert resumed.recorded == 0
