"""Tests for the columnar update log and its record boundary."""

import pickle

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    DocumentConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.core.groups import single_group
from repro.errors import TraceFormatError, WorkloadError
from repro.simulator import OriginUpdateEvent, simulate
from repro.topology import build_network
from repro.workload import (
    UpdateLog,
    Workload,
    generate_flash_crowd_workload,
    generate_workload,
    load_workload,
    read_update_log,
    write_update_log,
)
from repro.workload.documents import Document, DocumentCatalog
from repro.workload.trace import RequestRecord, UpdateRecord, as_update_log


def small_config(**overrides):
    defaults = dict(
        documents=DocumentConfig(num_documents=40, dynamic_fraction=0.5),
        requests_per_cache=30,
        mean_update_interarrival_ms=50.0,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


RECORDS = [
    UpdateRecord(0.5, 10),
    UpdateRecord(1.25, 3),
    UpdateRecord(1.25, 10),
    UpdateRecord(7.0, 0),
]


class TestRecordRoundTrip:
    def test_len_index_iteration_and_equality(self):
        log = as_update_log(RECORDS)
        assert isinstance(log, UpdateLog)
        assert len(log) == len(RECORDS)
        assert [log[i] for i in range(len(log))] == RECORDS
        assert log[-1] == RECORDS[-1]
        assert list(log) == RECORDS
        assert log == RECORDS and log == tuple(RECORDS)
        assert log == as_update_log(list(log))
        assert log != RECORDS[:-1]
        assert log != as_update_log(RECORDS[1:])
        assert all(
            type(r.timestamp_ms) is float and type(r.doc_id) is int
            for r in log
        )
        assert repr(log) == "UpdateLog(4 updates)"

    def test_non_integer_index_gives_a_log(self):
        log = as_update_log(RECORDS)
        assert log[1:3] == RECORDS[1:3]
        assert log[log.doc_ids == 10] == [RECORDS[0], RECORDS[2]]

    def test_empty_log(self):
        log = as_update_log(())
        assert len(log) == 0 and not log and list(log) == [] and log == []

    def test_as_update_log_keeps_a_log(self):
        log = as_update_log(RECORDS)
        assert as_update_log(log) is log

    def test_pickle_round_trip(self):
        log = as_update_log(RECORDS)
        loaded = pickle.loads(
            pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert isinstance(loaded, UpdateLog)
        assert loaded == log and loaded == RECORDS

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "updates.log"
        write_update_log(as_update_log(RECORDS), path)
        assert read_update_log(path) == RECORDS
        # Columns and records write the same bytes.
        records_path = tmp_path / "records.log"
        write_update_log(RECORDS, records_path)
        assert path.read_bytes() == records_path.read_bytes()

    def test_workload_save_and_load(self, tmp_path):
        w = generate_workload([1, 2], small_config(), seed=6)
        assert len(w.updates) > 0
        w.save(tmp_path / "requests.log", tmp_path / "updates.log")
        loaded = load_workload(
            w.catalog, tmp_path / "requests.log", tmp_path / "updates.log"
        )
        assert isinstance(loaded.updates, UpdateLog)
        assert loaded.updates == w.updates


class TestReadOnlyColumns:
    @pytest.mark.parametrize("name", ["timestamps_ms", "doc_ids"])
    def test_generated_columns_reject_writes(self, name):
        workload = generate_workload([1, 2], small_config(), seed=1)
        column = getattr(workload.updates, name)
        with pytest.raises(ValueError):
            column[0] = 1
        with pytest.raises(ValueError):
            column.sort()

    @pytest.mark.parametrize("name", ["timestamps_ms", "doc_ids"])
    def test_columns_stay_read_only_through_pickle(self, name):
        log = as_update_log(RECORDS)
        loaded = pickle.loads(pickle.dumps(log))
        assert loaded == log
        with pytest.raises(ValueError):
            getattr(loaded, name)[0] = 1

    def test_a_view_argument_is_copied(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        log = UpdateLog(base[1:], [0, 0, 0])
        base[1] = 99.0
        assert log.timestamps_ms.tolist() == [2.0, 3.0, 4.0]

    def test_an_owned_argument_is_frozen_in_place(self):
        docs = np.array([4, 5], dtype=np.int64)
        log = UpdateLog([1.0, 2.0], docs)
        assert log.doc_ids is docs and not docs.flags.writeable

    def test_fields_cannot_be_reassigned(self):
        log = as_update_log(RECORDS)
        with pytest.raises(AttributeError):
            log.doc_ids = np.zeros(len(log), dtype=np.int64)


def record_error(t, doc):
    """The message the record path raises for one bad row."""
    with pytest.raises(TraceFormatError) as info:
        UpdateRecord(t, doc)
    return str(info.value)


class TestVectorisedValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            (float("nan"), 1),
            (float("inf"), 1),
            (-0.5, 1),
            (3.0, -4),
        ],
        ids=["nan", "inf", "negative-time", "negative-doc"],
    )
    def test_bad_row_raises_the_record_message(self, bad):
        good = [(1.0, 0), (2.0, 1)]
        later_bad = (9.0, -7)
        ts, docs = zip(*good, bad, later_bad)
        with pytest.raises(TraceFormatError) as info:
            UpdateLog(ts, docs)
        # Same type and text as the record path, about the first bad row.
        assert str(info.value) == record_error(*bad)

    def test_record_checks_keep_their_order_within_a_row(self):
        # Timestamp first, then doc, as UpdateRecord does.
        with pytest.raises(TraceFormatError, match="finite"):
            UpdateLog([-1.0], [-1])

    def test_unknown_doc_raises_the_workload_message(self):
        catalog = DocumentCatalog(
            [Document(0, 10, True), Document(1, 10, True)]
        )
        with pytest.raises(WorkloadError) as info:
            Workload(
                catalog=catalog,
                requests=[RequestRecord(0.0, 1, 0)],
                updates=UpdateLog([0.0, 1.0, 2.0], [1, 5, 6]),
            )
        assert str(info.value) == "update for unknown doc 5 (catalog size 2)"

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(TraceFormatError) as info:
            UpdateLog([0.0, 1.0], [0])
        assert str(info.value) == (
            "update columns must be 1-D and of one length, "
            "got shapes (2,)/(1,)"
        )

    def test_horizon_reads_the_update_column(self):
        catalog = DocumentCatalog([Document(0, 10, True)])
        w = Workload(
            catalog=catalog,
            requests=[RequestRecord(1.0, 1, 0)],
            updates=UpdateLog([50.0, 20.0], [0, 0]),
        )
        assert w.horizon_ms == 50.0


class TestNoRecordsOnTheWritePath:
    @pytest.fixture
    def record_count(self, monkeypatch):
        made = []
        check = UpdateRecord.__post_init__

        def counting(self):
            made.append(1)
            check(self)

        monkeypatch.setattr(UpdateRecord, "__post_init__", counting)
        return made

    def test_generate_workload_and_simulate_build_no_records(
        self, record_count
    ):
        network = build_network(num_caches=8, seed=3)
        workload = generate_workload(network.cache_nodes, small_config(), 4)
        assert len(workload.updates) > 0
        simulate(network, single_group(network.cache_nodes), workload)
        assert record_count == []
        # Analysis boundaries do build them, on demand.
        workload.updates[0]
        assert record_count == [1]

    def test_kernel_builds_update_events_only_for_handlers(
        self, monkeypatch
    ):
        made = []
        init = OriginUpdateEvent.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(OriginUpdateEvent, "__init__", counting)
        network = build_network(num_caches=8, seed=3)
        grouping = single_group(network.cache_nodes)
        workload = generate_workload(network.cache_nodes, small_config(), 4)
        # Utility policy, no partition: every update is applied inline.
        simulate(network, grouping, workload)
        assert made == []
        # LRU hands each update to the engine's handler as an event.
        lru = SimulationConfig(cache=CacheConfig(replacement_policy="lru"))
        simulate(network, grouping, workload, lru)
        assert len(made) == len(workload.updates)

    def test_flash_crowd_builds_no_records(self, record_count):
        w = generate_flash_crowd_workload([1, 2, 3], small_config(), seed=2)
        assert len(w.updates) > 0
        assert record_count == []
