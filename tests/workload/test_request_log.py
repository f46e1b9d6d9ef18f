"""Tests for the columnar request log and its record boundary."""

import pickle

import numpy as np
import pytest

from repro.config import DocumentConfig, WorkloadConfig
from repro.core.groups import single_group
from repro.errors import TraceFormatError, WorkloadError
from repro.simulator import simulate
from repro.topology import build_network
from repro.workload import (
    RequestLog,
    Workload,
    generate_flash_crowd_workload,
    generate_workload,
)
from repro.workload.documents import Document, DocumentCatalog
from repro.workload.trace import RequestRecord, as_request_log


def small_config(**overrides):
    defaults = dict(
        documents=DocumentConfig(num_documents=40), requests_per_cache=30
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


RECORDS = [
    RequestRecord(0.5, 1, 10),
    RequestRecord(1.25, 2, 3),
    RequestRecord(1.25, 1, 10),
    RequestRecord(7.0, 3, 0),
]


class TestRecordRoundTrip:
    def test_len_index_iteration_and_equality(self):
        log = as_request_log(RECORDS)
        assert isinstance(log, RequestLog)
        assert len(log) == len(RECORDS)
        assert [log[i] for i in range(len(log))] == RECORDS
        assert log[-1] == RECORDS[-1]
        assert list(log) == RECORDS
        assert log == RECORDS and log == tuple(RECORDS)
        assert log == as_request_log(list(log))
        assert log != RECORDS[:-1]
        assert log != as_request_log(RECORDS[1:])
        assert all(
            type(r.timestamp_ms) is float
            and type(r.cache_node) is int
            and type(r.doc_id) is int
            for r in log
        )

    def test_non_integer_index_gives_a_log(self):
        log = as_request_log(RECORDS)
        assert log[1:3] == RECORDS[1:3]
        assert log[log.cache_nodes == 1] == [RECORDS[0], RECORDS[2]]

    def test_empty_log(self):
        log = as_request_log([])
        assert len(log) == 0 and not log and list(log) == []

    def test_as_request_log_keeps_a_log(self):
        log = as_request_log(RECORDS)
        assert as_request_log(log) is log


class TestReadOnlyColumns:
    @pytest.mark.parametrize("name", ["timestamps_ms", "cache_nodes", "doc_ids"])
    def test_generated_columns_reject_writes(self, name):
        workload = generate_workload([1, 2], small_config(), seed=1)
        column = getattr(workload.requests, name)
        with pytest.raises(ValueError):
            column[0] = 1
        with pytest.raises(ValueError):
            column.sort()

    @pytest.mark.parametrize("name", ["timestamps_ms", "cache_nodes", "doc_ids"])
    def test_columns_stay_read_only_through_pickle(self, name):
        log = as_request_log(RECORDS)
        loaded = pickle.loads(pickle.dumps(log))
        assert loaded == log
        with pytest.raises(ValueError):
            getattr(loaded, name)[0] = 1

    def test_a_view_argument_is_copied(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        log = RequestLog(base[1:], [1, 1, 1], [0, 0, 0])
        base[1] = 99.0
        assert log.timestamps_ms.tolist() == [2.0, 3.0, 4.0]

    def test_fields_cannot_be_reassigned(self):
        log = as_request_log(RECORDS)
        with pytest.raises(AttributeError):
            log.doc_ids = np.zeros(len(log), dtype=np.int64)


def record_error(t, cache, doc):
    """The message the record path raises for one bad row."""
    with pytest.raises(TraceFormatError) as info:
        RequestRecord(t, cache, doc)
    return str(info.value)


class TestVectorisedValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            (float("nan"), 2, 1),
            (float("inf"), 2, 1),
            (-0.5, 2, 1),
            (3.0, 0, 1),
            (3.0, 2, -4),
        ],
        ids=["nan", "inf", "negative-time", "cache-0", "negative-doc"],
    )
    def test_bad_row_raises_the_record_message(self, bad):
        good = [(1.0, 1, 0), (2.0, 1, 1)]
        later_bad = (9.0, -7, -7)
        ts, caches, docs = zip(*good, bad, later_bad)
        with pytest.raises(TraceFormatError) as info:
            RequestLog(ts, caches, docs)
        # Same type and text as the record path, about the first bad row.
        assert str(info.value) == record_error(*bad)

    def test_record_checks_keep_their_order_within_a_row(self):
        # Timestamp first, then cache, then doc, as RequestRecord does.
        with pytest.raises(TraceFormatError, match="finite"):
            RequestLog([-1.0], [0], [-1])
        with pytest.raises(TraceFormatError, match="edge cache"):
            RequestLog([1.0], [0], [-1])

    def test_unknown_doc_raises_the_workload_message(self):
        catalog = DocumentCatalog([Document(0, 10, False)])
        requests = RequestLog([0.0, 1.0, 2.0], [1, 1, 1], [0, 5, 6])
        with pytest.raises(WorkloadError) as info:
            Workload(catalog=catalog, requests=requests, updates=())
        assert str(info.value) == "request for unknown doc 5 (catalog size 1)"

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(TraceFormatError, match="one length"):
            RequestLog([0.0, 1.0], [1], [0, 0])


class TestNoRecordsOnTheHotPath:
    @pytest.fixture
    def record_count(self, monkeypatch):
        made = []
        check = RequestRecord.__post_init__

        def counting(self):
            made.append(1)
            check(self)

        monkeypatch.setattr(RequestRecord, "__post_init__", counting)
        return made

    def test_generate_workload_and_simulate_build_no_records(
        self, record_count
    ):
        network = build_network(num_caches=8, seed=3)
        workload = generate_workload(network.cache_nodes, small_config(), 4)
        assert record_count == []
        assert len(workload.requests) == 8 * 30
        assert workload.requests == generate_workload(
            network.cache_nodes, small_config(), 4
        ).requests
        simulate(network, single_group(network.cache_nodes), workload)
        assert record_count == []
        # Analysis boundaries do build them, on demand.
        workload.requests[0]
        assert record_count == [1]

    def test_flash_crowd_builds_no_records(self, record_count):
        generate_flash_crowd_workload([1, 2, 3], small_config(), seed=2)
        assert record_count == []
