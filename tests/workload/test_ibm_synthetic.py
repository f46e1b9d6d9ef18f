"""Tests for the Olympics-like workload preset."""

import pickle

import pytest

from repro.config import DocumentConfig, WorkloadConfig
from repro.errors import WorkloadError
from repro.workload import Workload, generate_workload
from repro.workload.ibm_synthetic import load_workload
from repro.workload.trace import RequestRecord, UpdateRecord
from repro.workload.documents import Document, DocumentCatalog


def small_config():
    return WorkloadConfig(
        documents=DocumentConfig(num_documents=40),
        requests_per_cache=30,
    )


class TestGenerateWorkload:
    def test_structure(self):
        w = generate_workload([1, 2, 3], small_config(), seed=1)
        assert w.num_requests == 90
        assert len(w.catalog) == 40
        assert w.horizon_ms > 0

    def test_requests_cover_all_caches(self):
        w = generate_workload([1, 2, 3], small_config(), seed=1)
        assert {r.cache_node for r in w.requests} == {1, 2, 3}

    def test_requests_of(self):
        w = generate_workload([1, 2], small_config(), seed=2)
        mine = w.requests_of(1)
        assert len(mine) == 30
        assert all(r.cache_node == 1 for r in mine)

    def test_updates_within_horizon(self):
        w = generate_workload([1, 2], small_config(), seed=3)
        horizon = w.requests[-1].timestamp_ms
        assert all(u.timestamp_ms <= horizon for u in w.updates)

    def test_reproducible(self):
        a = generate_workload([1, 2], small_config(), seed=4)
        b = generate_workload([1, 2], small_config(), seed=4)
        assert a.requests == b.requests
        assert a.updates == b.updates

    def test_default_config(self):
        w = generate_workload([1], seed=5)
        assert w.num_requests > 0


class TestWorkloadValidation:
    def test_request_beyond_catalog_rejected(self):
        catalog = DocumentCatalog([Document(0, 10, False)])
        with pytest.raises(WorkloadError):
            Workload(
                catalog=catalog,
                requests=(RequestRecord(0.0, 1, 5),),
                updates=(),
            )

    def test_update_beyond_catalog_rejected(self):
        catalog = DocumentCatalog([Document(0, 10, True)])
        with pytest.raises(WorkloadError):
            Workload(
                catalog=catalog,
                requests=(RequestRecord(0.0, 1, 0),),
                updates=(UpdateRecord(0.0, 7),),
            )

    def test_empty_requests_rejected(self):
        catalog = DocumentCatalog([Document(0, 10, False)])
        with pytest.raises(WorkloadError):
            Workload(catalog=catalog, requests=(), updates=())


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        w = generate_workload([1, 2], small_config(), seed=6)
        req_path = tmp_path / "requests.log"
        upd_path = tmp_path / "updates.log"
        w.save(req_path, upd_path)
        loaded = load_workload(w.catalog, req_path, upd_path)
        assert loaded.requests == w.requests
        assert loaded.updates == w.updates


class TestShuffledLogs:
    def test_horizon_is_the_latest_request_not_the_last_row(self):
        w = generate_workload([1, 2, 3], small_config(), seed=7)
        reversed_log = Workload(
            catalog=w.catalog, requests=w.requests[::-1], updates=()
        )
        latest = max(r.timestamp_ms for r in w.requests)
        assert reversed_log.horizon_ms == latest
        assert reversed_log.requests[-1].timestamp_ms < latest

    def test_horizon_is_the_latest_update(self):
        catalog = DocumentCatalog([Document(0, 10, True)])
        w = Workload(
            catalog=catalog,
            requests=(RequestRecord(1.0, 1, 0),),
            updates=(UpdateRecord(50.0, 0), UpdateRecord(20.0, 0)),
        )
        assert w.horizon_ms == 50.0

    def test_requests_of_matches_a_record_filter(self):
        w = generate_workload([1, 2, 3], small_config(), seed=8)
        shuffled = Workload(
            catalog=w.catalog, requests=w.requests[::-1], updates=()
        )
        for cache in (1, 2, 3, 4):
            expected = [r for r in shuffled.requests if r.cache_node == cache]
            assert shuffled.requests_of(cache) == expected


class TestPickle:
    def test_pickled_workload_round_trips_equal(self):
        w = generate_workload([1, 2, 3], small_config(), seed=9)
        loaded = pickle.loads(pickle.dumps(w, protocol=pickle.HIGHEST_PROTOCOL))
        assert loaded.requests == w.requests
        assert loaded.updates == w.updates
        assert list(loaded.catalog) == list(w.catalog)
        assert not loaded.requests.doc_ids.flags.writeable
        assert loaded == w
