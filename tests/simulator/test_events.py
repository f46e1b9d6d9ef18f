"""Tests for simulation events and their merged columnar form."""

import numpy as np
import pytest

from repro.config import DocumentConfig
from repro.core.groups import singleton_groups
from repro.errors import SimulationError
from repro.faults.schedule import FaultSchedule
from repro.simulator import SimulationEngine
from repro.simulator.events import columns_from_arrays
from repro.topology import network_from_matrix
from repro.workload import Workload, build_catalog
from repro.workload.trace import RequestRecord, UpdateRecord, as_update_log


def columns(timestamps, caches=None, docs=None, updates=()):
    """Columns for requests at ``timestamps`` (cache i+1, doc i)."""
    count = len(timestamps)
    return columns_from_arrays(
        np.asarray(timestamps, dtype=np.float64),
        np.asarray(
            caches if caches is not None else range(1, count + 1),
            dtype=np.int64,
        ),
        np.asarray(docs if docs is not None else range(count), dtype=np.int64),
        as_update_log(updates),
    )


def engine_with_crash_at(fail_ms):
    """An engine over one cache whose fault schedule crashes it."""
    network = network_from_matrix([[0.0, 10.0], [10.0, 0.0]])
    catalog = build_catalog(DocumentConfig(num_documents=2), seed=1)
    workload = Workload(
        catalog=catalog, requests=(RequestRecord(1.0, 1, 0),), updates=()
    )
    return SimulationEngine(
        network, singleton_groups([1]), workload,
        faults=FaultSchedule(crashes=((fail_ms, 1),)),
    )


class TestEventColumns:
    def test_barrier_sorts_before_request_at_equal_timestamp(self):
        merged = columns([1.0, 2.0, 3.0], updates=[UpdateRecord(2.0, 4)])
        assert merged.barrier_timestamps.tolist() == [2.0]
        assert merged.barrier_docs.tolist() == [4]
        # The barrier runs before request index 1 (the one at t=2.0).
        assert merged.barrier_positions.tolist() == [1]

    def test_equal_timestamp_barriers_keep_push_order(self):
        merged = columns(
            [0.5, 5.0],
            updates=[
                UpdateRecord(5.0, 7), UpdateRecord(1.0, 2),
                UpdateRecord(5.0, 1),
            ],
        )
        assert merged.barrier_timestamps.tolist() == [1.0, 5.0, 5.0]
        assert merged.barrier_docs.tolist() == [2, 7, 1]
        assert merged.barrier_positions.tolist() == [1, 1, 1]

    def test_shuffled_update_log_is_resorted_stably(self):
        merged = columns(
            [1.0],
            updates=[
                UpdateRecord(9.0, 1), UpdateRecord(2.0, 2),
                UpdateRecord(9.0, 3), UpdateRecord(2.0, 4),
            ],
        )
        assert merged.barrier_timestamps.tolist() == [2.0, 2.0, 9.0, 9.0]
        assert merged.barrier_docs.tolist() == [2, 4, 1, 3]

    def test_shuffled_request_log_is_resorted_stably(self):
        merged = columns(
            [5.0, 1.0, 3.0, 1.0, 5.0],
            caches=[1, 2, 3, 4, 5],
            docs=[10, 11, 12, 13, 14],
        )
        assert merged.req_timestamps.tolist() == [1.0, 1.0, 3.0, 5.0, 5.0]
        # Equal timestamps keep their log order.
        assert merged.req_caches.tolist() == [2, 4, 3, 1, 5]
        assert merged.req_docs.tolist() == [11, 13, 12, 10, 14]

    # Fault events reach the engine only through its FaultSchedule,
    # which rejects a time that would land anywhere in the event order.
    def test_negative_barrier_timestamp_rejected(self):
        with pytest.raises(SimulationError, match=">= 0"):
            engine_with_crash_at(-1.0)

    def test_nan_barrier_timestamp_rejected(self):
        with pytest.raises(SimulationError, match="got nan"):
            engine_with_crash_at(float("nan"))

    def test_unequal_request_columns_rejected(self):
        with pytest.raises(SimulationError, match="disagree on length"):
            columns_from_arrays(
                np.asarray([1.0, 2.0]),
                np.asarray([1], dtype=np.int64),
                np.asarray([0, 0], dtype=np.int64),
                as_update_log(()),
            )
