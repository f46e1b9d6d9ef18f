"""FaultSchedule and PartitionSpec: validation and event lowering."""

import pytest

from repro.errors import SimulationError
from repro.faults import (
    FaultSchedule,
    PartitionSpec,
    random_fault_schedule,
)
from repro.simulator.events import (
    CacheFailEvent,
    CacheRecoverEvent,
    PartitionEndEvent,
    PartitionStartEvent,
)
from repro.utils.rng import RngFactory


class TestPartitionSpecValidation:
    def test_valid_spec(self):
        PartitionSpec(start_ms=10.0, end_ms=20.0, nodes=(1, 2)).validate()

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError, match="start_ms"):
            PartitionSpec(start_ms=-1.0, end_ms=5.0, nodes=(1,)).validate()

    def test_end_not_after_start_rejected(self):
        with pytest.raises(SimulationError, match="end_ms must be >"):
            PartitionSpec(start_ms=10.0, end_ms=10.0, nodes=(1,)).validate()

    def test_empty_node_set_rejected(self):
        with pytest.raises(SimulationError, match="at least one node"):
            PartitionSpec(start_ms=0.0, end_ms=5.0, nodes=()).validate()

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(SimulationError, match="duplicates"):
            PartitionSpec(start_ms=0.0, end_ms=5.0, nodes=(2, 2)).validate()

    def test_negative_node_rejected(self):
        with pytest.raises(SimulationError, match="node id"):
            PartitionSpec(start_ms=0.0, end_ms=5.0, nodes=(-3,)).validate()


class TestScheduleValidation:
    def test_empty_schedule_is_valid(self):
        schedule = FaultSchedule()
        schedule.validate()
        assert schedule.is_empty()

    def test_negative_event_time_rejected(self):
        with pytest.raises(SimulationError, match="fault event time"):
            FaultSchedule(crashes=((-1.0, 2),)).validate()

    def test_nan_event_time_rejected(self):
        with pytest.raises(SimulationError, match="fault event time"):
            FaultSchedule(crashes=((float("nan"), 2),)).validate()

    def test_nan_partition_start_rejected(self):
        spec = PartitionSpec(start_ms=float("nan"), end_ms=5.0, nodes=(1,))
        with pytest.raises(SimulationError, match="start_ms must be >= 0"):
            FaultSchedule(partitions=(spec,)).validate()

    def test_negative_cache_id_rejected(self):
        with pytest.raises(SimulationError, match="cache id"):
            FaultSchedule(recoveries=((5.0, -2),)).validate()

    def test_bad_partition_timeout_rejected(self):
        with pytest.raises(SimulationError, match="partition_timeout_ms"):
            FaultSchedule(partition_timeout_ms=0.0).validate()

    def test_nested_partition_validated(self):
        with pytest.raises(SimulationError, match="duplicates"):
            FaultSchedule(
                partitions=(
                    PartitionSpec(start_ms=0.0, end_ms=5.0, nodes=(1, 1)),
                )
            ).validate()


class TestEventLowering:
    def test_events_cover_the_timeline(self):
        schedule = FaultSchedule(
            crashes=((10.0, 3),),
            recoveries=((50.0, 3),),
            partitions=(
                PartitionSpec(start_ms=20.0, end_ms=40.0, nodes=(1, 2)),
            ),
        )
        events = schedule.events()
        kinds = [type(e).__name__ for e in events]
        assert kinds == [
            "CacheFailEvent", "CacheRecoverEvent",
            "PartitionStartEvent", "PartitionEndEvent",
        ]
        start = events[2]
        assert isinstance(start, PartitionStartEvent)
        assert start.nodes == (1, 2)
        assert start.partition_id == 1
        end = events[3]
        assert isinstance(end, PartitionEndEvent)
        assert end.timestamp_ms == 40.0

    def test_partition_ids_are_distinct(self):
        schedule = FaultSchedule(
            partitions=(
                PartitionSpec(start_ms=0.0, end_ms=5.0, nodes=(1,)),
                PartitionSpec(start_ms=10.0, end_ms=15.0, nodes=(2,)),
            )
        )
        ids = [
            e.partition_id for e in schedule.events()
            if isinstance(e, PartitionStartEvent)
        ]
        assert ids == [1, 2]

    def test_events_validate_first(self):
        with pytest.raises(SimulationError):
            FaultSchedule(crashes=((-5.0, 1),)).events()


class TestRandomSchedule:
    def nodes(self):
        return list(range(1, 21))

    def test_same_factory_same_schedule(self):
        a = random_fault_schedule(self.nodes(), 10_000.0, RngFactory(5))
        b = random_fault_schedule(self.nodes(), 10_000.0, RngFactory(5))
        assert a == b

    def test_different_seed_different_schedule(self):
        a = random_fault_schedule(self.nodes(), 10_000.0, RngFactory(5))
        b = random_fault_schedule(self.nodes(), 10_000.0, RngFactory(6))
        assert a != b

    def test_crashes_recover_within_run(self):
        schedule = random_fault_schedule(
            self.nodes(), 10_000.0, RngFactory(5), crash_fraction=0.5
        )
        assert schedule.crashes
        recovery_of = {node: when for when, node in schedule.recoveries}
        for fail_at, node in schedule.crashes:
            assert node in recovery_of
            assert fail_at < recovery_of[node] < 10_000.0

    def test_partitions_avoid_crashed_caches(self):
        schedule = random_fault_schedule(
            self.nodes(), 10_000.0, RngFactory(5),
            crash_fraction=0.5, partition_count=3, partition_size=3,
        )
        crashed = {node for _, node in schedule.crashes}
        for spec in schedule.partitions:
            assert not (set(spec.nodes) & crashed)
            spec.validate()

    def test_bad_duration_rejected(self):
        with pytest.raises(SimulationError, match="duration_ms"):
            random_fault_schedule(self.nodes(), 0.0, RngFactory(5))

    def test_generated_schedule_lowers_cleanly(self):
        schedule = random_fault_schedule(
            self.nodes(), 5_000.0, RngFactory(9), partition_count=2
        )
        events = schedule.events()
        assert all(
            isinstance(e, (CacheFailEvent, CacheRecoverEvent,
                           PartitionStartEvent, PartitionEndEvent))
            for e in events
        )
