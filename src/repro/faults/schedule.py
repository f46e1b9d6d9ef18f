"""Declarative fault timelines for the simulator.

A :class:`FaultSchedule` lists everything that goes wrong during one
simulation run: cache crash/recover times and network partitions (a set
of nodes — possibly including the origin — cut off from everything
outside the set for a time window).  :meth:`FaultSchedule.events`
lowers the timeline into engine events, so schedules ride the same
deterministic event queue as requests and updates.

:func:`random_fault_schedule` generates a seeded schedule from
content-keyed :class:`repro.utils.rng.RngFactory` streams — the
workhorse of the resilience property tests and sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import SimulationError
from repro.types import NodeId
from repro.utils.rng import RngFactory
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class PartitionSpec:
    """One partition window: ``nodes`` split off during [start, end)."""

    start_ms: float
    end_ms: float
    nodes: Tuple[NodeId, ...]

    def validate(self) -> None:
        check_non_negative("partition start_ms", self.start_ms,
                           exc=SimulationError)
        if not self.end_ms > self.start_ms:
            raise SimulationError(
                f"partition end_ms must be > start_ms, got "
                f"[{self.start_ms}, {self.end_ms}]"
            )
        if not self.nodes:
            raise SimulationError(
                "a partition needs at least one node in its node set"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise SimulationError(
                f"partition node set has duplicates: {self.nodes}"
            )
        for node in self.nodes:
            check_non_negative("partition node id", node, exc=SimulationError)


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that goes wrong during one simulation run."""

    #: (fail_ms, cache) pairs — the cache crashes, losing its contents
    crashes: Tuple[Tuple[float, NodeId], ...] = ()
    #: (recover_ms, cache) pairs — the cache rejoins, empty
    recoveries: Tuple[Tuple[float, NodeId], ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    #: wait charged when a query crosses a partition and times out (ms)
    partition_timeout_ms: float = 500.0

    def validate(self) -> None:
        """Raise :class:`repro.errors.SimulationError` on bad timelines."""
        check_positive("partition_timeout_ms", self.partition_timeout_ms,
                       exc=SimulationError)
        for when, node in (*self.crashes, *self.recoveries):
            check_non_negative("fault event time", when, exc=SimulationError)
            check_non_negative("fault event cache id", node,
                               exc=SimulationError)
        for spec in self.partitions:
            spec.validate()

    def is_empty(self) -> bool:
        return not (self.crashes or self.recoveries or self.partitions)

    def events(self) -> List[object]:
        """Lower the timeline into engine events (validated first)."""
        # Imported here, not at module level: the simulator package
        # imports this module (engine takes a FaultSchedule), so a
        # top-level import would be circular.
        from repro.simulator.events import (
            CacheFailEvent,
            CacheRecoverEvent,
            PartitionEndEvent,
            PartitionStartEvent,
        )

        self.validate()
        out: List[object] = []
        for when, node in self.crashes:
            out.append(CacheFailEvent(timestamp_ms=when, cache_node=node))
        for when, node in self.recoveries:
            out.append(CacheRecoverEvent(timestamp_ms=when, cache_node=node))
        for index, spec in enumerate(self.partitions):
            out.append(PartitionStartEvent(
                timestamp_ms=spec.start_ms,
                nodes=spec.nodes,
                partition_id=index + 1,
            ))
            out.append(PartitionEndEvent(
                timestamp_ms=spec.end_ms, nodes=spec.nodes
            ))
        return out


def random_fault_schedule(
    cache_nodes: Sequence[NodeId],
    duration_ms: float,
    rng_factory: RngFactory,
    crash_fraction: float = 0.25,
    partition_count: int = 1,
    partition_size: int = 2,
    partition_timeout_ms: float = 500.0,
) -> FaultSchedule:
    """A seeded crash/recover + partition timeline over ``cache_nodes``.

    Roughly ``crash_fraction`` of the caches crash at a random time and
    recover later in the run; ``partition_count`` windows each cut
    ``partition_size`` caches off from the rest.  All draws come from
    content-keyed streams of a ``"fault-schedule"`` fork, so the same
    (nodes, duration, factory) always yields the same schedule.
    """
    if duration_ms <= 0:
        raise SimulationError(
            f"duration_ms must be > 0, got {duration_ms}"
        )
    nodes = list(cache_nodes)
    factory = rng_factory.fork("fault-schedule")
    crash_rng = factory.stream("crashes")
    crashes: List[Tuple[float, NodeId]] = []
    recoveries: List[Tuple[float, NodeId]] = []
    crash_count = int(round(crash_fraction * len(nodes)))
    if crash_count:
        picks = crash_rng.choice(len(nodes), size=crash_count, replace=False)
        for i in sorted(int(p) for p in picks):
            fail_at = float(crash_rng.uniform(0.0, duration_ms * 0.6))
            recover_at = float(
                crash_rng.uniform(fail_at + 1.0, duration_ms * 0.95)
            )
            crashes.append((fail_at, nodes[i]))
            recoveries.append((recover_at, nodes[i]))

    part_rng = factory.stream("partitions")
    partitions: List[PartitionSpec] = []
    crashed_ids = {node for _, node in crashes}
    # Partition only never-crashed caches so windows cannot overlap a
    # node's down time (the engine treats both as exclusive states).
    candidates = [n for n in nodes if n not in crashed_ids]
    size = min(partition_size, len(candidates))
    if size:
        for index in range(partition_count):
            picks = part_rng.choice(len(candidates), size=size, replace=False)
            members = tuple(
                candidates[int(p)] for p in sorted(int(q) for q in picks)
            )
            lo = duration_ms * index / max(partition_count, 1)
            hi = duration_ms * (index + 1) / max(partition_count, 1)
            start = float(part_rng.uniform(lo, (lo + hi) / 2))
            end = float(part_rng.uniform(start + 1.0, hi))
            partitions.append(
                PartitionSpec(start_ms=start, end_ms=end, nodes=members)
            )

    return FaultSchedule(
        crashes=tuple(crashes),
        recoveries=tuple(recoveries),
        partitions=tuple(partitions),
        partition_timeout_ms=partition_timeout_ms,
    )
