"""The discrete event simulation engine.

Wires together the caches, origin server, group protocol, latency model
and metrics, then processes the merged request/update event stream in
timestamp order.  The engine itself is deliberately thin: each
subsystem owns its state, the engine owns only the clock and the
per-event control flow.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Set

import numpy as np

from repro.config import SimulationConfig
from repro.core.groups import GroupingResult
from repro.errors import SimulationError
from repro.faults.schedule import FaultSchedule
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.profiling import perf_seconds, register_counter
from repro.simulator.batched import run_batched
from repro.simulator.cache import EdgeCache
from repro.simulator.events import (
    CacheFailEvent,
    CacheRecoverEvent,
    Event,
    OriginUpdateEvent,
    PartitionEndEvent,
    PartitionStartEvent,
    RequestEvent,
    column_ledger,
    columns_from_arrays,
)
from repro.simulator.group_proto import GroupProtocol, LookupOutcome
from repro.simulator.latency import LatencyModel
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.origin import OriginServer
from repro.simulator.origin_load import OriginLoadTracker
from repro.simulator.replacement import make_policy
from repro.simulator.state import CacheStore
from repro.topology.network import EdgeCacheNetwork
from repro.types import NodeId
from repro.workload.ibm_synthetic import Workload

#: Cumulative events processed by every engine run in this process.
#: Updated once per completed run (never inside the hot loop), it lets
#: the scheduler's worker telemetry attribute events/s to each task
#: without attaching an observer — see repro.runtime.telemetry.
_EVENTS_TOTAL = 0


def events_total() -> int:
    """Cumulative events processed by this process's engines.

    Telemetry only: deltas of this counter around a work unit give the
    unit's event count; the value never feeds back into simulation.
    """
    return _EVENTS_TOTAL


def absorb_events(count: int) -> None:
    """Fold a worker's event-count delta into this process's counter.

    The task scheduler calls this (through the counter registration
    below) while folding pool results back in task order, so the
    parent's :func:`events_total` after a parallel map matches what a
    serial run would report.  Without the registration the lint's
    ``shared-mutable-global`` rule flags every task that simulates.
    """
    global _EVENTS_TOTAL  # noqa: PLW0603 - the sanctioned merge-back site
    _EVENTS_TOTAL += int(count)


register_counter("repro.simulator.engine:_EVENTS_TOTAL", events_total, absorb_events)


def runs_on_kernel(
    config: SimulationConfig,
    group_protocol_mode: str,
    faults: FaultSchedule,
) -> bool:
    """Whether a run is the paper's cache model, the one the kernel runs.

    That model is utility-based replacement, beacon lookups inside a
    group, server-driven invalidation, a flat-cost origin, every fetched
    copy placed, and no faults.  :meth:`SimulationEngine.run` sends any
    other run to :func:`run_reference`.
    """
    return (
        config.cache.replacement_policy == "utility"
        and group_protocol_mode == "beacon"
        and config.consistency_mode == "invalidate"
        and config.origin_capacity_rps is None
        and config.cache.placement_rtt_threshold_ms is None
        and faults.is_empty()
    )


class SimulationEngine:
    """One simulation run over a fixed network, grouping, and workload."""

    def __init__(
        self,
        network: EdgeCacheNetwork,
        grouping: GroupingResult,
        workload: Workload,
        config: Optional[SimulationConfig] = None,
        group_protocol_mode: str = "beacon",
        observer: Optional[Observer] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        self._config = config or SimulationConfig()
        # Single gate for all instrumentation: when no instrument is
        # attached the per-event overhead is one cached boolean check.
        self._observer = observer if observer is not None else NULL_OBSERVER
        self._instrumented = self._observer.active
        self._config.validate()
        self._network = network
        self._workload = workload

        grouped = set(grouping.all_members)
        expected = set(network.cache_nodes)
        if grouped != expected:
            raise SimulationError(
                "grouping must cover exactly the network's caches: "
                f"{len(grouped)} grouped vs {len(expected)} in network"
            )

        self._origin = OriginServer(workload.catalog)
        # Failed caches, shared with the protocol so lookups never
        # target them.
        self._down: Set[NodeId] = set()
        # Active partitions (node -> partition id), shared with the
        # protocol so cooperative lookups never cross a cut.
        self._partition_of: Dict[NodeId, int] = {}
        if faults is None:
            faults = FaultSchedule()
        self._partition_timeout_ms = faults.partition_timeout_ms
        self._protocol = GroupProtocol(
            network,
            grouping,
            group_lookup_ms=self._config.group_lookup_ms,
            mode=group_protocol_mode,
            unavailable=self._down,
            partition_of=self._partition_of,
            partition_timeout_ms=self._partition_timeout_ms,
        )
        self._latency = LatencyModel(network, self._config)
        # Per-run flags derived once from the config's single values;
        # the handlers read these (the kernel runs only the defaults).
        self._invalidate_mode = self._config.consistency_mode == "invalidate"
        self._ttl_mode = self._config.consistency_mode == "ttl"
        self._placement_threshold_ms = (
            self._config.cache.placement_rtt_threshold_ms
        )
        self._metrics = SimulationMetrics(network.cache_nodes)
        self._origin_load: Optional[OriginLoadTracker] = None
        if self._config.origin_capacity_rps is not None:
            self._origin_load = OriginLoadTracker(
                capacity_rps=self._config.origin_capacity_rps,
                window_ms=self._config.origin_load_window_ms,
            )

        capacity = max(
            1,
            int(
                self._config.cache.capacity_fraction
                * workload.catalog.total_bytes
            ),
        )
        # One struct-of-records store shared by every cache of the run
        # (the batched loop drives its records directly; the per-node
        # EdgeCache objects are thin views).
        self._store = CacheStore()
        self._caches: Dict[NodeId, EdgeCache] = {
            node: EdgeCache(
                node=node,
                capacity_bytes=capacity,
                policy=make_policy(self._config.cache.replacement_policy),
                on_evict=self._protocol.drop_copy,
                store=self._store,
            )
            for node in network.cache_nodes
        }

        # Columnar request stream: no RequestEvent objects at all.
        # The membership check reports the first offender in workload
        # order.
        requests = workload.requests
        req_ts = requests.timestamps_ms
        req_cache = requests.cache_nodes
        req_doc = requests.doc_ids
        if req_cache.size:
            member = np.isin(
                req_cache, np.fromiter(self._caches, dtype=np.int64)
            )
            if not member.all():
                bad = int(req_cache[int(np.argmax(~member))])
                raise SimulationError(
                    f"request targets cache {bad} which is "
                    f"not in the network"
                )
        # The fault schedule's events, in push order after the updates:
        # the oracle's push-index tie-break reads this order.  The
        # kernel never sees them (a run with faults takes the oracle).
        barrier_events: List[Event] = []
        for fault_event in faults.events():
            if isinstance(
                fault_event, (PartitionStartEvent, PartitionEndEvent)
            ):
                for node in fault_event.nodes:
                    if node not in self._caches and node != network.origin:
                        raise SimulationError(
                            f"partition names unknown node {node} "
                            f"(not a cache or the origin)"
                        )
            elif fault_event.cache_node not in self._caches:
                raise SimulationError(
                    f"fault schedule targets unknown cache "
                    f"{fault_event.cache_node}"
                )
            barrier_events.append(fault_event)
        self._barrier_events = tuple(barrier_events)
        self._columns = columns_from_arrays(
            req_ts, req_cache, req_doc, workload.updates
        )
        self._columns_consumed = False
        self._on_kernel = runs_on_kernel(
            self._config, group_protocol_mode, faults
        )

        total_requests = len(requests)
        self._warmup_remaining = int(
            self._config.warmup_fraction * total_requests
        )
        self._processed_requests = 0

    @property
    def metrics(self) -> SimulationMetrics:
        return self._metrics

    @property
    def protocol(self) -> GroupProtocol:
        return self._protocol

    @property
    def origin(self) -> OriginServer:
        return self._origin

    def cache(self, node: NodeId) -> EdgeCache:
        try:
            return self._caches[node]
        except KeyError:
            raise SimulationError(f"unknown cache {node}") from None

    @property
    def observer(self) -> Observer:
        return self._observer

    def run(self) -> SimulationMetrics:
        """Process every event; returns the collected metrics.

        A run of the paper's cache model (see :func:`runs_on_kernel`)
        goes through the columnar slice kernel
        (:mod:`repro.simulator.batched`), which builds no event objects
        for requests at all: every event is known up front and nothing
        is ever scheduled into the future, so the kernel pre-merges the
        streams.  Every other run (the replacement, protocol,
        consistency, origin-load, placement and fault ablations) goes
        through the per-event :func:`run_reference` oracle and the
        engine's handlers, which pin the kernel bit-for-bit in the
        tests.
        """
        # Wall clock is profiling-only here: it feeds throughput
        # reporting, never event timestamps or simulated behaviour.
        started = perf_seconds()
        loop = run_batched if self._on_kernel else run_reference
        # Both loops allocate a container per request but create no
        # reference cycles, so the cyclic collector's passes (each one
        # rescanning every object the caller keeps alive) could free
        # nothing.  Pause it for the loop and restore the caller's
        # setting; the engine is acyclic too (see _HANDLERS), so it is
        # freed by reference counting once the caller drops it.
        collector_was_enabled = gc.isenabled()
        gc.disable()
        try:
            events_processed = loop(self)
        finally:
            if collector_was_enabled:
                gc.enable()
        global _EVENTS_TOTAL  # noqa: PLW0603 - merged counter, see absorb_events
        _EVENTS_TOTAL += events_processed
        if self._observer is not NULL_OBSERVER:
            # Any caller-supplied observer gets throughput numbers, even
            # one with no per-request instruments (manifest-only runs).
            self._observer.note_throughput(
                events_processed, perf_seconds() - started
            )
        if not self._metrics.conservation_holds():
            raise SimulationError("request conservation violated")
        return self._metrics

    def _sample_gauges(self, now_ms: float) -> Dict[str, float]:
        """Point-in-time gauges attached to each flushed sample."""
        utilisation = 0.0
        if self._origin_load is not None:
            utilisation = self._origin_load.utilisation(now_ms)
        occupancy = sum(
            c.used_bytes / c.capacity_bytes for c in self._caches.values()
        ) / len(self._caches)
        return {
            "origin_utilisation": utilisation,
            "cache_occupancy": occupancy,
        }

    # -- event handlers ---------------------------------------------------

    def _handle_request(self, event: RequestEvent) -> None:
        cache = self.cache(event.cache_node)
        doc_id = event.doc_id
        now = event.timestamp_ms
        size = self._origin.size_of(doc_id)

        counted = self._warmup_remaining <= self._processed_requests
        self._processed_requests += 1

        if cache.node in self._down:
            # The edge cache is unreachable; the client falls through to
            # the origin directly (no group help, nothing cached).
            stats = self._metrics.cache_stats(cache.node)
            stats.requests_while_down += 1
            account = self._origin_account(
                cache.node, size, query_ms=0.0, now_ms=now
            )
            self._metrics.record_request(
                cache.node, account, messages=0, size_bytes=size,
                counted=counted,
            )
            if self._instrumented:
                self._observer.on_request(
                    now, cache.node, doc_id, account, 0, size,
                    counted, False,
                )
            return

        self._expire_if_due(cache, doc_id, now)
        if cache.holds(doc_id):
            entry = cache.access(doc_id, now)
            account = self._latency.local_hit()
            stale = entry.version < self._origin.version_of(doc_id)
            self._metrics.record_request(
                cache.node, account, messages=0, size_bytes=0,
                counted=counted, stale=stale,
            )
            if self._instrumented:
                self._observer.on_request(
                    now, cache.node, doc_id, account, 0, 0, counted, stale,
                )
            return

        lookup = self._protocol.lookup(cache.node, doc_id)
        if lookup.outcome is LookupOutcome.GROUP_HIT:
            assert lookup.holder is not None
            # A holder found by the directory may itself have expired
            # under TTL consistency; re-check before fetching from it.
            holder_cache = self.cache(lookup.holder)
            self._expire_if_due(holder_cache, doc_id, now)
            if not holder_cache.holds(doc_id):
                lookup = self._degrade_to_miss(lookup)

        if lookup.outcome is LookupOutcome.GROUP_HIT:
            assert lookup.holder is not None
            account = self._latency.group_hit(
                cache.node, lookup.holder, size, query_ms=lookup.query_ms
            )
            fetched_version = self.cache(lookup.holder).entry(doc_id).version
        else:
            account = self._origin_account(
                cache.node, size, query_ms=lookup.query_ms, now_ms=now
            )
            fetched_version = self._origin.version_of(doc_id)

        fetch_cost = account.fetch_ms + account.transfer_ms
        if self._skip_placement(cache.node, lookup):
            self._metrics.cache_stats(cache.node).placement_skips += 1
        else:
            admitted = cache.admit(
                doc_id,
                size,
                fetch_cost_ms=fetch_cost,
                now_ms=now,
                version=fetched_version,
            )
            if admitted:
                self._protocol.record_copy(cache.node, doc_id)
        stale = fetched_version < self._origin.version_of(doc_id)
        self._metrics.record_request(
            cache.node,
            account,
            messages=lookup.messages,
            size_bytes=size,
            counted=counted,
            stale=stale,
        )
        if self._instrumented:
            self._observer.on_request(
                now, cache.node, doc_id, account, lookup.messages, size,
                counted, stale,
            )

    def _origin_account(
        self, cache_node: NodeId, size: int, query_ms: float, now_ms: float
    ):
        """Origin-fetch latency account, congestion-aware when enabled.

        A cache partitioned away from the origin first waits out the
        partition timeout before the fetch succeeds (modelling the
        retry over a backup path once the primary times out).
        """
        if self._partition_of and not self._protocol.reachable(
            cache_node, self._network.origin
        ):
            query_ms += self._partition_timeout_ms
            self._metrics.cache_stats(cache_node).partition_timeouts += 1
        processing = None
        if self._origin_load is not None:
            self._origin_load.record_arrival(now_ms)
            processing = (
                self._config.origin_processing_ms
                * self._origin_load.inflation_factor(now_ms)
            )
        return self._latency.origin_fetch(
            cache_node, size, query_ms=query_ms, processing_ms=processing
        )

    @property
    def origin_load(self) -> Optional[OriginLoadTracker]:
        """The congestion tracker (None without ``origin_capacity_rps``)."""
        return self._origin_load

    def _skip_placement(self, cache_node: NodeId, lookup) -> bool:
        """Cooperative placement: skip storing after a near-peer hit."""
        threshold = self._placement_threshold_ms
        if threshold is None:
            return False
        if lookup.outcome is not LookupOutcome.GROUP_HIT:
            return False
        assert lookup.holder is not None
        return self._network.rtt(cache_node, lookup.holder) <= threshold

    def _expire_if_due(self, cache: EdgeCache, doc_id, now_ms: float) -> None:
        """Drop a TTL-expired copy before it can serve anything."""
        if not self._ttl_mode or not cache.holds(doc_id):
            return
        entry = cache.entry(doc_id)
        if now_ms - entry.stored_at_ms > self._config.ttl_ms:
            cache.expire(doc_id)

    @staticmethod
    def _degrade_to_miss(lookup):
        """Re-shape a stale GROUP_HIT lookup into a GROUP_MISS."""
        from repro.simulator.group_proto import LookupResult

        return LookupResult(
            outcome=LookupOutcome.GROUP_MISS,
            holder=None,
            query_ms=lookup.query_ms,
            messages=lookup.messages,
        )

    def _handle_fail(self, event: CacheFailEvent) -> None:
        """Crash a cache: contents lost, directory cleaned, node down."""
        cache = self.cache(event.cache_node)
        if event.cache_node in self._down:
            raise SimulationError(
                f"cache {event.cache_node} failed while already down"
            )
        for doc_id in list(cache.stored_ids()):
            cache.expire(doc_id)  # eviction callback cleans the directory
        self._down.add(event.cache_node)
        if self._instrumented:
            self._observer.on_cache_fail(
                event.timestamp_ms, event.cache_node
            )

    def _handle_recover(self, event: CacheRecoverEvent) -> None:
        """A failed cache rejoins, empty."""
        if event.cache_node not in self._down:
            raise SimulationError(
                f"cache {event.cache_node} recovered but was not down"
            )
        self._down.discard(event.cache_node)
        if self._instrumented:
            self._observer.on_cache_recover(
                event.timestamp_ms, event.cache_node
            )

    def _handle_partition_start(self, event: PartitionStartEvent) -> None:
        """A node set splits off; overlapping partitions are rejected."""
        for node in event.nodes:
            if node in self._partition_of:
                raise SimulationError(
                    f"node {node} is already in partition "
                    f"{self._partition_of[node]}"
                )
            self._partition_of[node] = event.partition_id
        if self._instrumented:
            self._observer.on_partition_start(
                event.timestamp_ms, event.nodes
            )

    def _handle_partition_end(self, event: PartitionEndEvent) -> None:
        """The partition heals; its nodes rejoin the main component."""
        for node in event.nodes:
            if node not in self._partition_of:
                raise SimulationError(
                    f"node {node} left a partition it was never in"
                )
            del self._partition_of[node]
        if self._instrumented:
            self._observer.on_partition_end(event.timestamp_ms, event.nodes)

    def _handle_update(self, event: OriginUpdateEvent) -> None:
        self._origin.apply_update(event.doc_id)
        if self._instrumented:
            self._observer.on_origin_update(event.timestamp_ms, event.doc_id)
        if not self._invalidate_mode:
            return
        # Server-driven invalidation: every cache holding the document
        # drops its stale copy (see repro.simulator.origin for the
        # immediacy simplification).
        for holder in list(self._protocol.all_holders(event.doc_id)):
            if self._partition_of and not self._protocol.reachable(
                holder, self._network.origin
            ):
                # The invalidation cannot cross the cut; the partitioned
                # holder keeps (and may serve) its stale copy.
                continue
            dropped = self.cache(holder).invalidate(event.doc_id)
            if dropped:
                self._metrics.record_invalidation(holder)

    #: Exact-type handler table: the event union is closed, so one dict
    #: lookup replaces an isinstance chain.  The values are plain
    #: functions, called as ``handler(engine, event)``: bound methods
    #: stored on the instance would make every engine a reference cycle,
    #: kept alive (with its store, policies and heaps) until the next
    #: full collection.
    _HANDLERS = {
        RequestEvent: _handle_request,
        OriginUpdateEvent: _handle_update,
        CacheFailEvent: _handle_fail,
        CacheRecoverEvent: _handle_recover,
        PartitionStartEvent: _handle_partition_start,
        PartitionEndEvent: _handle_partition_end,
    }


def run_reference(engine: SimulationEngine) -> int:
    """The per-event loop: every mode's runner, and the kernel's oracle.

    Same signature and contract as :func:`run_batched`, built from
    nothing the kernel uses to order events: one :class:`RequestEvent`
    per workload request (pushed first), one :class:`OriginUpdateEvent`
    per row of the workload's update columns, then the fault schedule's
    events, sorted by the key ``(timestamp, priority, push index)`` and
    dispatched one by one through the engine's handler table.
    :meth:`SimulationEngine.run` calls it for every run outside
    :func:`runs_on_kernel`; for the others, tests swap it in with
    ``monkeypatch.setattr(repro.simulator.engine, "run_batched",
    run_reference)`` and require byte-equal results.
    """
    if engine._columns_consumed:
        return 0
    engine._columns_consumed = True
    requests = engine._workload.requests
    pushed: List[Event] = [
        RequestEvent(timestamp_ms=t, cache_node=c, doc_id=d)
        for t, c, d in zip(
            requests.timestamps_ms.tolist(),
            requests.cache_nodes.tolist(),
            requests.doc_ids.tolist(),
        )
    ]
    updates = engine._workload.updates
    pushed.extend(
        OriginUpdateEvent(timestamp_ms=t, doc_id=d)
        for t, d in zip(
            updates.timestamps_ms.tolist(), updates.doc_ids.tolist()
        )
    )
    pushed.extend(engine._barrier_events)
    order = sorted(
        range(len(pushed)),
        key=lambda i: (pushed[i].timestamp_ms, pushed[i].priority, i),
    )
    events = [pushed[i] for i in order]
    hook = column_ledger()
    if hook is not None:
        hook.record_stream(
            (type(event).__name__, event.timestamp_ms) for event in events
        )

    sampler = engine._observer.sampler if engine._instrumented else None
    handlers = engine._HANDLERS
    now = 0.0
    for event in events:
        now = event.timestamp_ms
        if sampler is not None:
            # Flush every sample boundary that precedes this event, so
            # sample times align with simulated (not host) time.
            while sampler.next_tick_ms <= now:
                tick = sampler.next_tick_ms
                sampler.flush(tick, **engine._sample_gauges(tick))
        handlers[type(event)](engine, event)
    if sampler is not None:
        sampler.finalize(now, **engine._sample_gauges(now))
    return len(events)
