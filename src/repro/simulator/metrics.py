"""Simulation metrics collection.

Per-cache and network-wide aggregates of everything the paper measures:
average edge cache latency, hit-rate decomposition (local / group /
origin), cooperation traffic (query messages, peer bytes), and
consistency traffic (invalidation messages), plus latency percentiles
over all counted requests (fixed-bin histogram, O(1) memory).

Zero-denominator convention: ratio accessors over a sub-population that
can legitimately be empty — a single cache's :meth:`CacheStats.hit_rate`
(no requests arrived there) and :meth:`SimulationMetrics.group_hit_rate`
(no misses at all) — return ``0.0``.  Network-wide accessors that are
meaningless before any counted request (``average_latency_ms``,
``hit_rates``, ``stale_serve_fraction``, ``latency_percentile``) raise
:class:`SimulationError`, because calling them on an empty run is a
usage bug rather than a boundary case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import SimulationError
from repro.simulator.latency import ServiceAccount, ServicePath
from repro.types import NodeId
from repro.utils.stats import FixedBinHistogram, OnlineStats


@dataclass
class CacheStats:
    """Mutable per-cache counters."""

    latency: OnlineStats = field(default_factory=OnlineStats)
    local_hits: int = 0
    group_hits: int = 0
    origin_fetches: int = 0
    query_messages: int = 0
    peer_bytes: int = 0
    origin_bytes: int = 0
    invalidations_received: int = 0
    #: requests served from a copy older than the origin's version
    #: (possible under TTL consistency; always 0 under invalidation)
    stale_serves: int = 0
    #: fetched documents deliberately not stored locally because a
    #: nearby group peer holds them (cooperative placement)
    placement_skips: int = 0
    #: requests that arrived while this cache was failed (served by
    #: falling through to the origin)
    requests_while_down: int = 0
    #: origin fetches that first waited out a partition timeout because
    #: this cache was cut off from the origin
    partition_timeouts: int = 0

    @property
    def requests(self) -> int:
        return self.local_hits + self.group_hits + self.origin_fetches

    def hit_rate(self) -> float:
        """Fraction of requests served without touching the origin.

        Returns ``0.0`` for a cache that saw no requests (see the
        module's zero-denominator convention).
        """
        if self.requests == 0:
            return 0.0
        return (self.local_hits + self.group_hits) / self.requests


class SimulationMetrics:
    """Collects per-cache stats and network-wide aggregates."""

    def __init__(self, cache_nodes: Sequence[NodeId]) -> None:
        if not cache_nodes:
            raise SimulationError("metrics need at least one cache")
        self._per_cache: Dict[NodeId, CacheStats] = {
            node: CacheStats() for node in cache_nodes
        }
        self._warmup_skipped = 0
        self._invalidation_messages = 0
        self._latency_hist = FixedBinHistogram()

    # -- recording ------------------------------------------------------

    def record_request(
        self,
        cache: NodeId,
        account: ServiceAccount,
        messages: int,
        size_bytes: int,
        counted: bool,
        stale: bool = False,
    ) -> None:
        """Fold one served request into the stats.

        ``counted=False`` marks warm-up requests: state-changing side
        effects already happened, only the metrics skip them.
        ``stale`` marks a request served from an out-of-date copy.
        """
        stats = self._stats(cache)
        if not counted:
            self._warmup_skipped += 1
            return
        stats.latency.add(account.total_ms)
        self._latency_hist.add(account.total_ms)
        stats.query_messages += messages
        if stale:
            stats.stale_serves += 1
        if account.path is ServicePath.LOCAL_HIT:
            stats.local_hits += 1
        elif account.path is ServicePath.GROUP_HIT:
            stats.group_hits += 1
            stats.peer_bytes += size_bytes
        elif account.path is ServicePath.ORIGIN_FETCH:
            stats.origin_fetches += 1
            stats.origin_bytes += size_bytes
        else:  # pragma: no cover - enum is closed
            raise SimulationError(f"unknown service path {account.path}")

    def record_invalidation(self, cache: NodeId) -> None:
        self._stats(cache).invalidations_received += 1
        self._invalidation_messages += 1

    def absorb_batched(
        self,
        rows: Dict[NodeId, tuple],
        warmup_skipped: int,
        hist_state: tuple,
    ) -> None:
        """Fold the batched event loop's accumulated counters in.

        The batched loop (:mod:`repro.simulator.batched`) accumulates
        per-cache counters and latency moments in flat slots — running
        the exact same arithmetic :meth:`record_request` would, in the
        same order — and folds them in here once at end of run.  Each
        row is ``(lat_count, lat_mean, lat_m2, lat_min, lat_max,
        local_hits, group_hits, origin_fetches, query_messages,
        peer_bytes, origin_bytes, stale_serves,
        invalidations_received)``; ``hist_state`` is the global latency
        histogram's :meth:`~repro.utils.stats.FixedBinHistogram.restore`
        payload.  Each row's invalidations also count as invalidation
        messages.  The kernel runs no fault or placement mode, so the
        down, partition-timeout and placement-skip counters stay zero.
        Every accumulator must still be pristine.
        """
        for node, row in rows.items():
            stats = self._stats(node)
            (
                lat_count, lat_mean, lat_m2, lat_min, lat_max,
                local, group, origin, qmsgs, peer_bytes, origin_bytes,
                stale, invalidations,
            ) = row
            stats.latency.restore(
                lat_count, lat_mean, lat_m2, lat_min, lat_max
            )
            stats.local_hits += local
            stats.group_hits += group
            stats.origin_fetches += origin
            stats.query_messages += qmsgs
            stats.peer_bytes += peer_bytes
            stats.origin_bytes += origin_bytes
            stats.stale_serves += stale
            stats.invalidations_received += invalidations
            self._invalidation_messages += invalidations
        self._warmup_skipped += warmup_skipped
        self._latency_hist.restore(*hist_state)

    # -- aggregates -------------------------------------------------------

    @property
    def warmup_skipped(self) -> int:
        return self._warmup_skipped

    @property
    def invalidation_messages(self) -> int:
        return self._invalidation_messages

    def cache_stats(self, cache: NodeId) -> CacheStats:
        return self._stats(cache)

    def cache_nodes(self) -> List[NodeId]:
        return list(self._per_cache)

    def total_requests(self) -> int:
        return sum(s.requests for s in self._per_cache.values())

    def average_latency_ms(
        self, caches: Sequence[NodeId] = ()
    ) -> float:
        """Mean request latency over a subset of caches (default: all).

        This is the paper's *average cache latency*: the mean over all
        (counted) requests arriving at the selected caches.
        """
        selected = list(caches) if caches else list(self._per_cache)
        merged = OnlineStats()
        for cache in selected:
            merged = merged.merge(self._stats(cache).latency)
        if merged.count == 0:
            raise SimulationError(
                "no counted requests at the selected caches"
            )
        return merged.mean

    def latency_percentile(self, q: float) -> float:
        """Approximate latency percentile over all counted requests.

        Backed by a fixed-bin histogram (see
        :class:`repro.utils.stats.FixedBinHistogram`), so accuracy is
        bounded by the bin width but memory stays O(1) regardless of
        the request count.
        """
        if self._latency_hist.count == 0:
            raise SimulationError("no counted requests recorded")
        return self._latency_hist.percentile(q)

    def latency_p95_ms(self) -> float:
        """The p95 request latency over all counted requests."""
        return self.latency_percentile(95.0)

    def hit_rates(self) -> Dict[str, float]:
        """Network-wide local/group/origin shares of counted requests."""
        total = self.total_requests()
        if total == 0:
            raise SimulationError("no counted requests recorded")
        local = sum(s.local_hits for s in self._per_cache.values())
        group = sum(s.group_hits for s in self._per_cache.values())
        origin = sum(s.origin_fetches for s in self._per_cache.values())
        return {
            "local": local / total,
            "group": group / total,
            "origin": origin / total,
        }

    def stale_serve_fraction(self) -> float:
        """Fraction of counted requests served from an out-of-date copy."""
        total = self.total_requests()
        if total == 0:
            raise SimulationError("no counted requests recorded")
        stale = sum(s.stale_serves for s in self._per_cache.values())
        return stale / total

    def group_hit_rate(self) -> float:
        """Fraction of local misses resolved within the group.

        Returns ``0.0`` when there were no misses at all (see the
        module's zero-denominator convention).
        """
        group = sum(s.group_hits for s in self._per_cache.values())
        origin = sum(s.origin_fetches for s in self._per_cache.values())
        misses = group + origin
        if misses == 0:
            return 0.0
        return group / misses

    def conservation_holds(self) -> bool:
        """Invariant: hits + group hits + origin fetches == requests."""
        return all(
            s.local_hits + s.group_hits + s.origin_fetches == s.requests
            for s in self._per_cache.values()
        )

    def _stats(self, cache: NodeId) -> CacheStats:
        try:
            return self._per_cache[cache]
        except KeyError:
            raise SimulationError(f"unknown cache {cache}") from None
