"""Document replacement policies.

The paper's caches "implement utility-based document placement and
replacement schemes" citing Cache Clouds (ICDCS 2005):
:class:`UtilityPolicy` scores each cached document by

    utility = (access_count * last_fetch_cost_ms)
              / (size_bytes * (1 + invalidation_count))

— frequently used documents that are expensive to re-fetch are worth
keeping; large documents that keep getting invalidated by origin
updates are not.  Eviction removes the lowest-utility document.

:class:`LRUPolicy` and :class:`LFUPolicy` are classic baselines for the
replacement-policy ablation bench.

All policies share one interface driven by the cache: ``on_insert``,
``on_access``, ``on_remove``, and ``select_victim``.  The utility and
LFU policies keep a lazily-invalidated min-heap so victim selection is
amortised ``O(log n)`` rather than a linear scan.  Their heap pushes
are deferred until a victim is selected: each ``(score, version, doc)``
entry waits in a short list of tuples, and older entries spill into
one packed float64 column (:data:`SPILL_AT`), so a cache that never
evicts holds 24 bytes per access instead of a tuple, a float and an
int.  The batched kernel mirrors this rule on the very same list and
column, so both event loops leave equal heaps behind.
"""

from __future__ import annotations

import abc
from array import array
from collections import OrderedDict
from heapq import heappop, heappush
from itertools import chain
from typing import Callable, Dict

from repro.errors import SimulationError
from repro.types import DocumentId

#: Deferred heap entries held as tuples before they spill, oldest
#: first, into the packed column.  A cache that evicts on almost every
#: miss flushes one or two entries at a time and never reaches it.
SPILL_AT = 256


def push_spilled(
    heap: list, spilled: array[float], doc_of: Callable[[int], int] = int
) -> None:
    """Push the packed ``score, version, doc`` triples, oldest first.

    float64 holds versions and doc ids exactly (both stay far below
    2**53), so each entry is rebuilt as the tuple that was spilled;
    ``doc_of`` maps a doc id to the int object the entry should hold.
    Empties the column.
    """
    triples = iter(spilled)
    for score, version, doc in zip(triples, triples, triples):
        heappush(heap, (score, int(version), doc_of(int(doc))))
    del spilled[:]


class ReplacementPolicy(abc.ABC):
    """Strategy interface for choosing eviction victims."""

    name: str = "abstract"

    @abc.abstractmethod
    def on_insert(
        self,
        doc_id: DocumentId,
        size_bytes: int,
        fetch_cost_ms: float,
        now_ms: float,
    ) -> None:
        """A document entered the cache."""

    @abc.abstractmethod
    def on_access(self, doc_id: DocumentId, now_ms: float) -> None:
        """A cached document served a hit."""

    @abc.abstractmethod
    def on_remove(self, doc_id: DocumentId, invalidated: bool) -> None:
        """A document left the cache (eviction or invalidation)."""

    @abc.abstractmethod
    def select_victim(self) -> DocumentId:
        """The document to evict next; cache must be non-empty."""

    def on_invalidation_feedback(self, doc_id: DocumentId) -> None:
        """A document of ours was invalidated (before removal).

        Utility-based policies use this to learn update rates; the
        default is a no-op.
        """


class LRUPolicy(ReplacementPolicy):
    """Evict the least recently used document."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[DocumentId, None]" = OrderedDict()

    def on_insert(
        self,
        doc_id: DocumentId,
        size_bytes: int,
        fetch_cost_ms: float,
        now_ms: float,
    ) -> None:
        if doc_id in self._order:
            raise SimulationError(f"doc {doc_id} inserted twice")
        self._order[doc_id] = None

    def on_access(self, doc_id: DocumentId, now_ms: float) -> None:
        self._require(doc_id)
        self._order.move_to_end(doc_id)

    def on_remove(self, doc_id: DocumentId, invalidated: bool) -> None:
        self._require(doc_id)
        del self._order[doc_id]

    def select_victim(self) -> DocumentId:
        if not self._order:
            raise SimulationError("victim selection on an empty cache")
        return next(iter(self._order))

    def _require(self, doc_id: DocumentId) -> None:
        if doc_id not in self._order:
            raise SimulationError(f"doc {doc_id} not tracked by LRU policy")


class _HeapScorePolicy(ReplacementPolicy):
    """Shared machinery: min-heap over a per-document score.

    Subclasses define :meth:`_score`; lower scores are evicted first.
    Heap entries carry a version number and are lazily discarded when
    they no longer match the document's current version (the standard
    stale-entry pattern, keeping updates ``O(log n)``).

    Pushes are deferred in two tiers until :meth:`select_victim` reads
    the heap: ``_pending`` holds up to :data:`SPILL_AT` entry tuples,
    and when it is full its entries move, in push order, into
    ``_spilled``, a packed ``array('d')`` of ``score, version, doc``
    triples.  The flush pushes the spilled entries, then the pending
    ones, so every entry reaches the heap in the order it was made,
    exactly as an eager push would have put it there.
    """

    def __init__(self) -> None:
        self._version: Dict[DocumentId, int] = {}
        self._heap: list = []
        self._pending: list = []
        self._spilled = array("d")

    @abc.abstractmethod
    def _score(self, doc_id: DocumentId) -> float:
        """Current eviction score of a tracked document (lower = evict)."""

    def _touch(self, doc_id: DocumentId) -> None:
        """Defer a push of the document with its current score."""
        version = self._version.get(doc_id, 0) + 1
        self._version[doc_id] = version
        pending = self._pending
        if len(pending) >= SPILL_AT:
            self._spilled.extend(chain.from_iterable(pending))
            del pending[:]
        pending.append((self._score(doc_id), version, doc_id))

    def _untrack(self, doc_id: DocumentId) -> None:
        del self._version[doc_id]

    def hot_state(self) -> Dict[str, object]:
        """``{"version", "heap", "pending", "spilled"}`` — the live lazy
        heap, its document versions and its two tiers of deferred
        entries (the tests read these on either heap-score policy)."""
        return {
            "version": self._version,
            "heap": self._heap,
            "pending": self._pending,
            "spilled": self._spilled,
        }

    def select_victim(self) -> DocumentId:
        heap = self._heap
        if self._spilled:
            push_spilled(heap, self._spilled)
        pending = self._pending
        if pending:
            for entry in pending:
                heappush(heap, entry)
            del pending[:]
        while heap:
            _score, version, doc_id = heap[0]
            if self._version.get(doc_id) == version:
                return doc_id
            heappop(heap)  # stale entry
        raise SimulationError("victim selection on an empty cache")


class LFUPolicy(_HeapScorePolicy):
    """Evict the least frequently used document (ties by insertion)."""

    name = "lfu"

    def __init__(self) -> None:
        super().__init__()
        self._counts: Dict[DocumentId, int] = {}

    def _score(self, doc_id: DocumentId) -> float:
        return float(self._counts[doc_id])

    def on_insert(
        self,
        doc_id: DocumentId,
        size_bytes: int,
        fetch_cost_ms: float,
        now_ms: float,
    ) -> None:
        if doc_id in self._counts:
            raise SimulationError(f"doc {doc_id} inserted twice")
        self._counts[doc_id] = 1
        self._touch(doc_id)

    def on_access(self, doc_id: DocumentId, now_ms: float) -> None:
        if doc_id not in self._counts:
            raise SimulationError(f"doc {doc_id} not tracked by LFU policy")
        self._counts[doc_id] += 1
        self._touch(doc_id)

    def on_remove(self, doc_id: DocumentId, invalidated: bool) -> None:
        if doc_id not in self._counts:
            raise SimulationError(f"doc {doc_id} not tracked by LFU policy")
        del self._counts[doc_id]
        self._untrack(doc_id)


class UtilityPolicy(_HeapScorePolicy):
    """Cache Clouds-style utility-based replacement."""

    name = "utility"

    def __init__(self) -> None:
        super().__init__()
        self._access: Dict[DocumentId, int] = {}
        self._size: Dict[DocumentId, int] = {}
        self._fetch_cost: Dict[DocumentId, float] = {}
        self._invalidations: Dict[DocumentId, int] = {}

    def utility_of(self, doc_id: DocumentId) -> float:
        """The document's current utility (exposed for tests/analysis)."""
        if doc_id not in self._access:
            raise SimulationError(f"doc {doc_id} not tracked by utility policy")
        return self._score(doc_id)

    def _score(self, doc_id: DocumentId) -> float:
        accesses = self._access[doc_id]
        cost = self._fetch_cost[doc_id]
        size = self._size[doc_id]
        invalidations = self._invalidations.get(doc_id, 0)
        return accesses * cost / (size * (1.0 + invalidations))

    def on_insert(
        self,
        doc_id: DocumentId,
        size_bytes: int,
        fetch_cost_ms: float,
        now_ms: float,
    ) -> None:
        if doc_id in self._access:
            raise SimulationError(f"doc {doc_id} inserted twice")
        if size_bytes <= 0:
            raise SimulationError(f"doc {doc_id} has size {size_bytes}")
        self._access[doc_id] = 1
        self._size[doc_id] = size_bytes
        # Re-fetch cost is at least a token cost even for free fetches.
        self._fetch_cost[doc_id] = max(fetch_cost_ms, 0.01)
        # Invalidation history survives re-insertion: a document that was
        # repeatedly invalidated remains a poor caching candidate.
        self._invalidations.setdefault(doc_id, 0)
        self._touch(doc_id)

    def on_access(self, doc_id: DocumentId, now_ms: float) -> None:
        if doc_id not in self._access:
            raise SimulationError(f"doc {doc_id} not tracked by utility policy")
        self._access[doc_id] += 1
        self._touch(doc_id)

    def on_invalidation_feedback(self, doc_id: DocumentId) -> None:
        self._invalidations[doc_id] = self._invalidations.get(doc_id, 0) + 1

    def on_remove(self, doc_id: DocumentId, invalidated: bool) -> None:
        if doc_id not in self._access:
            raise SimulationError(f"doc {doc_id} not tracked by utility policy")
        del self._access[doc_id]
        del self._size[doc_id]
        del self._fetch_cost[doc_id]
        self._untrack(doc_id)

    def hot_state(self) -> Dict[str, object]:
        """The policy's mutable internals, for inline (batched) driving.

        ``{"access", "size", "fetch_cost", "invalidations"}`` — the
        utility inputs — plus the lazy heap's keys (see
        :meth:`_HeapScorePolicy.hot_state`).  The batched kernel
        replicates ``on_insert``/``on_access``/``on_remove``/
        ``select_victim`` as inline operations on these very structures,
        so a policy object stays consistent whether it was driven
        through methods or through the kernel — the loop-equivalence
        tests pin that the resulting evictions are bit-identical.
        """
        return {
            "access": self._access,
            "size": self._size,
            "fetch_cost": self._fetch_cost,
            "invalidations": self._invalidations,
            **super().hot_state(),
        }


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by config name."""
    policies = {
        "utility": UtilityPolicy,
        "lru": LRUPolicy,
        "lfu": LFUPolicy,
    }
    try:
        return policies[name]()
    except KeyError:
        known = ", ".join(sorted(policies))
        raise SimulationError(
            f"unknown replacement policy {name!r}; known: {known}"
        ) from None
