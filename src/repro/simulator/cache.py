"""The :class:`EdgeCache`: bounded storage with pluggable replacement.

An edge cache stores document copies up to a byte capacity.  Insertion
evicts victims (chosen by the replacement policy) until the new
document fits; documents larger than the whole cache are simply not
admitted (served pass-through), which matches standard proxy behaviour.

Storage lives in a :class:`repro.simulator.state.CacheStore` — a
struct-of-records table shared by every cache of a run — and the
``EdgeCache`` is a thin per-node view over it.  The event handlers and
the reference oracle drive caches through the methods below; the
batched kernel mutates the same store records directly (see
:mod:`repro.simulator.batched`), so both worlds observe identical
state through this one API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.simulator.replacement import ReplacementPolicy
from repro.simulator.state import (
    REC_SIZE,
    REC_STORED_AT,
    REC_VERSION,
    CacheStore,
)
from repro.types import DocumentId, NodeId


@dataclass
class CachedDocument:
    """One stored copy: size plus bookkeeping for metrics/consistency.

    A transient snapshot of the underlying store record — read it, don't
    mutate it (mutations would not reach the store).
    """

    doc_id: DocumentId
    size_bytes: int
    stored_at_ms: float
    version: int


class EdgeCache:
    """Bounded document store owned by one edge cache node."""

    def __init__(
        self,
        node: NodeId,
        capacity_bytes: int,
        policy: ReplacementPolicy,
        on_evict: Optional[Callable[[NodeId, DocumentId], None]] = None,
        store: Optional[CacheStore] = None,
    ) -> None:
        self._node = node
        self._policy = policy
        # Callback lets the group directory track copies without the
        # cache knowing about groups.
        self._on_evict = on_evict
        self._state = store if store is not None else CacheStore()
        self._state.register(node, capacity_bytes)
        self._capacity = capacity_bytes
        # Bound alias of this node's record table — the hot-path handle.
        self._docs: Dict[DocumentId, List] = self._state.docs[node]

    # -- inspection ----------------------------------------------------

    @property
    def node(self) -> NodeId:
        return self._node

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        return self._state.used[self._node]

    @property
    def document_count(self) -> int:
        return len(self._docs)

    @property
    def policy(self) -> ReplacementPolicy:
        """The replacement policy driving this cache's evictions."""
        return self._policy

    @property
    def store(self) -> CacheStore:
        """The shared columnar store this cache is a view over."""
        return self._state

    def holds(self, doc_id: DocumentId) -> bool:
        return doc_id in self._docs

    def entry(self, doc_id: DocumentId) -> CachedDocument:
        try:
            record = self._docs[doc_id]
        except KeyError:
            raise SimulationError(
                f"cache {self._node} does not hold doc {doc_id}"
            ) from None
        return CachedDocument(
            doc_id=doc_id,
            size_bytes=record[REC_SIZE],
            stored_at_ms=record[REC_STORED_AT],
            version=record[REC_VERSION],
        )

    def stored_ids(self) -> List[DocumentId]:
        return list(self._docs)

    # -- operations ----------------------------------------------------

    def access(self, doc_id: DocumentId, now_ms: float) -> CachedDocument:
        """Serve a local hit; updates replacement bookkeeping."""
        entry = self.entry(doc_id)
        self._policy.on_access(doc_id, now_ms)
        return entry

    def admit(
        self,
        doc_id: DocumentId,
        size_bytes: int,
        fetch_cost_ms: float,
        now_ms: float,
        version: int,
    ) -> bool:
        """Try to store a fetched document; returns False if inadmissible.

        Evicts according to the policy until the document fits.  A
        document already present is refreshed in place (version bump,
        access credit) with no extra space accounting.
        """
        if size_bytes <= 0:
            raise SimulationError(
                f"cannot admit doc {doc_id} with size {size_bytes}"
            )
        record = self._docs.get(doc_id)
        if record is not None:
            record[REC_VERSION] = version
            record[REC_STORED_AT] = now_ms
            self._policy.on_access(doc_id, now_ms)
            return True
        if size_bytes > self._capacity:
            return False
        used = self._state.used
        node = self._node
        while used[node] + size_bytes > self._capacity:
            victim = self._policy.select_victim()
            self._remove(victim, invalidated=False)
        self._docs[doc_id] = [size_bytes, now_ms, version]
        used[node] += size_bytes
        self._policy.on_insert(doc_id, size_bytes, fetch_cost_ms, now_ms)
        return True

    def expire(self, doc_id: DocumentId) -> bool:
        """Drop a copy whose TTL lapsed (no invalidation feedback).

        Unlike :meth:`invalidate`, expiry is a local timer decision and
        carries no signal about the document's update rate, so the
        replacement policy is not notified of an invalidation.
        """
        if doc_id not in self._docs:
            return False
        self._remove(doc_id, invalidated=False)
        return True

    def invalidate(self, doc_id: DocumentId) -> bool:
        """Drop a document because the origin updated it.

        Returns True if a copy was actually dropped.  The policy gets
        invalidation feedback first so utility-based replacement learns
        the document's update rate.
        """
        if doc_id not in self._docs:
            return False
        self._policy.on_invalidation_feedback(doc_id)
        self._remove(doc_id, invalidated=True)
        return True

    def _remove(self, doc_id: DocumentId, invalidated: bool) -> None:
        record = self._docs.pop(doc_id)
        used = self._state.used
        used[self._node] -= record[REC_SIZE]
        if used[self._node] < 0:
            raise SimulationError(
                f"cache {self._node} accounting went negative"
            )
        self._policy.on_remove(doc_id, invalidated=invalidated)
        if self._on_evict is not None:
            self._on_evict(self._node, doc_id)
