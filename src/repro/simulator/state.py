"""Columnar cache state shared by every cache of one simulation run.

The :class:`CacheStore` is a struct-of-records view of *all* cache
contents: per cache a plain ``doc_id -> [size, stored_at, version]``
record table plus integer used-bytes/capacity columns.  One store is
shared by the whole run, which is what lets the batched event loop
(:mod:`repro.simulator.batched`) mutate cache state directly — no
per-document objects, no per-operation method dispatch — while
:class:`repro.simulator.cache.EdgeCache` stays alive as a thin
per-node *view* over the same records for the event handlers, the
reference oracle, and test/analysis inspection.

Records are plain lists (not dataclasses) because the batched kernel
creates one per admitted document on the hot path; index with the
``REC_*`` constants.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SimulationError
from repro.types import DocumentId, NodeId

#: record field indices of one stored copy
REC_SIZE = 0
REC_STORED_AT = 1
REC_VERSION = 2


class CacheStore:
    """Struct-of-records storage for the contents of many caches.

    ``docs[node]`` maps each resident document to its mutable
    ``[size_bytes, stored_at_ms, version]`` record; ``used[node]`` and
    ``capacity[node]`` carry the byte accounting.  All three are plain
    dicts keyed by node id so a store works for any id scheme, while
    the engine's dense ``1..N`` ids let the batched kernel re-index
    them into node-indexed lists once per run.
    """

    __slots__ = ("docs", "used", "capacity")

    def __init__(self) -> None:
        self.docs: Dict[NodeId, Dict[DocumentId, List]] = {}
        self.used: Dict[NodeId, int] = {}
        self.capacity: Dict[NodeId, int] = {}

    def register(self, node: NodeId, capacity_bytes: int) -> None:
        """Add one (empty) cache slot; each node registers exactly once."""
        if capacity_bytes <= 0:
            raise SimulationError(
                f"cache {node} capacity must be > 0, got {capacity_bytes}"
            )
        if node in self.docs:
            raise SimulationError(
                f"cache {node} is already registered with this store"
            )
        self.docs[node] = {}
        self.used[node] = 0
        self.capacity[node] = capacity_bytes

    @property
    def nodes(self) -> List[NodeId]:
        """Registered nodes in registration order."""
        return list(self.docs)

