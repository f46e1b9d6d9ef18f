"""The origin server: document versions and server-driven invalidation.

The origin holds the authoritative copy of every document.  Each update
from the update log bumps the document's version; consistency
maintenance (when enabled) immediately notifies all caches holding the
document, which drop their now-stale copies.  The notification fan-out
is counted as consistency traffic.

Simplification vs. a wire-accurate model: invalidations take effect
instantaneously rather than after one-way network delay.  The paper's
metrics (latency, interaction cost) do not charge invalidation latency
to clients, so this only shifts a vanishing fraction of hits; the
*count* of invalidation messages — the cooperative-freshness cost — is
preserved exactly.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SimulationError
from repro.types import DocumentId
from repro.workload.documents import DocumentCatalog


class OriginServer:
    """Authoritative document store driven by the update log."""

    def __init__(self, catalog: DocumentCatalog) -> None:
        self._catalog = catalog
        self._versions: Dict[DocumentId, int] = {}
        self._updates_applied = 0

    @property
    def catalog(self) -> DocumentCatalog:
        return self._catalog

    @property
    def updates_applied(self) -> int:
        return self._updates_applied

    def version_of(self, doc_id: DocumentId) -> int:
        """Current version of a document (0 = never updated)."""
        self._check(doc_id)
        return self._versions.get(doc_id, 0)

    def size_of(self, doc_id: DocumentId) -> int:
        self._check(doc_id)
        return self._catalog.size_of(doc_id)

    def apply_update(self, doc_id: DocumentId) -> int:
        """Apply one update-log record; returns the new version."""
        self._check(doc_id)
        if not self._catalog.is_dynamic(doc_id):
            raise SimulationError(
                f"update log targets static document {doc_id}"
            )
        new_version = self._versions.get(doc_id, 0) + 1
        self._versions[doc_id] = new_version
        self._updates_applied += 1
        return new_version

    def hot_state(self) -> Dict[str, object]:
        """The origin's mutable internals, for inline (batched) driving.

        ``{"versions"}`` — the live ``doc -> version`` dict (documents
        never updated are absent).  The batched kernel applies update
        barriers inline on it, replaying :meth:`apply_update` exactly,
        and folds the count back through :meth:`absorb_updates`.
        """
        return {"versions": self._versions}

    def absorb_updates(self, count: int) -> None:
        """Add updates the batched kernel applied through :meth:`hot_state`."""
        self._updates_applied += count

    def _check(self, doc_id: DocumentId) -> None:
        if not 0 <= doc_id < len(self._catalog):
            raise SimulationError(
                f"unknown document {doc_id} "
                f"(catalog size {len(self._catalog)})"
            )
