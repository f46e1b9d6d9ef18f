"""Document catalog: ids, sizes, and which documents are dynamic.

Sizes are lognormal (heavy-tailed, like real web objects).  "Dynamic"
documents are the subset the origin server updates over time; the
paper's whole setting is *dynamic content delivery*, so by default most
of the catalog is dynamic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from repro.config import DocumentConfig
from repro.errors import WorkloadError
from repro.types import DocumentId
from repro.utils.rng import SeedLike, spawn_rng


@dataclass(frozen=True)
class Document:
    """One document: identity, size, and dynamic/static flag."""

    doc_id: DocumentId
    size_bytes: int
    is_dynamic: bool

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise WorkloadError(f"doc_id must be >= 0, got {self.doc_id}")
        if self.size_bytes <= 0:
            raise WorkloadError(
                f"document {self.doc_id} has non-positive size "
                f"{self.size_bytes}"
            )


class DocumentCatalog:
    """An immutable, densely-indexed collection of documents."""

    def __init__(self, documents: List[Document]) -> None:
        if not documents:
            raise WorkloadError("catalog cannot be empty")
        for i, doc in enumerate(documents):
            if doc.doc_id != i:
                raise WorkloadError(
                    f"catalog ids must be dense from 0; position {i} holds "
                    f"doc_id {doc.doc_id}"
                )
        self._documents = tuple(documents)
        self._sizes = np.asarray([d.size_bytes for d in documents], dtype=np.int64)
        self._dynamic = np.asarray([d.is_dynamic for d in documents], dtype=bool)

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DocumentCatalog):
            return NotImplemented
        return self._documents == other._documents

    def __hash__(self) -> int:
        return hash(self._documents)

    def __getitem__(self, doc_id: DocumentId) -> Document:
        if not 0 <= doc_id < len(self._documents):
            raise WorkloadError(
                f"doc_id {doc_id} out of range [0, {len(self._documents)})"
            )
        return self._documents[doc_id]

    def size_of(self, doc_id: DocumentId) -> int:
        return int(self._sizes[doc_id])

    def is_dynamic(self, doc_id: DocumentId) -> bool:
        return bool(self._dynamic[doc_id])

    @property
    def sizes(self) -> np.ndarray:
        """All sizes (read-oriented view; do not mutate)."""
        return self._sizes

    @property
    def total_bytes(self) -> int:
        return int(self._sizes.sum())

    @property
    def mean_size_bytes(self) -> float:
        return float(self._sizes.mean())

    def dynamic_ids(self) -> List[DocumentId]:
        """Ids of all dynamic documents."""
        return [int(i) for i in np.flatnonzero(self._dynamic)]


def build_catalog(
    config: DocumentConfig,
    seed: SeedLike = None,
) -> DocumentCatalog:
    """Generate a catalog per :class:`repro.config.DocumentConfig`.

    Sizes follow a lognormal whose *mean* equals ``mean_size_bytes``;
    the first ``dynamic_fraction`` of documents by popularity rank are
    dynamic (popular content on a sports site is exactly the
    live-updated content — scores, schedules).
    """
    config.validate()
    rng = spawn_rng(seed)
    n = config.num_documents
    if config.size_sigma == 0:
        sizes = np.full(n, max(1, round(config.mean_size_bytes)))
    else:
        # mean of lognormal(mu, sigma) = exp(mu + sigma^2 / 2)
        mu = np.log(config.mean_size_bytes) - config.size_sigma**2 / 2.0
        sizes = np.maximum(
            1, np.round(rng.lognormal(mu, config.size_sigma, size=n))
        ).astype(np.int64)
    dynamic_count = int(round(config.dynamic_fraction * n))
    documents = [
        Document(
            doc_id=i,
            size_bytes=int(sizes[i]),
            is_dynamic=i < dynamic_count,
        )
        for i in range(n)
    ]
    return DocumentCatalog(documents)
