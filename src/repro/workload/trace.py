"""Trace record types and the on-disk log format.

The paper's caches "are driven by request-log files, while origin
server reads continuously from an update log file"; we keep the same
file-driven architecture.  Logs are plain text, one record per line:

* request log: ``timestamp_ms <TAB> cache_node <TAB> doc_id``
* update log:  ``timestamp_ms <TAB> doc_id``

Lines starting with ``#`` are comments.  Timestamps must be finite,
non-negative, and non-decreasing within a file.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import Iterable, List, Sequence, TextIO, Union

from repro.errors import TraceFormatError
from repro.types import DocumentId, NodeId

PathLike = Union[str, Path]


@dataclass(frozen=True, order=True)
class RequestRecord:
    """One client request arriving at an edge cache."""

    timestamp_ms: float
    cache_node: NodeId
    doc_id: DocumentId

    def __post_init__(self) -> None:
        # One chained compare rejects negatives, NaN, and infinity.
        if not 0 <= self.timestamp_ms < inf:
            raise TraceFormatError(
                f"request timestamp must be finite and >= 0, "
                f"got {self.timestamp_ms}"
            )
        if self.cache_node < 1:
            raise TraceFormatError(
                f"requests must target an edge cache (node >= 1), "
                f"got {self.cache_node}"
            )
        if self.doc_id < 0:
            raise TraceFormatError(f"doc_id must be >= 0, got {self.doc_id}")


@dataclass(frozen=True, order=True)
class UpdateRecord:
    """One origin-side document update."""

    timestamp_ms: float
    doc_id: DocumentId

    def __post_init__(self) -> None:
        if not 0 <= self.timestamp_ms < inf:
            raise TraceFormatError(
                f"update timestamp must be finite and >= 0, "
                f"got {self.timestamp_ms}"
            )
        if self.doc_id < 0:
            raise TraceFormatError(f"doc_id must be >= 0, got {self.doc_id}")


def write_request_log(records: Sequence[RequestRecord], path: PathLike) -> None:
    """Write a request log; records must be time-sorted."""
    _check_sorted([r.timestamp_ms for r in records], "request")
    with open(path, "w", encoding="utf-8") as f:
        f.write("# repro request log v1: timestamp_ms\tcache_node\tdoc_id\n")
        for r in records:
            # repr() round-trips float64 exactly.
            f.write(f"{r.timestamp_ms!r}\t{r.cache_node}\t{r.doc_id}\n")


def write_update_log(records: Sequence[UpdateRecord], path: PathLike) -> None:
    """Write an update log; records must be time-sorted."""
    _check_sorted([r.timestamp_ms for r in records], "update")
    with open(path, "w", encoding="utf-8") as f:
        f.write("# repro update log v1: timestamp_ms\tdoc_id\n")
        for r in records:
            f.write(f"{r.timestamp_ms!r}\t{r.doc_id}\n")


def read_request_log(path: PathLike) -> List[RequestRecord]:
    """Parse a request log, validating format and time ordering."""
    records: List[RequestRecord] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, fields in _data_lines(f):
            if len(fields) != 3:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected 3 fields, got {len(fields)}"
                )
            try:
                record = RequestRecord(
                    timestamp_ms=float(fields[0]),
                    cache_node=int(fields[1]),
                    doc_id=int(fields[2]),
                )
            except (ValueError, TraceFormatError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
            records.append(record)
    _check_sorted([r.timestamp_ms for r in records], f"request log {path}")
    return records


def read_update_log(path: PathLike) -> List[UpdateRecord]:
    """Parse an update log, validating format and time ordering."""
    records: List[UpdateRecord] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, fields in _data_lines(f):
            if len(fields) != 2:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected 2 fields, got {len(fields)}"
                )
            try:
                record = UpdateRecord(
                    timestamp_ms=float(fields[0]),
                    doc_id=int(fields[1]),
                )
            except (ValueError, TraceFormatError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
            records.append(record)
    _check_sorted([r.timestamp_ms for r in records], f"update log {path}")
    return records


def _data_lines(f: TextIO):
    """Yield ``(lineno, fields)`` for non-comment, non-blank lines."""
    for lineno, line in enumerate(f, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split("\t")


def _check_sorted(timestamps: Iterable[float], what: str) -> None:
    previous = -inf
    for i, t in enumerate(timestamps):
        # Written so a NaN fails rather than silently resetting order.
        if not t >= previous:
            raise TraceFormatError(
                f"{what} records out of time order at position {i}: "
                f"{t} after {previous}"
            )
        previous = t
