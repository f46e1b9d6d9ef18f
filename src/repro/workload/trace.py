"""Trace record types and the on-disk log format.

The paper's caches "are driven by request-log files, while origin
server reads continuously from an update log file"; we keep the same
file-driven architecture.  Logs are plain text, one record per line:

* request log: ``timestamp_ms <TAB> cache_node <TAB> doc_id``
* update log:  ``timestamp_ms <TAB> doc_id``

Lines starting with ``#`` are comments.  Timestamps must be finite,
non-negative, and non-decreasing within a file.

In memory a request log is a :class:`RequestLog`: three read-only
columns, with :class:`RequestRecord` objects built only on demand at IO
and analysis boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Sequence, TextIO, Union

import numpy as np

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


@dataclass(frozen=True, eq=False, repr=False)
class RequestLog:
    """A request log stored as three read-only columns.

    Row ``i`` of ``timestamps_ms`` (float64), ``cache_nodes`` (int64)
    and ``doc_ids`` (int64) is request ``i``: 24 bytes a request, where
    a :class:`RequestRecord` with its own float and int objects costs
    about 156.  Every row passes
    the record's own checks on construction, so indexing and iteration
    (which build records on demand) never fail; ``len`` and ``==``
    build no per-request object.  An integer index gives a record, any
    other numpy index (a slice, a mask) a smaller log.

    An array argument that owns its memory is frozen in place and a
    view is copied, so no writable alias of a column outlives
    construction.
    """

    timestamps_ms: np.ndarray
    cache_nodes: np.ndarray
    doc_ids: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (
            ("timestamps_ms", np.float64),
            ("cache_nodes", np.int64),
            ("doc_ids", np.int64),
        ):
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.base is not None:
                column = column.copy()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        ts, caches, docs = self.timestamps_ms, self.cache_nodes, self.doc_ids
        if not (ts.ndim == caches.ndim == docs.ndim == 1
                and ts.size == caches.size == docs.size):
            raise TraceFormatError(
                f"request columns must be 1-D and of one length, got "
                f"shapes {ts.shape}/{caches.shape}/{docs.shape}"
            )
        bad = ~((ts >= 0) & (ts < inf) & (caches >= 1) & (docs >= 0))
        if bad.any():
            # The first bad row's record raises the record path's error.
            self[int(np.argmax(bad))]

    def __len__(self) -> int:
        return self.timestamps_ms.size

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, (int, np.integer)):
            return RequestRecord(
                float(self.timestamps_ms[index]),
                int(self.cache_nodes[index]),
                int(self.doc_ids[index]),
            )
        return RequestLog(
            self.timestamps_ms[index],
            self.cache_nodes[index],
            self.doc_ids[index],
        )

    def __iter__(self) -> Iterator[RequestRecord]:
        for t, c, d in zip(
            self.timestamps_ms.tolist(),
            self.cache_nodes.tolist(),
            self.doc_ids.tolist(),
        ):
            yield RequestRecord(t, c, d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RequestLog):
            return (
                np.array_equal(self.timestamps_ms, other.timestamps_ms)
                and np.array_equal(self.cache_nodes, other.cache_nodes)
                and np.array_equal(self.doc_ids, other.doc_ids)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __reduce__(self) -> Any:
        # Unpickled arrays come back writable: re-freeze through
        # __post_init__.
        return (
            RequestLog,
            (self.timestamps_ms, self.cache_nodes, self.doc_ids),
        )

    def __repr__(self) -> str:
        return f"RequestLog({len(self)} requests)"


#: Anything that holds a request log: columns or a record sequence.
Requests = Union[RequestLog, Sequence[RequestRecord]]


def as_request_log(requests: Requests) -> RequestLog:
    """``requests`` as a :class:`RequestLog` (converted once if records)."""
    if isinstance(requests, RequestLog):
        return requests
    return RequestLog(
        [r.timestamp_ms for r in requests],
        [r.cache_node for r in requests],
        [r.doc_id for r in requests],
    )


def sorted_request_log(
    timestamps_ms: np.ndarray, cache_nodes: np.ndarray, doc_ids: np.ndarray
) -> RequestLog:
    """The rows as a log in :class:`RequestRecord` order.

    That is (timestamp, cache, doc) order: rows with equal keys are
    equal, so this is the order ``sorted()`` gives their records.
    """
    order = np.lexsort((doc_ids, cache_nodes, timestamps_ms))
    return RequestLog(
        timestamps_ms[order], cache_nodes[order], doc_ids[order]
    )


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


def write_request_log(records: Requests, path: PathLike) -> None:
    """Write a request log; records must be time-sorted."""
    log = as_request_log(records)
    timestamps = log.timestamps_ms.tolist()
    _check_sorted(timestamps, "request")
    with open(path, "w", encoding="utf-8") as f:
        f.write("# repro request log v1: timestamp_ms\tcache_node\tdoc_id\n")
        for t, c, d in zip(
            timestamps, log.cache_nodes.tolist(), log.doc_ids.tolist()
        ):
            # repr() round-trips float64 exactly.
            f.write(f"{t!r}\t{c}\t{d}\n")


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
