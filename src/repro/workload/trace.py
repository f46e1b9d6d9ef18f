"""Trace record types and the on-disk log format.

The paper's caches "are driven by request-log files, while origin
server reads continuously from an update log file"; we keep the same
file-driven architecture.  Logs are plain text, one record per line:

* request log: ``timestamp_ms <TAB> cache_node <TAB> doc_id``
* update log:  ``timestamp_ms <TAB> doc_id``

Lines starting with ``#`` are comments.  Timestamps must be finite,
non-negative, and non-decreasing within a file.

In memory a request log is a :class:`RequestLog` and an update log an
:class:`UpdateLog`: read-only columns that share one base, with record
objects built only on demand at IO and analysis boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import inf
from pathlib import Path
from typing import (
    Any,
    ClassVar,
    Iterable,
    Iterator,
    List,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

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


class _ColumnLog:
    """A log stored as read-only columns, one row per record.

    Subclasses are frozen dataclasses whose fields are the columns, in
    the order of their record type's fields.  ``_COLUMNS`` gives each
    column's dtype and the lower bound its record checks; the first
    column holds the timestamps, which must also be finite.  Every row
    passes the record's own checks on construction, so indexing and
    iteration (which build records on demand) never fail; ``len`` and
    ``==`` build no per-row object.  An integer index gives a record,
    any other numpy index (a slice, a mask) a smaller log.

    An array argument that owns its memory is frozen in place and a
    view is copied, so no writable alias of a column outlives
    construction.
    """

    _KIND: ClassVar[str]
    _RECORD: ClassVar[type]
    _COLUMNS: ClassVar[Tuple[Tuple[str, type, int], ...]]

    def __post_init__(self) -> None:
        for name, dtype, _ in self._COLUMNS:
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.base is not None:
                column = column.copy()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        columns = self.columns()
        if not (
            all(column.ndim == 1 for column in columns)
            and len({column.size for column in columns}) == 1
        ):
            raise TraceFormatError(
                f"{self._KIND} columns must be 1-D and of one length, got "
                f"shapes {'/'.join(str(column.shape) for column in columns)}"
            )
        ok = columns[0] < inf
        for column, (_, _, low) in zip(columns, self._COLUMNS):
            ok &= column >= low
        if not ok.all():
            # The first bad row's record raises the record path's error.
            self[int(np.argmin(ok))]

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The columns, in record-field order."""
        return tuple(getattr(self, name) for name, _, _ in self._COLUMNS)

    def __len__(self) -> int:
        return getattr(self, self._COLUMNS[0][0]).size

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, (int, np.integer)):
            return self._RECORD(
                *(column[index].item() for column in self.columns())
            )
        return type(self)(*(column[index] for column in self.columns()))

    def __iter__(self) -> Iterator[Any]:
        record = self._RECORD
        for row in zip(*(column.tolist() for column in self.columns())):
            yield record(*row)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self.columns(), other.columns())
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __reduce__(self) -> Any:
        # Unpickled arrays come back writable: re-freeze through
        # __post_init__.
        return (type(self), self.columns())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} {self._KIND}s)"


@dataclass(frozen=True, eq=False, repr=False)
class RequestLog(_ColumnLog):
    """A request log stored as three read-only columns.

    Row ``i`` of ``timestamps_ms`` (float64), ``cache_nodes`` (int64)
    and ``doc_ids`` (int64) is request ``i``: 24 bytes a request, where
    a :class:`RequestRecord` with its own float and int objects costs
    about 156.
    """

    timestamps_ms: np.ndarray
    cache_nodes: np.ndarray
    doc_ids: np.ndarray

    _KIND = "request"
    _RECORD = RequestRecord
    _COLUMNS = (
        ("timestamps_ms", np.float64, 0),
        ("cache_nodes", np.int64, 1),
        ("doc_ids", np.int64, 0),
    )


@dataclass(frozen=True, eq=False, repr=False)
class UpdateLog(_ColumnLog):
    """An update log stored as two read-only columns.

    Row ``i`` of ``timestamps_ms`` (float64) and ``doc_ids`` (int64) is
    update ``i``; see :class:`RequestLog`.
    """

    timestamps_ms: np.ndarray
    doc_ids: np.ndarray

    _KIND = "update"
    _RECORD = UpdateRecord
    _COLUMNS = (
        ("timestamps_ms", np.float64, 0),
        ("doc_ids", np.int64, 0),
    )


#: Anything that holds a request log: columns or a record sequence.
Requests = Union[RequestLog, Sequence[RequestRecord]]
#: Anything that holds an update log: columns or a record sequence.
Updates = Union[UpdateLog, Sequence[UpdateRecord]]

def _as_log(log_type: Any, records: Any) -> Any:
    """``records`` as a ``log_type`` (converted once if records)."""
    if isinstance(records, log_type):
        return records
    return log_type(*(
        [getattr(record, field.name) for record in records]
        for field in fields(log_type._RECORD)
    ))


def as_request_log(requests: Requests) -> RequestLog:
    """``requests`` as a :class:`RequestLog` (converted once if records)."""
    return _as_log(RequestLog, requests)


def as_update_log(updates: Updates) -> UpdateLog:
    """``updates`` as an :class:`UpdateLog` (converted once if records)."""
    return _as_log(UpdateLog, updates)


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


def write_request_log(records: Requests, path: PathLike) -> None:
    """Write a request log; records must be time-sorted."""
    _write_log(as_request_log(records), path)


def write_update_log(records: Updates, path: PathLike) -> None:
    """Write an update log; records must be time-sorted."""
    _write_log(as_update_log(records), path)


def read_request_log(path: PathLike) -> List[RequestRecord]:
    """Parse a request log, validating format and time ordering."""
    return _read_log(RequestLog, path)


def read_update_log(path: PathLike) -> List[UpdateRecord]:
    """Parse an update log, validating format and time ordering."""
    return _read_log(UpdateLog, path)


def _write_log(log: _ColumnLog, path: PathLike) -> None:
    columns = [column.tolist() for column in log.columns()]
    _check_sorted(columns[0], log._KIND)
    names = "\t".join(field.name for field in fields(log._RECORD))
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# repro {log._KIND} log v1: {names}\n")
        for timestamp, *rest in zip(*columns):
            # repr() round-trips float64 exactly.
            f.write("\t".join([repr(timestamp), *map(str, rest)]) + "\n")


def _read_log(log_type: Any, path: PathLike) -> list:
    record_type = log_type._RECORD
    width = len(fields(record_type))
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, values in _data_lines(f):
            if len(values) != width:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected {width} fields, "
                    f"got {len(values)}"
                )
            try:
                # The timestamp is a float, every other field an int.
                record = record_type(float(values[0]), *map(int, values[1:]))
            except (ValueError, TraceFormatError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
            records.append(record)
    _check_sorted(
        [r.timestamp_ms for r in records], f"{log_type._KIND} log {path}"
    )
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
