"""Simulation events and their merged, time-ordered columnar form.

Two event kinds drive the simulation, mirroring the paper's setup
("caches are driven by request-log files, while the origin server reads
continuously from an update log file"):

* :class:`RequestEvent` — a client request arrives at an edge cache;
* :class:`OriginUpdateEvent` — the origin updates a document.

Ties are broken by event priority (updates before requests at the same
timestamp, so a request sees the freshest state) and then by push
order, which keeps runs fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.types import DocumentId, NodeId, SimMs

if TYPE_CHECKING:
    from repro.workload.trace import UpdateLog


@dataclass(frozen=True)
class RequestEvent:
    """A client request arriving at an edge cache."""

    timestamp_ms: SimMs
    cache_node: NodeId
    doc_id: DocumentId
    priority: int = field(default=1, init=False, repr=False)


@dataclass(frozen=True)
class OriginUpdateEvent:
    """An origin-side document update."""

    timestamp_ms: SimMs
    doc_id: DocumentId
    priority: int = field(default=0, init=False, repr=False)


@dataclass(frozen=True)
class CacheFailEvent:
    """A cache crashes: contents lost, node unavailable until recovery.

    Failures sort before requests at the same timestamp so a request
    never hits a cache that failed "at the same moment".
    """

    timestamp_ms: SimMs
    cache_node: NodeId
    priority: int = field(default=0, init=False, repr=False)


@dataclass(frozen=True)
class CacheRecoverEvent:
    """A failed cache rejoins, empty."""

    timestamp_ms: SimMs
    cache_node: NodeId
    priority: int = field(default=0, init=False, repr=False)


@dataclass(frozen=True)
class PartitionStartEvent:
    """A set of nodes is cut off from everything outside the set.

    Partitioned caches keep their contents and keep serving local hits,
    but cooperative queries and origin fetches across the cut time out.
    Sorts with the other fault events (priority 0) so a request at the
    same timestamp already sees the partition.
    """

    timestamp_ms: SimMs
    nodes: Tuple[NodeId, ...]
    partition_id: int
    priority: int = field(default=0, init=False, repr=False)


@dataclass(frozen=True)
class PartitionEndEvent:
    """The partition heals; the node set rejoins the main component."""

    timestamp_ms: SimMs
    nodes: Tuple[NodeId, ...]
    priority: int = field(default=0, init=False, repr=False)


Event = Union[
    RequestEvent,
    OriginUpdateEvent,
    CacheFailEvent,
    CacheRecoverEvent,
    PartitionStartEvent,
    PartitionEndEvent,
]


@dataclass(frozen=True)
class EventColumns:
    """The merged request/update stream in columnar form (the kernel's input).

    Requests — by far the bulk of any workload — live as three parallel
    numpy columns sorted by timestamp (stable, so ties keep workload
    order — the push-order tie-break).  The *barriers* are the origin
    updates, sorted stably by timestamp: barrier ``i`` updates document
    ``barrier_docs[i]`` at ``barrier_timestamps[i]``.  Fault events
    never reach the kernel (see
    :func:`repro.simulator.engine.runs_on_kernel`), so they have no
    column.

    ``barrier_positions[i]`` is the index of the first request that
    must be processed *after* barrier ``i``: updates carry priority 0
    and requests priority 1, so at an equal timestamp the update goes
    first, which is exactly ``searchsorted(..., side="left")``.  The
    requests between two consecutive barrier positions form one
    *causality-safe slice*: no origin version changes inside it.
    """

    req_timestamps: np.ndarray
    req_caches: np.ndarray
    req_docs: np.ndarray
    barrier_timestamps: np.ndarray
    barrier_docs: np.ndarray
    barrier_positions: np.ndarray


def columns_from_arrays(
    req_ts: np.ndarray,
    req_cache: np.ndarray,
    req_doc: np.ndarray,
    updates: UpdateLog,
) -> EventColumns:
    """Assemble :class:`EventColumns` from request and update columns."""
    if not (req_ts.size == req_cache.size == req_doc.size):
        raise SimulationError(
            "request columns disagree on length: "
            f"{req_ts.size}/{req_cache.size}/{req_doc.size}"
        )
    # Workloads are generated time-sorted; only re-order when a caller
    # hands us a shuffled log (kind="stable" keeps ties in log order,
    # the push-order tie-break).
    if req_ts.size and np.any(np.diff(req_ts) < 0):
        order = np.argsort(req_ts, kind="stable")
        req_ts = req_ts[order]
        req_cache = req_cache[order]
        req_doc = req_doc[order]
    # One stable sort: ties keep push order, the order
    # sorted(..., key=timestamp) gives the pushed update objects.
    order = np.argsort(updates.timestamps_ms, kind="stable")
    timestamps = updates.timestamps_ms[order]
    return EventColumns(
        req_timestamps=req_ts,
        req_caches=req_cache,
        req_docs=req_doc,
        barrier_timestamps=timestamps,
        barrier_docs=updates.doc_ids[order],
        barrier_positions=np.searchsorted(
            req_ts, timestamps, side="left"
        ).astype(np.int64),
    )


#: The event-stream ledger hook installed by ``repro.sanitize``
#: (duck-typed: ``record_stream(pairs)`` with ``(type_name,
#: timestamp_ms)`` pairs in merged event order).  The kernel and the
#: reference oracle both feed the draw ledger through this one hook;
#: None — the overwhelmingly common case — costs one global read per
#: run, and this module never imports the sanitizer.
_COLUMN_LEDGER: Optional[Any] = None


def set_column_ledger(hook: Optional[Any]) -> Optional[Any]:
    """Install (or clear, with None) the column-stream ledger hook.

    Returns the previously-installed hook so callers can restore it.
    """
    global _COLUMN_LEDGER  # noqa: PLW0603 - sanitizer-installed hook slot
    previous = _COLUMN_LEDGER
    _COLUMN_LEDGER = hook
    return previous


def column_ledger() -> Optional[Any]:
    """The currently-installed column-stream ledger hook, if any."""
    return _COLUMN_LEDGER
