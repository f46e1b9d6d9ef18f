"""The "Olympics-like" workload preset — a complete synthetic workload.

Substitutes the proprietary 2000 Sydney Olympics IBM trace (see
DESIGN.md).  :func:`generate_workload` bundles a document catalog, a
request log spanning all caches, and an update log covering the request
horizon into one :class:`Workload` value that the simulator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.config import WorkloadConfig
from repro.errors import WorkloadError
from repro.types import NodeId
from repro.utils.rng import SeedLike, spawn_rng
from repro.workload.documents import DocumentCatalog, build_catalog
from repro.workload.requests import generate_request_log
from repro.workload.trace import (
    RequestLog,
    UpdateLog,
    as_request_log,
    as_update_log,
    read_request_log,
    read_update_log,
    write_request_log,
    write_update_log,
)
from repro.workload.updates import generate_update_log

PathLike = Union[str, Path]


@dataclass(frozen=True)
class Workload:
    """A catalog plus time-sorted request and update logs.

    ``requests`` is a :class:`RequestLog` and ``updates`` an
    :class:`UpdateLog`; a sequence of records (tests, hand-built logs)
    is converted once on construction.
    """

    catalog: DocumentCatalog
    requests: RequestLog
    updates: UpdateLog

    def __post_init__(self) -> None:
        requests = as_request_log(self.requests)
        updates = as_update_log(self.updates)
        object.__setattr__(self, "requests", requests)
        object.__setattr__(self, "updates", updates)
        if not requests:
            raise WorkloadError("a workload needs at least one request")
        for kind, log in (("request", requests), ("update", updates)):
            unknown = log.doc_ids >= len(self.catalog)
            if unknown.any():
                raise WorkloadError(
                    f"{kind} for unknown doc "
                    f"{int(log.doc_ids[np.argmax(unknown)])} "
                    f"(catalog size {len(self.catalog)})"
                )

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_updates(self) -> int:
        return len(self.updates)

    @property
    def horizon_ms(self) -> float:
        """Timestamp of the latest event in the workload.

        A maximum, not the last row: the engine accepts (and re-sorts)
        shuffled logs.
        """
        latest = float(self.requests.timestamps_ms.max())
        if self.updates:
            latest = max(latest, float(self.updates.timestamps_ms.max()))
        return latest

    def save(self, request_path: PathLike, update_path: PathLike) -> None:
        """Write both logs to disk (catalog is regenerable from config)."""
        write_request_log(self.requests, request_path)
        write_update_log(self.updates, update_path)


def generate_workload(
    cache_nodes: Sequence[NodeId],
    config: Optional[WorkloadConfig] = None,
    seed: SeedLike = None,
) -> Workload:
    """Generate a complete Olympics-like workload for the given caches.

    >>> w = generate_workload([1, 2, 3], seed=1)
    >>> w.num_requests > 0
    True
    """
    config = config or WorkloadConfig()
    config.validate()
    rng = spawn_rng(seed)
    catalog = build_catalog(config.documents, seed=rng)
    requests = generate_request_log(cache_nodes, config, rng)
    if not requests:
        raise WorkloadError("generated an empty request log")
    horizon = config.duration_ms or float(requests.timestamps_ms[-1])
    updates = generate_update_log(catalog, config, horizon, rng)
    return Workload(catalog=catalog, requests=requests, updates=updates)


def load_workload(
    catalog: DocumentCatalog,
    request_path: PathLike,
    update_path: PathLike,
) -> Workload:
    """Rebuild a workload from logs previously written by ``save``."""
    requests = as_request_log(read_request_log(request_path))
    updates = read_update_log(update_path)
    return Workload(catalog=catalog, requests=requests, updates=updates)
