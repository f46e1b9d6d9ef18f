"""Origin-side update-log generation.

The origin "reads continuously from an update log file": a Poisson
stream of updates over the *dynamic* subset of the catalog.  Update
targets are Zipf-distributed over the dynamic documents — on a sports
site the hottest pages (live scores) also change the most, which is the
worst case for caching and exactly the regime the paper studies.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import WorkloadConfig
from repro.errors import WorkloadError
from repro.workload.documents import DocumentCatalog
from repro.workload.trace import UpdateLog
from repro.workload.zipf import ZipfSampler


def generate_update_log(
    catalog: DocumentCatalog,
    config: WorkloadConfig,
    horizon_ms: float,
    rng: np.random.Generator,
) -> UpdateLog:
    """Generate a time-sorted update log up to ``horizon_ms``.

    Returns an empty log when the catalog has no dynamic documents.
    """
    config.validate()
    if horizon_ms <= 0:
        raise WorkloadError(f"horizon_ms must be > 0, got {horizon_ms}")
    times: List[float] = []
    docs: List[int] = []
    dynamic = catalog.dynamic_ids()
    if not dynamic:
        return UpdateLog(times, docs)

    sampler = ZipfSampler(len(dynamic), config.zipf_alpha)
    t = 0.0
    while True:
        t += float(rng.exponential(config.mean_update_interarrival_ms))
        if t > horizon_ms:
            break
        times.append(t)
        docs.append(dynamic[sampler.sample_one(rng)])
    return UpdateLog(times, docs)
