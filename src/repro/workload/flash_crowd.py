"""Flash-crowd workloads: non-homogeneous request arrivals.

The 2000 Olympics site the paper's trace comes from lived on flash
crowds — medal-event moments multiply the request rate for a while.
:func:`generate_flash_crowd_workload` produces a workload whose arrival
*rate* carries a Gaussian burst on top of a steady base:

    rate(t) ∝ 1 + (peak_factor - 1) · exp(-(t - center)² / 2σ²)

Document popularity during the burst narrows to the hottest documents
(everybody loads the same scores page), which is exactly the regime
where group caching and origin offload earn their keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.config import WorkloadConfig
from repro.errors import WorkloadError
from repro.types import NodeId
from repro.utils.rng import SeedLike, spawn_rng
from repro.workload.documents import build_catalog
from repro.workload.ibm_synthetic import Workload
from repro.workload.trace import sorted_request_log
from repro.workload.updates import generate_update_log
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True)
class FlashCrowdConfig:
    """Shape of the burst.

    ``peak_factor`` is the rate multiplier at the burst's center;
    ``center_fraction``/``width_fraction`` position and size it within
    the workload duration; ``burst_zipf_alpha`` is the (steeper)
    popularity exponent used for requests landing inside the burst.
    """

    peak_factor: float = 6.0
    center_fraction: float = 0.5
    width_fraction: float = 0.08
    burst_zipf_alpha: float = 1.4

    def validate(self) -> None:
        if self.peak_factor < 1.0:
            raise WorkloadError("peak_factor must be >= 1")
        if not 0.0 < self.center_fraction < 1.0:
            raise WorkloadError("center_fraction must be in (0, 1)")
        if not 0.0 < self.width_fraction < 0.5:
            raise WorkloadError("width_fraction must be in (0, 0.5)")
        if self.burst_zipf_alpha <= 0:
            raise WorkloadError("burst_zipf_alpha must be > 0")


def _sample_arrival_times(
    count: int,
    duration_ms: float,
    crowd: FlashCrowdConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Inverse-free burst sampling: mixture of uniform + Gaussian.

    The burst contributes mass proportional to its excess rate
    integral; sampling from the mixture reproduces the target rate
    shape without numerical rate inversion.
    """
    center = crowd.center_fraction * duration_ms
    sigma = crowd.width_fraction * duration_ms
    # Excess burst mass relative to base: (f-1) * sigma * sqrt(2*pi)
    excess = (crowd.peak_factor - 1.0) * sigma * np.sqrt(2 * np.pi)
    burst_weight = excess / (duration_ms + excess)

    from_burst = rng.random(count) < burst_weight
    times = np.where(
        from_burst,
        rng.normal(center, sigma, size=count),
        rng.random(count) * duration_ms,
    )
    # Burst tails outside the window fold back to uniform.
    outside = (times < 0) | (times > duration_ms)
    times[outside] = rng.random(int(outside.sum())) * duration_ms
    return np.sort(times)


def generate_flash_crowd_workload(
    cache_nodes: Sequence[NodeId],
    config: Optional[WorkloadConfig] = None,
    crowd: Optional[FlashCrowdConfig] = None,
    duration_ms: float = 60_000.0,
    seed: SeedLike = None,
) -> Workload:
    """Generate a bursty workload over ``cache_nodes``.

    ``config.requests_per_cache`` requests per cache are placed on the
    bursty arrival profile; in-burst requests draw documents from a
    steeper Zipf (the crowd converges on the same hot pages).
    """
    config = config or WorkloadConfig()
    config.validate()
    crowd = crowd or FlashCrowdConfig()
    crowd.validate()
    if duration_ms <= 0:
        raise WorkloadError(f"duration_ms must be > 0, got {duration_ms}")
    cache_nodes = list(cache_nodes)
    if not cache_nodes:
        raise WorkloadError("need at least one cache")

    rng = spawn_rng(seed)
    catalog = build_catalog(config.documents, seed=rng)
    n_docs = config.documents.num_documents
    base_sampler = ZipfSampler(n_docs, config.zipf_alpha)
    burst_sampler = ZipfSampler(n_docs, crowd.burst_zipf_alpha)

    center = crowd.center_fraction * duration_ms
    sigma = crowd.width_fraction * duration_ms

    time_columns: List[np.ndarray] = []
    doc_columns: List[np.ndarray] = []
    for cache in cache_nodes:
        local_sampler = ZipfSampler(
            n_docs, config.zipf_alpha, permutation=rng.permutation(n_docs)
        )
        times = _sample_arrival_times(
            config.requests_per_cache, duration_ms, crowd, rng
        )
        in_burst = np.abs(times - center) <= 2 * sigma
        use_global = rng.random(times.size) < config.shared_interest
        burst_docs = burst_sampler.sample(rng, size=times.size)
        base_docs = base_sampler.sample(rng, size=times.size)
        local_docs = local_sampler.sample(rng, size=times.size)
        docs = np.where(
            in_burst, burst_docs, np.where(use_global, base_docs, local_docs)
        )
        time_columns.append(times)
        doc_columns.append(docs)
    requests = sorted_request_log(
        np.concatenate(time_columns),
        np.repeat(np.asarray(cache_nodes), config.requests_per_cache),
        np.concatenate(doc_columns),
    )
    updates = generate_update_log(catalog, config, duration_ms, rng)
    return Workload(catalog=catalog, requests=requests, updates=updates)
