"""Configuration dataclasses for every subsystem.

All configs are frozen dataclasses with a ``validate()`` method that
raises :class:`repro.errors.ConfigurationError` on internal
inconsistencies.  Constructors deliberately do *not* validate (so sweeps
can build partially-filled configs); every consumer calls ``validate()``
at its entry point.

Defaults follow the paper's experimental setup where the paper states
one (L=25 landmarks, M=2 potential-landmark multiplier, K = 10% of N,
N up to 500 caches, GT-ITM transit-stub topologies) and the cited
"Cache Clouds" / GT-ITM literature otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)


@dataclass(frozen=True)
class TransitStubConfig:
    """Parameters of the hierarchical transit-stub topology generator.

    The generated graph has ``transit_domains`` transit domains of
    ``transit_nodes_per_domain`` routers each, and every transit router
    hosts ``stub_domains_per_transit_node`` stub domains of
    ``stub_nodes_per_domain`` routers.  Edge latencies (milliseconds) are
    drawn uniformly from the per-tier ranges, mirroring GT-ITM's
    convention that inter-transit links are slow, transit-stub links are
    medium, and intra-stub links are fast.
    """

    transit_domains: int = 4
    transit_nodes_per_domain: int = 4
    stub_domains_per_transit_node: int = 3
    stub_nodes_per_domain: int = 8
    #: probability of an extra edge between routers of the same domain
    intra_domain_edge_prob: float = 0.42
    #: probability of an extra transit-transit domain-level edge
    extra_transit_edge_prob: float = 0.25
    #: probability of an extra stub-to-transit "multi-homing" edge
    extra_stub_transit_edge_prob: float = 0.03
    transit_transit_latency_ms: Tuple[float, float] = (20.0, 60.0)
    transit_stub_latency_ms: Tuple[float, float] = (4.0, 16.0)
    intra_transit_latency_ms: Tuple[float, float] = (8.0, 25.0)
    intra_stub_latency_ms: Tuple[float, float] = (1.0, 5.0)

    def validate(self) -> None:
        if self.transit_domains < 1:
            raise ConfigurationError("transit_domains must be >= 1")
        if self.transit_nodes_per_domain < 1:
            raise ConfigurationError("transit_nodes_per_domain must be >= 1")
        if self.stub_domains_per_transit_node < 0:
            raise ConfigurationError("stub_domains_per_transit_node must be >= 0")
        if self.stub_nodes_per_domain < 1:
            raise ConfigurationError("stub_nodes_per_domain must be >= 1")
        for name in ("intra_domain_edge_prob", "extra_transit_edge_prob",
                     "extra_stub_transit_edge_prob"):
            check_fraction(name, getattr(self, name), exc=ConfigurationError)
        for name in ("transit_transit_latency_ms", "transit_stub_latency_ms",
                     "intra_transit_latency_ms", "intra_stub_latency_ms"):
            low, high = getattr(self, name)
            if not 0 < low <= high:
                raise ConfigurationError(
                    f"{name} must satisfy 0 < low <= high, got ({low}, {high})"
                )

    @property
    def total_routers(self) -> int:
        """Number of routers the generated topology will contain."""
        transit = self.transit_domains * self.transit_nodes_per_domain
        stubs = (
            transit
            * self.stub_domains_per_transit_node
            * self.stub_nodes_per_domain
        )
        return transit + stubs

    @property
    def stub_domain_count(self) -> int:
        """Number of stub domains the topology will contain."""
        return (
            self.transit_domains
            * self.transit_nodes_per_domain
            * self.stub_domains_per_transit_node
        )

    def sized_for_density(
        self, num_nodes: int, nodes_per_stub_router: float = 0.8
    ) -> "TransitStubConfig":
        """Return a copy whose stub tier matches a placement density.

        The paper's flagship setting places 500 caches on a GT-ITM
        topology with roughly 600 stub routers (~0.8 caches per stub
        router), so edge caches share stub domains with close-by peers.
        This picks ``stub_nodes_per_domain`` to hold that density at any
        network size (never below 2 per domain, and always enough
        routers for distinct placement).
        """
        if num_nodes <= 0:
            raise ConfigurationError("num_nodes must be > 0")
        check_positive("nodes_per_stub_router", nodes_per_stub_router,
                       exc=ConfigurationError)
        domains = self.stub_domain_count
        if domains == 0:
            raise ConfigurationError(
                "cannot size a topology with no stub domains"
            )
        target_routers = max(
            num_nodes + 1, round(num_nodes / nodes_per_stub_router)
        )
        per_domain = max(2, -(-target_routers // domains))
        return replace(self, stub_nodes_per_domain=per_domain)


@dataclass(frozen=True)
class ProbeConfig:
    """Simulated RTT probing.

    Each probe observes ``true_rtt * (1 + e)`` with ``e`` drawn from a
    zero-mean normal of relative std ``jitter_std``; feature vectors
    average ``probe_count`` probes, as in the paper ("probing them
    multiple times and recording the average RTT values").
    """

    probe_count: int = 5
    jitter_std: float = 0.05
    #: floor so jittered probes cannot go non-positive
    min_rtt_ms: float = 0.05

    def validate(self) -> None:
        if self.probe_count < 1:
            raise ConfigurationError("probe_count must be >= 1")
        check_non_negative("jitter_std", self.jitter_std,
                           exc=ConfigurationError)
        check_positive("min_rtt_ms", self.min_rtt_ms, exc=ConfigurationError)


@dataclass(frozen=True)
class LandmarkConfig:
    """Landmark selection parameters (Section 3.1 of the paper)."""

    #: L — total landmarks including the origin server
    num_landmarks: int = 25
    #: M — potential-landmark multiplier; PLSet size is M * (L - 1)
    multiplier: int = 2

    def validate(self) -> None:
        if self.num_landmarks < 2:
            raise ConfigurationError(
                "num_landmarks must be >= 2 (origin plus at least one cache)"
            )
        if self.multiplier < 1:
            raise ConfigurationError("multiplier must be >= 1")

    def potential_set_size(self) -> int:
        """Size of the potential landmark set, ``M * (L - 1)``."""
        return self.multiplier * (self.num_landmarks - 1)


@dataclass(frozen=True)
class KMeansConfig:
    """K-means clustering parameters (Section 3.3).

    The paper iterates "until the number of caches that were reassigned
    in the current iteration becomes minimal"; we stop when the number of
    reassignments drops to ``reassignment_tolerance`` or fewer, or after
    ``max_iterations`` as a safety bound.
    """

    max_iterations: int = 100
    reassignment_tolerance: int = 0
    #: number of random restarts; best (lowest-SSE) clustering wins
    restarts: int = 1

    def validate(self) -> None:
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.reassignment_tolerance < 0:
            raise ConfigurationError("reassignment_tolerance must be >= 0")
        if self.restarts < 1:
            raise ConfigurationError("restarts must be >= 1")


@dataclass(frozen=True)
class SDSLConfig:
    """SDSL-specific parameters (Section 4.1).

    ``theta`` controls sensitivity to server distance: the probability of
    picking cache ``Ec_j`` as an initial cluster center is proportional
    to ``1 / Dist(Ec_j, Os) ** theta``.  ``theta = 0`` degenerates to the
    plain SL scheme's uniform initialization.  The paper leaves theta's
    value open ("a configurable system parameter"); 2.0 is the value our
    theta-ablation bench found robustly best on transit-stub topologies
    at the paper's K = 10-20% of N settings.

    ``adaptive = True`` scales theta with the group density instead:
    ``theta_eff = clamp(20 * K / N, 0.5, 2.5)``.  Calibration at N=500
    showed the best theta grows with K/N — few centers tolerate only a
    gentle bias (theta~0.5 at K/N=2%), many centers profit from a strong
    one (theta~2 at K/N=10%).
    """

    theta: float = 2.0
    adaptive: bool = False

    def validate(self) -> None:
        check_non_negative("theta", self.theta, exc=ConfigurationError)

    def effective_theta(self, k: int, num_caches: int) -> float:
        """The theta actually used for a K-group, N-cache run."""
        if k < 1 or num_caches < 1:
            raise ConfigurationError(
                f"k and num_caches must be >= 1, got {k}, {num_caches}"
            )
        if not self.adaptive:
            return self.theta
        return float(min(2.5, max(0.5, 20.0 * k / num_caches)))


@dataclass(frozen=True)
class GNPConfig:
    """Euclidean-space (GNP-style) embedding parameters (Section 5.2)."""

    dimensions: int = 7
    max_iterations: int = 200
    #: independent random starts for the landmark embedding
    landmark_restarts: int = 3

    def validate(self) -> None:
        if self.dimensions < 1:
            raise ConfigurationError("dimensions must be >= 1")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.landmark_restarts < 1:
            raise ConfigurationError("landmark_restarts must be >= 1")


@dataclass(frozen=True)
class DocumentConfig:
    """Document catalog of a workload.

    Sizes are lognormal (heavy tailed, like web objects); a fraction of
    documents is *dynamic*, i.e. subject to server-side updates.
    """

    num_documents: int = 2_000
    mean_size_bytes: float = 12_000.0
    size_sigma: float = 1.0
    dynamic_fraction: float = 0.6

    def validate(self) -> None:
        if self.num_documents < 1:
            raise ConfigurationError("num_documents must be >= 1")
        check_positive("mean_size_bytes", self.mean_size_bytes,
                       exc=ConfigurationError)
        check_non_negative("size_sigma", self.size_sigma,
                           exc=ConfigurationError)
        check_fraction("dynamic_fraction", self.dynamic_fraction,
                       exc=ConfigurationError)


@dataclass(frozen=True)
class WorkloadConfig:
    """Synthetic request/update workload ("Olympics-like" preset).

    Per-cache request streams mix a shared global Zipf popularity
    (weight ``shared_interest``) with a cache-local Zipf permutation,
    reproducing the paper's assumption that "the request patterns of the
    edge caches exhibit considerable degree of similarity".
    """

    documents: DocumentConfig = field(default_factory=DocumentConfig)
    requests_per_cache: int = 400
    zipf_alpha: float = 0.9
    shared_interest: float = 0.8
    #: mean inter-arrival between requests at one cache (ms)
    mean_interarrival_ms: float = 250.0
    #: mean inter-arrival between origin-side document updates (ms)
    mean_update_interarrival_ms: float = 400.0
    duration_ms: Optional[float] = None

    def validate(self) -> None:
        self.documents.validate()
        if self.requests_per_cache < 1:
            raise ConfigurationError("requests_per_cache must be >= 1")
        for name in ("zipf_alpha", "mean_interarrival_ms",
                     "mean_update_interarrival_ms"):
            check_positive(name, getattr(self, name), exc=ConfigurationError)
        check_fraction("shared_interest", self.shared_interest,
                       exc=ConfigurationError)
        if self.duration_ms is not None:
            check_positive("duration_ms", self.duration_ms,
                           exc=ConfigurationError)


@dataclass(frozen=True)
class CacheConfig:
    """Per-edge-cache storage and timing parameters."""

    #: storage capacity as a fraction of the total catalog byte size
    capacity_fraction: float = 0.10
    #: local lookup/processing overhead per request (ms)
    local_processing_ms: float = 0.5
    #: replacement policy: "utility", "lru", or "lfu"
    replacement_policy: str = "utility"
    #: cooperative placement (Cache Clouds resource management): after a
    #: group hit from a peer at most this many ms away, do not store a
    #: duplicate copy locally — rely on the nearby peer and spend the
    #: space on other documents.  None (the default) always stores.
    placement_rtt_threshold_ms: Optional[float] = None

    def validate(self) -> None:
        if not 0.0 < self.capacity_fraction <= 1.0:
            raise ConfigurationError("capacity_fraction must be in (0, 1]")
        check_non_negative("local_processing_ms", self.local_processing_ms,
                           exc=ConfigurationError)
        if self.replacement_policy not in ("utility", "lru", "lfu"):
            raise ConfigurationError(
                f"unknown replacement_policy: {self.replacement_policy!r}"
            )
        if self.placement_rtt_threshold_ms is not None:
            check_non_negative("placement_rtt_threshold_ms",
                               self.placement_rtt_threshold_ms,
                               exc=ConfigurationError)


@dataclass(frozen=True)
class SimulationConfig:
    """Discrete event simulation of the cooperative edge cache network."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    #: origin server per-request processing time for dynamic content (ms).
    #: Dynamic pages are regenerated per fetch (DB queries, templating),
    #: which is the expensive part of a miss and the reason edge caching
    #: of dynamic content pays off at all; 80 ms is a mid-range figure
    #: for DB-backed page assembly circa the paper's era.
    origin_processing_ms: float = 80.0
    #: bandwidth used to convert document bytes into transfer latency
    link_bandwidth_bytes_per_ms: float = 1_250.0  # == 10 Mbit/s
    #: directory lookup overhead for a group-wide query (ms)
    group_lookup_ms: float = 0.3
    #: warm-up fraction of requests excluded from latency metrics
    warmup_fraction: float = 0.1
    #: freshness mechanism: "invalidate" (server-driven invalidation,
    #: the paper's cooperative-freshness model), "ttl" (copies expire
    #: after ``ttl_ms``; updates do not fan out, stale serves possible)
    #: or "none" (copies are never refreshed)
    consistency_mode: str = "invalidate"
    #: copy lifetime under the "ttl" mode (ms)
    ttl_ms: float = 5_000.0
    #: origin service capacity (requests/second).  When set, origin
    #: processing time inflates as the recent origin-fetch arrival rate
    #: approaches it (M/M/1-style 1/(1-rho) factor).  None (the default)
    #: is the paper's latency model: a flat origin processing time.
    origin_capacity_rps: Optional[float] = None
    #: sliding window for the arrival-rate estimate (ms)
    origin_load_window_ms: float = 2_000.0

    def validate(self) -> None:
        self.cache.validate()
        for name in ("origin_processing_ms", "group_lookup_ms"):
            check_non_negative(name, getattr(self, name),
                               exc=ConfigurationError)
        for name in ("link_bandwidth_bytes_per_ms", "ttl_ms",
                     "origin_load_window_ms"):
            check_positive(name, getattr(self, name), exc=ConfigurationError)
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError("warmup_fraction must be in [0, 1)")
        if self.consistency_mode not in ("invalidate", "ttl", "none"):
            raise ConfigurationError(
                f"unknown consistency_mode: {self.consistency_mode!r}"
            )
        if self.origin_capacity_rps is not None:
            check_positive("origin_capacity_rps", self.origin_capacity_rps,
                           exc=ConfigurationError)

