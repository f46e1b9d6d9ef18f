"""repro — reproduction of "Efficient Formation of Edge Cache Groups for
Dynamic Content Delivery" (Ramaswamy, Liu & Zhang, ICDCS 2006).

The library has three layers:

* **substrates** — :mod:`repro.topology` (transit-stub topologies and
  RTT matrices), :mod:`repro.probing` (simulated RTT measurement),
  :mod:`repro.workload` (synthetic Olympics-like traces), and
  :mod:`repro.simulator` (the cooperative edge-cache-network discrete
  event simulator);
* **the contribution** — :mod:`repro.core` (the SL and SDSL cache-group
  formation schemes plus the paper's baselines), built on
  :mod:`repro.landmarks`, :mod:`repro.clustering`, and
  :mod:`repro.coords`;
* **evaluation** — :mod:`repro.analysis` (GICost and latency metrics)
  and :mod:`repro.experiments` (one runner per paper figure).

Quickstart::

    from repro import build_network, SLScheme, SDSLScheme

    network = build_network(num_caches=100, seed=7)
    groups = SDSLScheme().form_groups(network, k=10, seed=7)
    for group in groups.groups:
        print(group.group_id, group.members)
"""

from repro.config import (
    CacheConfig,
    DocumentConfig,
    GNPConfig,
    KMeansConfig,
    LandmarkConfig,
    ProbeConfig,
    SDSLConfig,
    SimulationConfig,
    TransitStubConfig,
    WorkloadConfig,
)
from repro.core import (
    CacheGroup,
    EuclideanGNPScheme,
    GFCoordinator,
    GroupFormationScheme,
    GroupingResult,
    MembershipManager,
    MinDistLandmarksScheme,
    RandomLandmarksScheme,
    SDSLScheme,
    SLScheme,
    VivaldiScheme,
    scheme_by_name,
)
from repro.errors import ReproError
from repro.analysis import (
    average_group_interaction_cost,
    improvement_percent,
)
from repro.simulator import SimulationResult, simulate
from repro.topology import (
    DistanceMatrix,
    EdgeCacheNetwork,
    build_network,
    drift_network,
    network_from_matrix,
    network_stats,
)
from repro.workload import (
    FlashCrowdConfig,
    Workload,
    generate_flash_crowd_workload,
    generate_workload,
    summarize_trace,
)

__version__ = "1.0.0"

__all__ = [
    # configs
    "CacheConfig",
    "DocumentConfig",
    "GNPConfig",
    "KMeansConfig",
    "LandmarkConfig",
    "ProbeConfig",
    "SDSLConfig",
    "SimulationConfig",
    "TransitStubConfig",
    "WorkloadConfig",
    # core schemes
    "CacheGroup",
    "GroupingResult",
    "GroupFormationScheme",
    "GFCoordinator",
    "SLScheme",
    "SDSLScheme",
    "RandomLandmarksScheme",
    "MinDistLandmarksScheme",
    "EuclideanGNPScheme",
    "VivaldiScheme",
    "MembershipManager",
    "scheme_by_name",
    # substrates and evaluation
    "ReproError",
    "DistanceMatrix",
    "EdgeCacheNetwork",
    "build_network",
    "network_from_matrix",
    "drift_network",
    "network_stats",
    "Workload",
    "generate_workload",
    "FlashCrowdConfig",
    "generate_flash_crowd_workload",
    "summarize_trace",
    "simulate",
    "SimulationResult",
    "average_group_interaction_cost",
    "improvement_percent",
    "__version__",
]
