"""Discrete event simulator of a cooperative edge cache network.

Models the system the paper evaluates on (Section 5):

* request-log-driven :class:`EdgeCache` instances with utility-based
  document placement and replacement (per "Cache Clouds", ICDCS 2005);
* an :class:`OriginServer` driven by an update log, with server-driven
  invalidation of cached dynamic documents;
* ICP-style cooperative miss handling within each cache group
  (:mod:`repro.simulator.group_proto`);
* a latency model charging network RTTs, transfer times, and processing
  overheads per request (:mod:`repro.simulator.latency`).

The top-level entry point is :func:`repro.simulator.runner.simulate`.
"""

from repro.simulator.events import (
    CacheFailEvent,
    CacheRecoverEvent,
    OriginUpdateEvent,
    RequestEvent,
)
from repro.simulator.replacement import (
    LFUPolicy,
    LRUPolicy,
    ReplacementPolicy,
    UtilityPolicy,
    make_policy,
)
from repro.simulator.cache import CachedDocument, EdgeCache
from repro.simulator.origin import OriginServer
from repro.simulator.group_proto import GroupProtocol, LookupOutcome
from repro.simulator.latency import LatencyModel, ServicePath
from repro.simulator.metrics import CacheStats, SimulationMetrics
from repro.simulator.engine import SimulationEngine
from repro.simulator.runner import SimulationResult, simulate

__all__ = [
    "RequestEvent",
    "OriginUpdateEvent",
    "CacheFailEvent",
    "CacheRecoverEvent",
    "ReplacementPolicy",
    "UtilityPolicy",
    "LRUPolicy",
    "LFUPolicy",
    "make_policy",
    "EdgeCache",
    "CachedDocument",
    "OriginServer",
    "GroupProtocol",
    "LookupOutcome",
    "LatencyModel",
    "ServicePath",
    "CacheStats",
    "SimulationMetrics",
    "SimulationEngine",
    "SimulationResult",
    "simulate",
]
