"""High-level simulation entry point: :func:`simulate`.

Bundles engine construction and execution into one call and returns a
:class:`SimulationResult` exposing the paper's metrics directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.config import SimulationConfig
from repro.core.groups import GroupingResult
from repro.errors import SimulationError
from repro.faults.schedule import FaultSchedule
from repro.obs.observer import Observer
from repro.obs.sampler import TimeSeries
from repro.obs.trace import TraceRecord
from repro.simulator.engine import SimulationEngine
from repro.simulator.metrics import SimulationMetrics
from repro.topology.network import EdgeCacheNetwork
from repro.types import NodeId
from repro.workload.ibm_synthetic import Workload


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run.

    ``observer`` is present only for instrumented runs; the
    :meth:`timeseries` and :attr:`trace` accessors surface its sampled
    series and trace records directly.
    """

    metrics: SimulationMetrics = field(repr=False)
    grouping: GroupingResult = field(repr=False)
    network: EdgeCacheNetwork = field(repr=False)
    observer: Optional[Observer] = field(default=None, repr=False)

    def timeseries(self) -> TimeSeries:
        """The sampled time series of an instrumented run."""
        if self.observer is None or self.observer.sampler is None:
            raise SimulationError(
                "no time series: run simulate() with an Observer carrying "
                "a MetricsSampler"
            )
        return self.observer.sampler.series()

    @property
    def trace(self) -> List[TraceRecord]:
        """The trace records of an instrumented run (oldest first)."""
        if self.observer is None or self.observer.trace is None:
            raise SimulationError(
                "no trace: run simulate() with an Observer carrying a "
                "TraceCollector"
            )
        return self.observer.trace.records()

    def average_latency_ms(self, caches: Sequence[NodeId] = ()) -> float:
        """The paper's *average cache latency* (optionally for a subset)."""
        return self.metrics.average_latency_ms(caches)

    def latency_nearest_origin(self, count: int = 50) -> float:
        """Average latency of the ``count`` caches nearest the origin.

        Figure 3 plots this for the 50 nearest caches.
        """
        return self.metrics.average_latency_ms(
            self.network.caches_nearest_origin(count)
        )

    def latency_farthest_origin(self, count: int = 50) -> float:
        """Average latency of the ``count`` caches farthest from the origin."""
        return self.metrics.average_latency_ms(
            self.network.caches_farthest_origin(count)
        )

    def hit_rates(self) -> dict:
        return self.metrics.hit_rates()

    def group_hit_rate(self) -> float:
        return self.metrics.group_hit_rate()

    def stale_serve_fraction(self) -> float:
        """Fraction of requests served from out-of-date copies."""
        return self.metrics.stale_serve_fraction()


def simulate(
    network: EdgeCacheNetwork,
    grouping: GroupingResult,
    workload: Workload,
    config: Optional[SimulationConfig] = None,
    group_protocol_mode: str = "beacon",
    observer: Optional[Observer] = None,
    faults: Optional["FaultSchedule"] = None,
) -> SimulationResult:
    """Run the cooperative edge cache network simulation to completion.

    >>> from repro.topology import build_network
    >>> from repro.core.groups import singleton_groups
    >>> from repro.workload import generate_workload
    >>> from repro.config import WorkloadConfig, DocumentConfig
    >>> net = build_network(num_caches=4, seed=3)
    >>> wl = generate_workload(
    ...     net.cache_nodes,
    ...     WorkloadConfig(
    ...         documents=DocumentConfig(num_documents=50),
    ...         requests_per_cache=40,
    ...     ),
    ...     seed=3,
    ... )
    >>> result = simulate(net, singleton_groups(net.cache_nodes), wl)
    >>> result.average_latency_ms() > 0
    True
    """
    engine = SimulationEngine(
        network,
        grouping,
        workload,
        config=config,
        group_protocol_mode=group_protocol_mode,
        observer=observer,
        faults=faults,
    )
    metrics = engine.run()
    return SimulationResult(
        metrics=metrics,
        grouping=grouping,
        network=network,
        observer=observer,
    )
