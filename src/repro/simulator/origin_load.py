"""Origin load tracking and congestion-dependent processing time.

When ``SimulationConfig.origin_capacity_rps`` is set, the origin's per-request
processing time inflates with its recent load: with arrival rate λ
(estimated over a sliding window) and capacity μ, the M/M/1 mean
response factor is ``1 / (1 - ρ)`` for utilisation ``ρ = λ/μ``, clamped
below saturation.  Cooperative caching's origin-offload benefit — one
of the paper's three motivations for cache cooperation — then shows up
directly in the latency numbers.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.types import MS_PER_S

#: Utilisation clamp: past this the queue model would diverge; a real
#: origin degrades (sheds load / queues unboundedly), which we cap as a
#: large-but-finite inflation factor.
MAX_UTILISATION = 0.95


class OriginLoadTracker:
    """Sliding-window arrival counter with an M/M/1 inflation factor."""

    def __init__(self, capacity_rps: float, window_ms: float) -> None:
        if capacity_rps <= 0:
            raise SimulationError("capacity_rps must be > 0")
        if window_ms <= 0:
            raise SimulationError("window_ms must be > 0")
        self._capacity_per_ms = capacity_rps / MS_PER_S
        self._window_ms = window_ms
        self._arrivals: deque = deque()
        self._peak_utilisation = 0.0

    def record_arrival(self, now_ms: float) -> None:
        """Note one origin fetch at ``now_ms`` (non-decreasing times)."""
        if self._arrivals and now_ms < self._arrivals[-1]:
            raise SimulationError(
                f"arrival at {now_ms} precedes last at {self._arrivals[-1]}"
            )
        self._arrivals.append(now_ms)
        self._evict(now_ms)

    def utilisation(self, now_ms: float) -> float:
        """Current ρ = (windowed arrival rate) / capacity, clamped."""
        self._evict(now_ms)
        rate_per_ms = len(self._arrivals) / self._window_ms
        rho = min(rate_per_ms / self._capacity_per_ms, MAX_UTILISATION)
        if rho > self._peak_utilisation:
            self._peak_utilisation = rho
        return rho

    def inflation_factor(self, now_ms: float) -> float:
        """The 1/(1-ρ) processing-time multiplier (≥ 1)."""
        return 1.0 / (1.0 - self.utilisation(now_ms))

    @property
    def peak_utilisation(self) -> float:
        """Highest utilisation observed so far (for reporting)."""
        return self._peak_utilisation

    def _evict(self, now_ms: float) -> None:
        cutoff = now_ms - self._window_ms
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()
