"""Sampled time-series metrics driven by simulated time.

The :class:`MetricsSampler` accumulates per-window counters as the
engine serves requests and flushes one :class:`Sample` every
``interval_ms`` of *simulated* time (ticks are aligned to multiples of
the interval, so two runs with the same workload sample at identical
instants).  Each sample carries the windowed hit-rate decomposition,
per-path request rates, window latency mean/p95 (via
:class:`repro.utils.stats.FixedBinHistogram`), origin load (arrival rate
and, when origin queueing is enabled, the
:class:`~repro.simulator.origin_load.OriginLoadTracker` utilisation),
and mean cache occupancy.

:meth:`MetricsSampler.series` exposes the collected samples as a
:class:`TimeSeries` of numpy arrays ready for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import SimulationError
from repro.types import Ms, SimMs, ms_to_s
from repro.utils.stats import FixedBinHistogram


@dataclass(frozen=True)
class Sample:
    """One flushed sampling window (rates are per simulated second)."""

    time_ms: SimMs
    requests: int
    local_hits: int
    group_hits: int
    origin_fetches: int
    #: windowed fraction of requests served without touching the origin
    hit_rate: float
    request_rate_rps: float
    local_rate_rps: float
    group_rate_rps: float
    origin_rate_rps: float
    mean_latency_ms: float
    p95_latency_ms: float
    #: OriginLoadTracker utilisation (0.0 when queueing is disabled)
    origin_utilisation: float
    #: mean used/capacity over all caches
    cache_occupancy: float


#: TimeSeries column names, in the order ``as_matrix`` stacks them.
SERIES_FIELDS = (
    "time_ms",
    "requests",
    "hit_rate",
    "request_rate_rps",
    "local_rate_rps",
    "group_rate_rps",
    "origin_rate_rps",
    "mean_latency_ms",
    "p95_latency_ms",
    "origin_utilisation",
    "cache_occupancy",
)


@dataclass(frozen=True)
class TimeSeries:
    """Columnar numpy view over a run's samples."""

    time_ms: np.ndarray
    requests: np.ndarray
    hit_rate: np.ndarray
    request_rate_rps: np.ndarray
    local_rate_rps: np.ndarray
    group_rate_rps: np.ndarray
    origin_rate_rps: np.ndarray
    mean_latency_ms: np.ndarray
    p95_latency_ms: np.ndarray
    origin_utilisation: np.ndarray
    cache_occupancy: np.ndarray

    def __len__(self) -> int:
        return int(self.time_ms.size)

    def as_matrix(self) -> np.ndarray:
        """(n_samples, n_fields) matrix in :data:`SERIES_FIELDS` order."""
        return np.column_stack([getattr(self, f) for f in SERIES_FIELDS])

    def to_dict(self) -> Dict[str, List[float]]:
        """JSON-ready mapping of field name -> list of values."""
        return {f: getattr(self, f).tolist() for f in SERIES_FIELDS}

    @classmethod
    def from_dict(cls, payload: Dict[str, List[float]]) -> "TimeSeries":
        try:
            return cls(**{
                f: np.asarray(payload[f], dtype=float)
                for f in SERIES_FIELDS
            })
        except KeyError as exc:
            raise SimulationError(
                f"time series payload is missing field {exc}"
            ) from exc


class MetricsSampler:
    """Windowed counters flushed at fixed simulated-time ticks.

    The engine folds served requests in (:meth:`observe_request`, or
    :meth:`observe_batch` from the batched kernel) and, before each
    event, flushes every tick at or before the event's time: both event
    loops run ``while next_tick_ms <= now: flush(next_tick_ms, ...)``,
    so every sample boundary ``k * interval_ms`` strictly precedes the
    events after it.  :meth:`finalize` closes the trailing partial
    window.
    """

    def __init__(
        self,
        interval_ms: SimMs,
        latency_upper_ms: Ms = 2_000.0,
    ) -> None:
        if interval_ms <= 0:
            raise SimulationError(
                f"sample interval must be > 0 ms, got {interval_ms}"
            )
        self._interval_ms = float(interval_ms)
        self._next_tick_ms = self._interval_ms
        self._samples: List[Sample] = []
        self._window_hist = FixedBinHistogram(upper=latency_upper_ms)
        self._local = 0
        self._group = 0
        self._origin = 0
        self._finalized = False

    @property
    def interval_ms(self) -> float:
        return self._interval_ms

    @property
    def next_tick_ms(self) -> float:
        """The next sample boundary: a tick is due once an event's time
        reaches it (the batched loop mirrors this locally so its
        per-event due-check is one float compare)."""
        return self._next_tick_ms

    @property
    def num_samples(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[Sample]:
        return list(self._samples)

    def observe_request(
        self, path_value: str, total_ms: float, counted: bool
    ) -> None:
        """Fold one served request into the current window.

        Warm-up requests count toward rates (the traffic is real) but
        the decomposition mirrors :class:`SimulationMetrics`, so the
        windowed ``hit_rate`` includes them too — hit-rate *evolution*
        during warm-up is precisely what sampling is for.
        """
        del counted  # every served request is load; kept for symmetry
        if path_value == "local_hit":
            self._local += 1
        elif path_value == "group_hit":
            self._group += 1
        elif path_value == "origin_fetch":
            self._origin += 1
        else:
            raise SimulationError(f"unknown service path {path_value!r}")
        self._window_hist.add(total_ms)

    def observe_batch(
        self,
        local_hits: int,
        group_hits: int,
        origin_fetches: int,
        total_ms_values: List[float],
    ) -> None:
        """Fold a run of served requests into the current window at once.

        Batched counterpart of :meth:`observe_request`: the batched
        event loop buffers per-path counts and latency totals between
        sample ticks and folds them here in one call.  ``total_ms_values``
        must be in served order — the window histogram accumulates its
        sum sequentially, so order is what keeps the flushed samples
        bit-identical to per-request observation.
        """
        self._local += local_hits
        self._group += group_hits
        self._origin += origin_fetches
        hist_add = self._window_hist.add
        for value in total_ms_values:
            hist_add(value)

    def flush(
        self,
        tick_ms: float,
        origin_utilisation: float = 0.0,
        cache_occupancy: float = 0.0,
    ) -> Sample:
        """Close the current window at ``tick_ms`` and emit its sample."""
        requests = self._local + self._group + self._origin
        window_s = ms_to_s(self._interval_ms)
        hit_rate = (
            (self._local + self._group) / requests if requests else 0.0
        )
        sample = Sample(
            time_ms=tick_ms,
            requests=requests,
            local_hits=self._local,
            group_hits=self._group,
            origin_fetches=self._origin,
            hit_rate=hit_rate,
            request_rate_rps=requests / window_s,
            local_rate_rps=self._local / window_s,
            group_rate_rps=self._group / window_s,
            origin_rate_rps=self._origin / window_s,
            mean_latency_ms=self._window_hist.mean if requests else 0.0,
            p95_latency_ms=(
                self._window_hist.percentile(95) if requests else 0.0
            ),
            origin_utilisation=origin_utilisation,
            cache_occupancy=cache_occupancy,
        )
        self._samples.append(sample)
        self._local = self._group = self._origin = 0
        self._window_hist.reset()
        self._next_tick_ms = tick_ms + self._interval_ms
        return sample

    def finalize(
        self,
        now_ms: float,
        origin_utilisation: float = 0.0,
        cache_occupancy: float = 0.0,
    ) -> None:
        """Flush the trailing partial window (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        if self._local + self._group + self._origin == 0:
            return
        tick = self._interval_ms * math.ceil(now_ms / self._interval_ms)
        if tick < self._next_tick_ms:
            tick = self._next_tick_ms
        self.flush(tick, origin_utilisation, cache_occupancy)

    def series(self) -> TimeSeries:
        """The collected samples as columnar numpy arrays."""
        def column(name: str) -> np.ndarray:
            return np.asarray(
                [getattr(s, name) for s in self._samples], dtype=float
            )

        return TimeSeries(**{f: column(f) for f in SERIES_FIELDS})
