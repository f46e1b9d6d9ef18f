"""Fault-injection configuration for the group-formation pipeline.

:class:`FaultConfig` declares *measurement-side* faults: per-probe loss
and landmarks crashing right after selection.  Simulation-side faults
(cache crash/recover timelines and network partitions) live in
:class:`repro.faults.schedule.FaultSchedule`.

The config is pure data — all randomness is drawn later by
:class:`repro.faults.model.FaultModel` from content-keyed
:class:`repro.utils.rng.RngFactory` streams, so a given config + root
seed is bit-reproducible.  A config whose :meth:`is_noop` is True must
never change any measurement: callers skip the fault layer entirely in
that case, which is what keeps zero-fault runs byte-identical to runs
without a fault model at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProbingError
from repro.types import Ms
from repro.utils.validation import (
    check_fraction,
    check_in_range,
    check_non_negative,
    check_positive,
)


@dataclass(frozen=True)
class FaultConfig:
    """Measurement-side fault parameters (validated, all-zero by default)."""

    #: probability that one individual probe message is lost
    probe_loss_rate: float = 0.0
    #: simulated wait charged for each probe that never returns (ms).
    #: Sized to edge-RTT scale (a few × the largest expected RTT): a
    #: retried slot's end-to-end timing includes this wait, so an
    #: outsized timeout would make any loss saturate the measurement.
    probe_timeout_ms: Ms = 500.0
    #: bounded retries per lost probe before the slot gives up
    max_retries: int = 2
    #: first retry backoff (ms); doubles per retry up to the cap
    backoff_base_ms: Ms = 50.0
    #: ceiling on one retry's backoff delay (ms)
    backoff_cap_ms: Ms = 1000.0
    #: cache landmarks crashed immediately after selection (failover test)
    crashed_landmarks: int = 0
    #: minimum fraction of valid feature entries for a landmark column
    #: to count as reachable (below it, the landmark is replaced)
    quorum: float = 0.5
    #: bound on landmark replacement attempts during one formation
    max_landmark_replacements: int = 8

    def validate(self) -> None:
        """Raise :class:`repro.errors.ProbingError` on bad parameters."""
        check_fraction("probe_loss_rate", self.probe_loss_rate,
                       exc=ProbingError)
        check_positive("probe_timeout_ms", self.probe_timeout_ms,
                       exc=ProbingError)
        check_non_negative("max_retries", self.max_retries, exc=ProbingError)
        check_non_negative("backoff_base_ms", self.backoff_base_ms,
                           exc=ProbingError)
        check_in_range("backoff_cap_ms", self.backoff_cap_ms,
                       self.backoff_base_ms, float("inf"), exc=ProbingError)
        check_non_negative("crashed_landmarks", self.crashed_landmarks,
                           exc=ProbingError)
        check_fraction("quorum", self.quorum, exc=ProbingError)
        check_positive("max_landmark_replacements",
                       self.max_landmark_replacements, exc=ProbingError)

    def is_noop(self) -> bool:
        """True when this config can never alter a measurement."""
        return self.probe_loss_rate == 0.0 and self.crashed_landmarks == 0
