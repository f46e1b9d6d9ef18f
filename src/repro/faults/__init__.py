"""Deterministic fault injection for probing and simulation.

Measurement-side faults (probe loss, landmark crashes) are declared by
:class:`FaultConfig` and executed by :class:`FaultModel`;
simulation-side timelines (cache crash/recover, partitions) by
:class:`FaultSchedule`.  All randomness flows through
content-keyed :class:`repro.utils.rng.RngFactory` streams.
"""

from repro.faults.config import FaultConfig
from repro.faults.model import FaultModel
from repro.faults.schedule import (
    FaultSchedule,
    PartitionSpec,
    random_fault_schedule,
)

__all__ = [
    "FaultConfig",
    "FaultModel",
    "FaultSchedule",
    "PartitionSpec",
    "random_fault_schedule",
]
