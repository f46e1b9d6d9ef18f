"""Workload generation and trace IO.

The paper drives its simulator with request logs derived from the 2000
Sydney Olympics IBM trace and an origin-side update log.  That trace is
proprietary, so :mod:`repro.workload.ibm_synthetic` generates the
closest synthetic equivalent: Zipf document popularity, heavy-tailed
sizes, high cross-cache request similarity, and a Poisson update stream
over the dynamic subset of the catalog (see DESIGN.md, Substitutions).
"""

from repro.workload.documents import Document, DocumentCatalog, build_catalog
from repro.workload.zipf import ZipfSampler
from repro.workload.trace import (
    RequestLog,
    RequestRecord,
    UpdateLog,
    UpdateRecord,
    read_request_log,
    read_update_log,
    write_request_log,
    write_update_log,
)
from repro.workload.requests import generate_request_log
from repro.workload.updates import generate_update_log
from repro.workload.ibm_synthetic import (
    Workload,
    generate_workload,
    load_workload,
)
from repro.workload.flash_crowd import (
    FlashCrowdConfig,
    generate_flash_crowd_workload,
)
from repro.workload.stats import TraceStats, summarize_trace

__all__ = [
    "Document",
    "DocumentCatalog",
    "build_catalog",
    "ZipfSampler",
    "RequestLog",
    "RequestRecord",
    "UpdateLog",
    "UpdateRecord",
    "read_request_log",
    "write_request_log",
    "read_update_log",
    "write_update_log",
    "generate_request_log",
    "generate_update_log",
    "Workload",
    "generate_workload",
    "load_workload",
    "FlashCrowdConfig",
    "generate_flash_crowd_workload",
    "TraceStats",
    "summarize_trace",
]
