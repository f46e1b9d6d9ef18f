"""Parallel experiment runtime: task scheduling plus testbed caching.

The suite's work units — one ``(figure, size, repetition, scheme)``
point each — are embarrassingly parallel and rebuild identical inputs.
This package supplies the two halves of the fix:

* :mod:`repro.runtime.scheduler` — an ambient, order-preserving
  process-pool mapper (``repro experiment all --jobs N``);
* :mod:`repro.runtime.cache` — a content-keyed LRU + on-disk cache for
  built networks/testbeds.

See ``docs/performance.md`` for the full story and the determinism
guarantees.
"""

from repro.runtime.cache import (
    CACHE_FORMAT_VERSION,
    TestbedCache,
    cached_network,
    configure_cache,
    get_cache,
    network_key,
    reset_cache,
    stats_delta,
    testbed_key,
)
from repro.runtime.scheduler import (
    TaskHook,
    TaskScheduler,
    active_scheduler,
    map_tasks,
    task_hooks,
    use_scheduler,
)

# repro.runtime.telemetry (PerfCollector/ProgressReporter),
# repro.runtime.journal (TaskJournal), and repro.runtime.chaos
# (ChaosPolicy) are NOT re-exported here on purpose: this package sits
# on the experiment hot path, and disabled telemetry/checkpointing/
# fault-injection must cost zero imports.  Callers that enable them
# import lazily and install them with task_hooks(); the scheduler only
# knows the TaskHook base class they all derive from.

__all__ = [
    "CACHE_FORMAT_VERSION",
    "TestbedCache",
    "TaskHook",
    "TaskScheduler",
    "active_scheduler",
    "cached_network",
    "configure_cache",
    "get_cache",
    "map_tasks",
    "network_key",
    "reset_cache",
    "stats_delta",
    "task_hooks",
    "testbed_key",
    "use_scheduler",
]
