"""Cross-worker performance telemetry for the task scheduler.

:class:`PerfCollector` is the scheduler's perf
:class:`~repro.runtime.scheduler.TaskHook` (installed with
:func:`repro.runtime.scheduler.task_hooks`): around every work unit it
measures, in the worker, the wall seconds (via the sanctioned
:func:`repro.obs.profiling.perf_seconds`) and the queue wait between
submission and worker pickup; back in the parent it takes the unit's
testbed-cache and engine-event counts from the counter deltas the
scheduler already carries.  The collector reduces those into a
deterministic-keyed ``worker_*`` summary — utilization, straggler
ratio, aggregate events/s — that ``run_suite`` merges into each
figure's :class:`~repro.obs.manifest.RunManifest`.

:class:`ProgressReporter` is the opt-in heartbeat for long sweeps
(``repro experiment … --progress``): a throttled one-line status on
stderr with tasks done/total, ETA, and aggregate events/s.  It writes
only to a stream — never into results — so enabling it cannot perturb
determinism.

Neither class is imported by the scheduler nor by any simulation path:
a run without ``--worker-perf``/``--progress`` never loads this module.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TextIO

from repro.obs.profiling import perf_seconds
from repro.runtime.scheduler import TaskHook
from repro.types import Seconds

#: The registered counters a unit's perf record is read from.
_EVENTS_COUNTER = "repro.simulator.engine:_EVENTS_TOTAL"
_CACHE_COUNTER = "repro.runtime.cache:_DEFAULT"


@dataclass(frozen=True)
class TaskPerf:
    """One work unit's measured cost, as reported by its worker."""

    index: int
    wall_s: Seconds
    queue_wait_s: Seconds
    events: int
    cache_hits: int = 0
    cache_misses: int = 0
    cache_disk_hits: int = 0


class ProgressReporter:
    """Throttled heartbeat line for long task fans.

    Prints at most once per ``interval_s`` (plus always on the final
    task of a fan) so a million-unit sweep stays readable.  ``clock``
    is injectable for tests; production uses the sanctioned profiling
    clock.
    """

    def __init__(
        self,
        label: str = "",
        stream: Optional[TextIO] = None,
        interval_s: Seconds = 1.0,
    ) -> None:
        self.label = label
        self._stream = stream
        self._interval_s = interval_s
        self._started: Optional[float] = None
        self._last_emit = float("-inf")

    @property
    def stream(self) -> TextIO:
        # Resolved lazily so tests capturing sys.stderr see the output.
        return self._stream if self._stream is not None else sys.stderr

    def update(self, done: int, total: int, events: int) -> None:
        """Report progress after one more completed unit."""
        now = perf_seconds()
        if self._started is None:
            self._started = now
        final = done >= total
        if not final and now - self._last_emit < self._interval_s:
            return
        self._last_emit = now
        elapsed = max(now - self._started, 1e-9)
        eta = elapsed / done * (total - done) if done else float("inf")
        parts = [
            f"progress:{' ' + self.label if self.label else ''}",
            f"{done}/{total} units ({100.0 * done / max(total, 1):.0f}%)",
            f"elapsed {elapsed:.1f}s",
            f"eta {eta:.1f}s",
        ]
        if events > 0:
            parts.append(f"{events / elapsed / 1000.0:.1f}k events/s")
        print(" ".join(parts), file=self.stream)


class PerfCollector(TaskHook):
    """Aggregates per-task perf records into a ``worker_*`` summary.

    One collector normally spans one figure, across however many
    ``map_tasks`` fans it issues.  Retries and timeouts are the
    scheduler's to count (``TaskScheduler.retry_stats``).
    """

    def __init__(
        self,
        jobs: int = 1,
        label: str = "",
        progress: Optional[ProgressReporter] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.label = label
        self.progress = progress
        self._tasks: List[TaskPerf] = []
        self._span_s = 0.0
        self._total_announced = 0
        self._started = 0.0
        self._queue_wait_s = 0.0

    # -- the task hook ----------------------------------------------------

    def on_map_begin(self, total: int) -> None:
        self._total_announced += total

    def enter(
        self, index: int, attempt: int, submitted_at: Optional[float]
    ) -> None:
        self._started = perf_seconds()
        self._queue_wait_s = (
            0.0 if submitted_at is None
            else max(0.0, self._started - submitted_at)
        )

    def exit(self) -> Dict[str, float]:
        return {
            "wall_s": perf_seconds() - self._started,
            "queue_wait_s": self._queue_wait_s,
        }

    def absorb(
        self, index: int, payload: Dict[str, float], counters: Dict[str, Any]
    ) -> None:
        self.record_task(
            index,
            {**payload, "events": float(counters.get(_EVENTS_COUNTER, 0))},
            counters.get(_CACHE_COUNTER),
        )

    def on_map_end(self, elapsed_s: Seconds) -> None:
        self._span_s += elapsed_s

    # -- reduction ------------------------------------------------------

    def record_task(
        self,
        index: int,
        perf: Dict[str, float],
        cache_delta: Optional[Dict[str, int]] = None,
    ) -> None:
        delta = cache_delta or {}
        task = TaskPerf(
            index=index,
            wall_s=float(perf.get("wall_s", 0.0)),
            queue_wait_s=float(perf.get("queue_wait_s", 0.0)),
            events=int(perf.get("events", 0)),
            cache_hits=int(delta.get("hits", 0)),
            cache_misses=int(delta.get("misses", 0)),
            cache_disk_hits=int(delta.get("disk_hits", 0)),
        )
        self._tasks.append(task)
        if self.progress is not None:
            self.progress.update(
                done=len(self._tasks),
                total=max(self._total_announced, len(self._tasks)),
                events=sum(t.events for t in self._tasks),
            )

    @property
    def tasks(self) -> List[TaskPerf]:
        return list(self._tasks)

    def stragglers(self, wall_ratio: float = 4.0) -> List[int]:
        """Task indices whose attempt ran ``wall_ratio`` × the mean wall.

        The queue-wait stats already summarised in ``worker_queue_wait_*``
        say whether units *waited* unusually long; this names the units
        that *ran* unusually long — the candidates for a tighter
        ``task_timeout_s``.  Deterministic given the recorded perf data.
        """
        if wall_ratio <= 0:
            raise ValueError(f"wall_ratio must be > 0, got {wall_ratio}")
        tasks = self._tasks
        if not tasks:
            return []
        mean_s = sum(t.wall_s for t in tasks) / len(tasks)
        if mean_s <= 0:
            return []
        return sorted(
            t.index for t in tasks if t.wall_s >= wall_ratio * mean_s
        )

    def summary(self) -> Dict[str, float]:
        """The ``worker_*`` metrics merged into a figure's manifest.

        Keys are fixed and values are plain floats; worker-utilization
        is busy-time over ``jobs × span`` wall, the straggler ratio is
        the slowest unit over the mean unit (1.0 = perfectly even).
        """
        tasks = self._tasks
        count = len(tasks)
        busy_s = sum(t.wall_s for t in tasks)
        span_s = self._span_s
        events = sum(t.events for t in tasks)
        mean_s = busy_s / count if count else 0.0
        max_s = max((t.wall_s for t in tasks), default=0.0)
        summary = {
            "worker_jobs": float(self.jobs),
            "worker_tasks": float(count),
            "worker_busy_s": busy_s,
            "worker_span_s": span_s,
            "worker_task_mean_s": mean_s,
            "worker_task_max_s": max_s,
            "worker_straggler_ratio": (max_s / mean_s) if mean_s else 0.0,
            "worker_utilization": (
                busy_s / (self.jobs * span_s) if span_s else 0.0
            ),
            "worker_queue_wait_mean_s": (
                sum(t.queue_wait_s for t in tasks) / count if count else 0.0
            ),
            "worker_queue_wait_max_s": max(
                (t.queue_wait_s for t in tasks), default=0.0
            ),
            "worker_events": float(events),
            "worker_events_per_sec": (events / span_s) if span_s else 0.0,
            "worker_cache_hits": float(sum(t.cache_hits for t in tasks)),
            "worker_cache_misses": float(
                sum(t.cache_misses for t in tasks)
            ),
            "worker_cache_disk_hits": float(
                sum(t.cache_disk_hits for t in tasks)
            ),
        }
        return summary
