"""Process-pool task scheduling for the experiment suite.

Every figure in the paper's evaluation decomposes into independent
``(figure, size, repetition, scheme)`` work units: each unit derives its
own seeds (via :class:`~repro.utils.rng.RngFactory`), builds or fetches
its own testbed, and returns plain floats.  :class:`TaskScheduler` fans
those units across a process pool and reassembles results **in task
order**, so a parallel run is bit-identical to a serial one — the same
pure functions run on the same explicit inputs, only on different
processes.

Schedulers are *ambient*, mirroring :mod:`repro.obs.profiling`: a
figure runner calls :func:`map_tasks` and transparently picks up
whatever scheduler ``run_suite``/the CLI activated (serial execution
when none is active).  Task functions must be module-level (picklable)
and take a single argument.

Worker-side observability is not lost: each task runs under a fresh
:class:`~repro.obs.profiling.PhaseRegistry`, and every counter
registered with :func:`~repro.obs.profiling.register_counter` (engine
events, testbed-cache hits, chaos delays) is snapshotted around it.
The parent folds phase totals and counter deltas back in task order,
so the figure's :class:`~repro.obs.manifest.RunManifest` carries the
``testbed/*`` and ``simulate`` timings and the counters a serial run
would.  Everything else that rides along a task — the sanitizer's draw
ledger, worker perf telemetry, chaos faults, the checkpoint journal —
is a :class:`TaskHook` in the one list :func:`task_hooks` installs.

The pool prefers the ``fork`` start method (cheap workers that inherit
the parent's warm in-memory cache); where only ``spawn`` is available
workers start cold and lean on the shared disk cache instead.

Execution is *supervised*: a crashed worker (``BrokenProcessPool``) or
an expired per-task deadline (``task_timeout_s``) rebuilds the pool and
re-dispatches the affected tasks with capped exponential backoff, up to
``max_retries`` extra attempts per task.  Because work units are pure
functions of their payload and a retried attempt's draw-ledger segment
is only folded back once (from the attempt that completed), retries do
not perturb results — a run that survived worker kills archives byte
for byte what a clean serial run archives.  Retry exhaustion raises
:class:`~repro.errors.SchedulerError` naming the task, its attempt
count, and the last failure, never a raw pool traceback.  See
docs/robustness.md ("Runtime fault tolerance").
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SchedulerError
from repro.types import Seconds
from repro.obs.profiling import (
    PhaseRegistry,
    absorb_counters,
    activate,
    counter_deltas,
    current_registry,
    perf_seconds,
    read_counters,
)


class TaskHook:
    """One concern riding along every task; each method is a no-op here.

    Subclasses override what they need.  Per fan, in the parent:
    ``on_map_begin(total)`` before the first unit runs and
    ``on_map_end(elapsed_s)`` after the last.  Per unit, in the parent
    before dispatch: ``lookup(fn, arg)`` may serve the unit's value
    without running it (the checkpoint journal).  Per attempt, in
    whichever process runs it: ``enter(index, attempt, submitted_at)``
    in list order before the unit, ``exit()`` in reverse order after
    it; ``exit``'s return value is the hook's payload.  Per completed
    unit, in the parent and in task order: ``absorb(index, payload,
    counters)`` with the unit's counter deltas, then ``record(fn, arg,
    value)``.

    ``submitted_at`` is the parent's :func:`perf_seconds` stamp at
    submission to the pool, or None when the unit runs inline, in the
    parent.  ``perf_counter`` is CLOCK_MONOTONIC on Linux, shared across
    forked processes, so a worker-side difference is a genuine queue
    wait.
    """

    def on_map_begin(self, total: int) -> None:
        """A fan with ``total`` units to run starts (parent)."""

    def lookup(self, fn: Callable[[Any], Any], arg: Any) -> Tuple[bool, Any]:
        """``(True, value)`` serves a unit without running it (parent)."""
        return False, None

    def enter(
        self, index: int, attempt: int, submitted_at: Optional[float]
    ) -> None:
        """An attempt of unit ``index`` is about to run (worker)."""

    def exit(self) -> Any:
        """The attempt finished; returns this hook's payload (worker)."""
        return None

    def absorb(
        self, index: int, payload: Any, counters: Dict[str, Any]
    ) -> None:
        """Fold one unit's payload and counter deltas back (parent)."""

    def record(self, fn: Callable[[Any], Any], arg: Any, value: Any) -> None:
        """Unit ``arg`` completed with ``value`` (parent)."""

    def on_map_end(self, elapsed_s: Seconds) -> None:
        """The fan finished ``elapsed_s`` after it began (parent)."""


#: The installed hooks, outermost install first.  Fork workers inherit
#: the tuple; the scheduler never imports the modules defining hooks.
_HOOKS: Tuple[TaskHook, ...] = ()


@contextmanager
def task_hooks(*hooks: TaskHook) -> Iterator[None]:
    """Install ``hooks`` after those already installed, for the block.

    Hooks enter in list order, so an outer install enters first:
    ``repro chaos run`` installs its policy outermost, and a killed
    attempt dies before any other hook has entered.  Fork workers get
    the list when the pool starts, so install hooks before a
    scheduler's first pooled map.
    """
    global _HOOKS  # noqa: PLW0603 - the one parent-installed hook slot
    previous = _HOOKS
    _HOOKS = previous + hooks
    try:
        yield
    finally:
        _HOOKS = previous


def installed_hooks() -> Tuple[TaskHook, ...]:
    """The installed hooks, outermost first."""
    return _HOOKS


class TaskOutcome(NamedTuple):
    """What one completed attempt sends back to the parent."""

    value: Any
    phases: Dict[str, float]
    counters: Dict[str, Any]
    payloads: List[Any]


def run_task(
    payload: Tuple[Callable[[Any], Any], Any, int, int, Optional[float]]
) -> TaskOutcome:
    """Run one attempt of one unit under every installed hook.

    The per-task wrapper of both the inline and the pooled map
    (module-level, so every start method can pickle it).  Counters are
    read before any hook enters, so delays a chaos hook serves count;
    a chaos kill (``os._exit``) ends the attempt before anything — a
    ledger segment, a counter delta, a perf record — goes back.
    """
    fn, arg, index, attempt, submitted_at = payload
    hooks = _HOOKS
    before = read_counters()
    registry = PhaseRegistry()
    for hook in hooks:
        hook.enter(index, attempt, submitted_at)
    try:
        with activate(registry):
            value = fn(arg)
    finally:
        payloads = [hook.exit() for hook in reversed(hooks)]
    payloads.reverse()
    return TaskOutcome(
        value, registry.total_seconds(), counter_deltas(before), payloads
    )


#: ``fold(index, outcome)``: hand one outcome back to the parent.
Fold = Callable[[int, TaskOutcome], None]


def _fan(
    fn: Callable[[Any], Any],
    items: List[Any],
    execute: Callable[[List[int], Fold], None],
    pooled: bool,
) -> List[Any]:
    """Serve hook lookups, run the rest, and fold outcomes back.

    ``execute(indices, fold)`` must call ``fold`` once per index, in
    ``indices`` order — task order, which is serial order, so phase
    totals, counters, ledger segments and journal lines come out bit
    for bit as a serial run's.  Only ``pooled`` outcomes carry counter
    deltas from another process that this one must absorb.
    """
    hooks = _HOOKS
    values: List[Any] = [None] * len(items)
    remaining: List[int] = []
    for index, arg in enumerate(items):
        for hook in hooks:
            hit, value = hook.lookup(fn, arg)
            if hit:
                values[index] = value
                break
        else:
            remaining.append(index)
    if not remaining:
        return values
    registry = current_registry()
    prefix = registry.current_path() if registry is not None else ""

    def fold(index: int, outcome: TaskOutcome) -> None:
        if registry is not None and outcome.phases:
            registry.merge_totals(outcome.phases, prefix=prefix)
        if pooled:
            absorb_counters(outcome.counters)
        for hook, payload in zip(hooks, outcome.payloads):
            hook.absorb(index, payload, outcome.counters)
            hook.record(fn, items[index], outcome.value)
        values[index] = outcome.value

    for hook in hooks:
        hook.on_map_begin(len(remaining))
    started = perf_seconds()
    execute(remaining, fold)
    elapsed = perf_seconds() - started
    for hook in hooks:
        hook.on_map_end(elapsed)
    return values


def _map_inline(fn: Callable[[Any], Any], items: List[Any]) -> List[Any]:
    """Serial map; with hooks installed, through the per-task wrapper.

    Wrapping each unit like a pooled one (its own segment, phase
    registry and counter deltas) keeps ``jobs=1`` and ``jobs=N``
    identical: both record units under the ``task`` phase and fold them
    back in task order.
    """
    if not _HOOKS:
        return [fn(arg) for arg in items]

    def execute(indices: List[int], fold: Fold) -> None:
        for index in indices:
            fold(index, run_task((fn, items[index], index, 0, None)))

    return _fan(fn, items, execute, pooled=False)


def _qualname(fn: Callable[[Any], Any]) -> str:
    """``module:qualname`` of a task callable, best effort."""
    module = getattr(fn, "__module__", "?")
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", "?"))
    return f"{module}:{name}"


def _is_pickling_failure(error: BaseException) -> bool:
    """Did this task die trying to cross the process boundary?

    ``pickle`` does not raise one exception type: a registered-but-
    unpicklable object raises :class:`pickle.PicklingError`, a local
    function/lambda result raises ``AttributeError("Can't pickle local
    object …")``, and C-level objects raise ``TypeError("cannot
    pickle …")``.  All three deserve the same actionable
    :class:`SchedulerError` instead of a bare traceback.
    """
    if isinstance(error, pickle.PicklingError):
        return True
    if isinstance(error, (AttributeError, TypeError)):
        return "pickle" in str(error).lower()
    return False


def _crash_cause(error: BaseException) -> str:
    """``": <exception line>"``, appended to a crash's retry detail."""
    text = traceback.format_exception_only(type(error), error)
    return ": " + "".join(text).strip()


class TaskScheduler:
    """Order-preserving, supervised map over independent work units.

    ``jobs=1`` executes inline (no pool, no pickling, ambient timers
    work directly).  ``jobs>1`` lazily creates a process pool that is
    reused across :meth:`map` calls until :meth:`shutdown`/:meth:`close`
    (or context exit).

    ``task_timeout_s`` is a per-attempt deadline: a work unit still
    running that long after submission is presumed wedged, the pool is
    rebuilt, and the unit is re-dispatched.  ``max_retries`` bounds the
    *extra* attempts any single unit may consume across crashes and
    timeouts; ``retry_backoff_s`` doubles per consecutive failure up to
    ``retry_backoff_cap_s`` before the re-dispatch.  All three times
    must be finite.  Exhaustion raises
    :class:`~repro.errors.SchedulerError`; exceptions raised by the task
    function itself propagate unwrapped.
    """

    def __init__(
        self,
        jobs: int = 1,
        task_timeout_s: Optional[Seconds] = None,
        max_retries: int = 3,
        retry_backoff_s: Seconds = 0.1,
        retry_backoff_cap_s: Seconds = 5.0,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if task_timeout_s is not None and not (
            task_timeout_s > 0 and math.isfinite(task_timeout_s)
        ):
            raise ValueError(
                f"task_timeout_s must be positive and finite, "
                f"got {task_timeout_s}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        for backoff in (retry_backoff_s, retry_backoff_cap_s):
            if not (backoff >= 0 and math.isfinite(backoff)):
                raise ValueError(
                    f"retry backoff values must be finite and >= 0, "
                    f"got {backoff}"
                )
        self._jobs = jobs
        self._task_timeout_s = task_timeout_s
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._retry_backoff_cap_s = retry_backoff_cap_s
        self._retry_totals = {"retries": 0, "timeouts": 0}
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def jobs(self) -> int:
        return self._jobs

    def retry_stats(self) -> Dict[str, int]:
        """Cumulative supervised-mode counters for this scheduler.

        ``retries`` counts re-dispatches charged to worker crashes,
        ``timeouts`` those charged to expired deadlines.  ``run_figure``
        snapshots this around each figure to attribute the deltas to
        its manifest.
        """
        return dict(self._retry_totals)

    def __enter__(self) -> "TaskScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self._jobs, mp_context=context
            )
        return self._executor

    def map(
        self, fn: Callable[[Any], Any], args: Sequence[Any]
    ) -> List[Any]:
        """Apply ``fn`` to every element of ``args``, preserving order."""
        items = list(args)
        if self._jobs == 1 or len(items) <= 1:
            return _map_inline(fn, items)
        return _fan(
            fn, items,
            lambda indices, fold: self._execute(fn, items, indices, fold),
            pooled=True,
        )

    # -- supervised fan -------------------------------------------------

    def _execute(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        indices: List[int],
        fold: Fold,
    ) -> None:
        """Run the selected task indices under supervision.

        Keeps at most ``jobs`` attempts in flight, watches deadlines,
        and survives worker crashes by rebuilding the pool and
        re-dispatching.  Each outcome is folded as soon as every earlier
        index has been, so progress and the journal advance during the
        fan while the fold order stays task order.
        """
        attempts: Dict[int, int] = dict.fromkeys(indices, 0)
        queue: Deque[int] = deque(indices)
        inflight: Dict["Future[TaskOutcome]", Tuple[int, float]] = {}
        finished: Dict[int, TaskOutcome] = {}
        unfolded: Deque[int] = deque(indices)
        failures = 0

        def recover(
            charged: List[int], kind: str, what: str, cause: str = ""
        ) -> None:
            """Rebuild the pool; charge ``charged``, requeue all in flight.

            The pool cannot say which worker held which task, so after a
            crash every in-flight task is charged (a task whose attempt
            actually finished is pure: re-running it is wasteful but
            harmless).  After a timeout only the expired tasks are
            charged; the healthy ones are requeued for free, because the
            only safe reclaim of a wedged fork worker is a new pool.
            """
            nonlocal failures
            failures += 1
            survivors = sorted(
                index for index, _stamp in inflight.values()
                if index not in charged
            )
            inflight.clear()
            self._discard_pool()
            for index in charged:
                attempts[index] += 1
                self._retry_totals[kind] += 1
                if attempts[index] > self._max_retries:
                    detail = f"{what} (attempt {attempts[index]}){cause}"
                    raise SchedulerError(
                        f"task {index} ({_qualname(fn)}) failed after "
                        f"{attempts[index]} attempt(s) "
                        f"(max_retries={self._max_retries}); last error: "
                        f"{detail}",
                        task_index=index,
                        qualname=_qualname(fn),
                        attempts=attempts[index],
                        last_error=detail,
                    )
            queue.extendleft(reversed(charged + survivors))
            self._backoff_sleep(failures)

        while queue or inflight:
            while queue and len(inflight) < self._jobs:
                index = queue.popleft()
                stamp = perf_seconds()
                payload = (fn, items[index], index, attempts[index], stamp)
                try:
                    future = self._pool().submit(run_task, payload)
                except BrokenExecutor as exc:
                    # The pool died before accepting the task (a worker
                    # crashed while idle, or a prior fan broke it).
                    charged = sorted(
                        {index} | {i for i, _stamp in inflight.values()}
                    )
                    recover(charged, "retries", "worker crashed",
                            _crash_cause(exc))
                    continue
                inflight[future] = (index, stamp)
            if not inflight:
                continue
            done, _pending = wait(
                inflight.keys(),
                timeout=self._poll_timeout(inflight),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                expired = self._expired(inflight)
                if expired:
                    recover(
                        expired, "timeouts",
                        f"deadline of {self._task_timeout_s}s expired",
                    )
                continue
            crash: Optional[BaseException] = None
            for future in done:
                index, _stamp = inflight[future]
                error = future.exception()
                if error is None:
                    del inflight[future]
                    finished[index] = future.result()
                elif isinstance(error, BrokenExecutor):
                    # The whole pool is gone; every sibling future will
                    # fail the same way.  Recover once, below.
                    crash = error
                elif _is_pickling_failure(error):
                    self._discard_pool()
                    raise SchedulerError(
                        f"task {index} ({_qualname(fn)}) cannot cross the "
                        f"process boundary: {error} — task callables must "
                        f"be module-level and payloads/results picklable",
                        task_index=index,
                        qualname=_qualname(fn),
                        attempts=attempts[index] + 1,
                        last_error=str(error),
                    ) from error
                else:
                    # The task function itself raised: propagate
                    # unwrapped, exactly as a serial run would
                    # (retrying user errors would mask deterministic
                    # bugs).
                    self._discard_pool()
                    raise error
            if crash is not None:
                charged = sorted(index for index, _ in inflight.values())
                recover(charged, "retries", "worker crashed",
                        _crash_cause(crash))
            while unfolded and unfolded[0] in finished:
                index = unfolded.popleft()
                fold(index, finished.pop(index))

    def _poll_timeout(
        self, inflight: Dict["Future[TaskOutcome]", Tuple[int, float]]
    ) -> Optional[float]:
        """Seconds until the earliest in-flight deadline, or None."""
        if self._task_timeout_s is None:
            return None
        now = perf_seconds()
        earliest = min(stamp for _index, stamp in inflight.values())
        return max(0.0, earliest + self._task_timeout_s - now)

    def _expired(
        self, inflight: Dict["Future[TaskOutcome]", Tuple[int, float]]
    ) -> List[int]:
        """Task indices whose attempt has outlived the deadline."""
        if self._task_timeout_s is None:
            return []
        now = perf_seconds()
        return sorted(
            index for index, stamp in inflight.values()
            if now - stamp >= self._task_timeout_s
        )

    def _backoff_sleep(self, failures: int) -> None:
        """Capped exponential pause before re-dispatching after failure."""
        if self._retry_backoff_s <= 0:
            return
        delay = min(
            self._retry_backoff_cap_s,
            self._retry_backoff_s * (2.0 ** (failures - 1)),
        )
        if delay > 0:
            time.sleep(delay)

    def _discard_pool(self) -> None:
        """Drop the executor, reaping any surviving worker processes.

        Clears the reference *first* so a failure mid-teardown can
        never leave a broken executor installed (and ``close()`` after
        a crash stays a no-op instead of touching a dead pool).
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # Private, but the only handle on fork workers that may be
        # wedged mid-task: shutdown() alone would wait on them forever.
        workers = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(timeout=1.0)

    def shutdown(self) -> None:
        """Tear down the pool (idempotent, even across pool rebuilds)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()

    def close(self) -> None:
        """Alias of :meth:`shutdown`, mirroring file-like teardown."""
        self.shutdown()


_ACTIVE: ContextVar[Optional[TaskScheduler]] = ContextVar(
    "repro_runtime_scheduler", default=None
)


def active_scheduler() -> Optional[TaskScheduler]:
    """The scheduler :func:`map_tasks` currently routes through, if any."""
    return _ACTIVE.get()


@contextmanager
def use_scheduler(scheduler: TaskScheduler) -> Iterator[TaskScheduler]:
    """Make ``scheduler`` the ambient target of :func:`map_tasks`."""
    token = _ACTIVE.set(scheduler)
    try:
        yield scheduler
    finally:
        _ACTIVE.reset(token)


def map_tasks(fn: Callable[[Any], Any], args: Sequence[Any]) -> List[Any]:
    """Map through the ambient scheduler (inline when none is active)."""
    scheduler = _ACTIVE.get()
    if scheduler is None:
        return _map_inline(fn, list(args))
    return scheduler.map(fn, args)
