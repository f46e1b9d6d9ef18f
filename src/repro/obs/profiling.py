"""Phase timing for the GF-Coordinator pipeline and the simulator.

A :class:`PhaseRegistry` accumulates wall-clock time per named phase;
:func:`phase_timer` is the context manager instrumented code wraps its
stages in.  Timers are *ambient*: a registry is activated for a dynamic
extent (:func:`activate`) and every ``phase_timer`` inside that extent
records into it.  When no registry is active, ``phase_timer`` is a
no-op whose cost is one context-variable lookup — cheap enough to leave
permanently in pipeline-stage code (it is **not** meant for per-request
hot loops; the simulator's per-request hooks go through the
:class:`repro.obs.observer.Observer` null-object instead).

Nested timers produce slash-qualified names: timing ``"probe"`` inside
an active ``"landmarks"`` phase records under ``"landmarks/probe"`` (and
the inner time is *also* part of the outer phase's total, as wall-clock
nesting implies).

Process-wide counters (engine events, testbed-cache hits, injected
chaos delays) register here with :func:`register_counter`, one line
next to the counter.  The task scheduler snapshots every registered
counter around each work unit (:func:`read_counters`,
:func:`counter_deltas`) and folds worker deltas back into the parent
(:func:`absorb_counters`), so a pooled run's counters end where a
serial run's would.  The lint's effect pass reads the same
registrations to know which task-reachable globals are merged back.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def perf_seconds() -> float:
    """Monotonic host wall-clock seconds, for profiling only.

    This is the single sanctioned wall-clock read for simulation-facing
    code: simulator/pipeline logic that needs to *measure itself* (e.g.
    the engine's events/sec throughput, the coordinator's step timings)
    calls this instead of ``time.perf_counter`` directly, keeping host
    time out of anything that could influence simulated behaviour —
    which is exactly what the ``sim-wallclock`` lint rule enforces
    (``repro lint``; this module is its allowed profiling root).
    """
    return time.perf_counter()


@dataclass
class PhaseTiming:
    """Accumulated timing of one named phase."""

    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def record(self, elapsed_s: float) -> None:
        self.calls += 1
        self.total_s += elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s


class PhaseRegistry:
    """Accumulates :class:`PhaseTiming` entries by qualified phase name."""

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseTiming] = {}
        self._stack: List[str] = []

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time one phase; nests under any currently-open phase."""
        qualified = "/".join([*self._stack, name])
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._phases.setdefault(qualified, PhaseTiming()).record(elapsed)

    def timings(self) -> Dict[str, PhaseTiming]:
        """Snapshot of phase name -> accumulated timing."""
        return dict(self._phases)

    def total_seconds(self) -> Dict[str, float]:
        """Phase name -> total seconds, JSON-friendly."""
        return {name: t.total_s for name, t in self._phases.items()}

    def merge_totals(
        self, totals: Dict[str, float], prefix: str = ""
    ) -> None:
        """Fold a ``name -> seconds`` mapping into this registry.

        ``prefix`` qualifies every merged name (slash-joined), letting a
        scheduler splice worker-side timings under the phase the parent
        currently has open — so a pooled run's manifest carries the same
        nested names a serial run would.
        """
        for name, seconds in totals.items():
            qualified = f"{prefix}/{name}" if prefix else name
            timing = self._phases.setdefault(qualified, PhaseTiming())
            timing.record(seconds)

    def current_path(self) -> str:
        """The slash-joined stack of currently-open phases ("" if none)."""
        return "/".join(self._stack)

    def __len__(self) -> int:
        return len(self._phases)

    def __contains__(self, name: str) -> bool:
        return name in self._phases


_ACTIVE: ContextVar[Optional[PhaseRegistry]] = ContextVar(
    "repro_obs_phase_registry", default=None
)


def current_registry() -> Optional[PhaseRegistry]:
    """The registry ``phase_timer`` currently records into, if any."""
    return _ACTIVE.get()


@contextmanager
def activate(registry: PhaseRegistry) -> Iterator[PhaseRegistry]:
    """Make ``registry`` the ambient target of ``phase_timer`` calls."""
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


@contextmanager
def phase_timer(name: str) -> Iterator[None]:
    """Time the enclosed block into the ambient registry (no-op if none)."""
    registry = _ACTIVE.get()
    if registry is None:
        yield
        return
    with registry.time(name):
        yield


#: ``"module:_GLOBAL" -> (read, absorb)`` for every registered counter.
_COUNTERS: Dict[str, Tuple[Callable[[], Any], Callable[[Any], None]]] = {}


def register_counter(
    name: str, read: Callable[[], Any], absorb: Callable[[Any], None]
) -> None:
    """Register a process-wide counter whose worker deltas merge back.

    ``name`` is the counter's ``"module:_GLOBAL"`` key: the parent
    imports ``module`` to find the registration when a worker reports a
    delta for a counter the parent has not loaded yet.  ``read()``
    returns the cumulative value, either an ``int`` or a flat
    ``{field: int}`` dict; ``absorb(delta)`` adds a delta of the same
    shape.  Call it at module level, with a string literal name, next
    to the counter — the effect lint reads these calls.
    """
    _COUNTERS[name] = (read, absorb)


def read_counters() -> Dict[str, Any]:
    """Snapshot of every registered counter."""
    return {name: read() for name, (read, _absorb) in _COUNTERS.items()}


def counter_deltas(before: Dict[str, Any]) -> Dict[str, Any]:
    """Non-zero ``now - before`` per counter (and per dict field).

    A counter registered since ``before`` was taken (its module was
    imported in between) counts from zero.
    """
    deltas: Dict[str, Any] = {}
    for name, (read, _absorb) in _COUNTERS.items():
        after = read()
        if isinstance(after, dict):
            old = before.get(name, {})
            delta: Any = {
                key: value - old.get(key, 0)
                for key, value in after.items()
                if value != old.get(key, 0)
            }
        else:
            delta = after - before.get(name, 0)
        if delta:
            deltas[name] = delta
    return deltas


def absorb_counters(deltas: Dict[str, Any]) -> None:
    """Fold counter deltas from another process into this one's."""
    for name, delta in deltas.items():
        if name not in _COUNTERS:
            importlib.import_module(name.partition(":")[0])
        _COUNTERS[name][1](delta)
