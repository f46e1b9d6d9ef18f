"""Deterministic fault injection for the supervised task scheduler.

Retry/backoff/resume machinery is only trustworthy if it is exercised,
and "kill a worker sometimes" is useless as a test if *sometimes* is
not reproducible.  :class:`ChaosPolicy` makes worker failure a pure
function of content: whether the attempt at task index ``i`` dies (or
stalls) is drawn from the isolated ``"faults"`` child of an
:class:`~repro.utils.rng.RngFactory` — the same quarantined entropy
branch the formation fault layer uses — keyed by the task index.  Two
chaos runs with the same seed kill the same attempts of the same
tasks; no draw is taken from any science stream, so the surviving
results are bit-identical to a clean run.

The policy is a :class:`~repro.runtime.scheduler.TaskHook`, installed
in the parent with :func:`repro.runtime.scheduler.task_hooks` ahead of
every other hook; fork workers inherit the hook list and the policy
enters at the task boundary, *before* the work unit takes any draw.
A kill is ``os._exit`` — the honest simulation of a segfault/OOM-kill:
no finally blocks, no queue goodbye, the parent just sees
``BrokenProcessPool``.  By default a task's faults fire only on
attempt 0 (``faults_per_task=1``), so a bounded retry budget always
converges; raise it to test retry exhaustion.

``_DELAYS_INJECTED`` is this module's cumulative injected-delay
counter, mirrored across workers exactly like the engine's event
counter: it is registered with
:func:`repro.obs.profiling.register_counter`, so each task's delta
rides back with the task and the parent folds it in via
:func:`absorb_delays`.

Wired as ``repro chaos run`` — see :mod:`repro.runtime.chaos_cli` and
docs/robustness.md.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.profiling import register_counter
from repro.runtime.scheduler import TaskHook
from repro.utils.rng import RngFactory

#: Exit status a chaos-killed worker dies with (a recognisable corpse
#: in ``dmesg``-style debugging; the parent only ever sees the broken
#: pool, never the code).
KILL_EXIT_CODE = 86

#: Cumulative count of delays this process has injected.  Worker-local
#: increments ride back to the parent as counter deltas (registered
#: below), so after a chaos run the parent counter equals the number of
#: delays actually served.
_DELAYS_INJECTED = 0


def delays_total() -> int:
    """Cumulative delays injected (parent: including absorbed deltas)."""
    return _DELAYS_INJECTED


def absorb_delays(count: int) -> None:
    """Fold a worker's injected-delay delta into this counter."""
    global _DELAYS_INJECTED  # noqa: PLW0603 - registered merge-back counter
    _DELAYS_INJECTED += int(count)


register_counter("repro.runtime.chaos:_DELAYS_INJECTED", delays_total, absorb_delays)


def _bump_delays() -> None:
    global _DELAYS_INJECTED  # noqa: PLW0603 - registered merge-back counter
    _DELAYS_INJECTED += 1


@dataclass(frozen=True)
class ChaosAction:
    """What the policy decided for one (task, attempt): kill and/or delay."""

    kill: bool = False
    delay_s: float = 0.0

    @property
    def quiet(self) -> bool:
        """True when this attempt runs undisturbed."""
        return not self.kill and self.delay_s <= 0.0


@dataclass(frozen=True)
class ChaosConfig:
    """Fault mix for one chaos run.

    ``kill_rate``/``delay_rate`` are per-task probabilities drawn from
    the content-derived stream; ``delay_s`` is the stall served when a
    delay fires; ``faults_per_task`` caps how many *attempts* of one
    task may fault (1 = the default retry always succeeds; ``0``
    disables injection entirely).
    """

    kill_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.05
    seed: int = 0
    faults_per_task: int = 1

    def validate(self) -> None:
        for name in ("kill_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be within [0, 1], got {rate}"
                )
        if self.delay_s < 0:
            raise ConfigurationError(
                f"delay_s must be >= 0, got {self.delay_s}"
            )
        if self.faults_per_task < 0:
            raise ConfigurationError(
                f"faults_per_task must be >= 0, got {self.faults_per_task}"
            )


class ChaosPolicy(TaskHook):
    """Content-derived fault plan, consulted at worker task boundaries.

    ``plan`` is a pure function of ``(seed, task index, attempt)`` —
    deriving a fresh stream per task from the forked ``"faults"``
    factory makes the decision independent of dispatch order, jobs
    level, and which worker happens to pick the task up.
    """

    def __init__(self, config: ChaosConfig) -> None:
        config.validate()
        self._config = config
        self._factory = RngFactory(config.seed).fork("faults")

    @property
    def config(self) -> ChaosConfig:
        return self._config

    def plan(self, index: int, attempt: int) -> ChaosAction:
        """The action for one attempt of one task (no side effects)."""
        config = self._config
        if attempt >= config.faults_per_task:
            return ChaosAction()
        stream = self._factory.fork(f"task{index}").stream("chaos")
        kill = bool(stream.random() < config.kill_rate)
        delayed = bool(stream.random() < config.delay_rate)
        return ChaosAction(
            kill=kill, delay_s=config.delay_s if delayed else 0.0
        )

    def preview(self, count: int) -> Dict[str, List[int]]:
        """First-attempt fault plan over ``count`` tasks (for tests/CI)."""
        kills: List[int] = []
        delays: List[int] = []
        for index in range(count):
            action = self.plan(index, 0)
            if action.kill:
                kills.append(index)
            if action.delay_s > 0:
                delays.append(index)
        return {"kills": kills, "delays": delays}

    def enter(
        self, index: int, attempt: int, submitted_at: Optional[float]
    ) -> None:
        """Serve the planned faults for this attempt (worker side).

        Delay first, then kill: a task planned for both stalls and
        *then* dies, which exercises deadline and crash recovery in one
        attempt.  The kill is ``os._exit`` — deliberately not an
        exception — so the parent experiences a genuine broken pool.
        A unit run inline (``submitted_at`` is None) runs in the parent
        itself, with no pool to supervise it, so it runs undisturbed.
        """
        if submitted_at is None:
            return
        action = self.plan(index, attempt)
        if action.delay_s > 0:
            _bump_delays()
            time.sleep(action.delay_s)
        if action.kill:
            os._exit(KILL_EXIT_CODE)
