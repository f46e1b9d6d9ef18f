"""Opt-in runtime instrumentation behind the ``sanitize()`` context.

Nothing in this module is imported by the runtime's hot paths:
``repro.utils.rng`` and ``repro.simulator.events`` do not know the
sanitizer exists, so a run without ``sanitize()`` pays exactly zero
overhead.  Entering the context installs the instrumentation by
patching, the column-ledger hook slot and a task hook, and leaving
restores every original:

* ``RngFactory.stream`` — the returned generator is replaced (in the
  factory's stream cache, so it stays identity-stable) by a
  :class:`np.random.Generator` subclass sharing the *same*
  ``BitGenerator``.  Draws are bit-identical to the uninstrumented run;
  each draw additionally folds a digest into the ledger under the
  site fingerprint ``module:qualname#label`` of the code that first
  acquired the stream.
* ``RngFactory.fork`` — records one ledger event per fork, so label
  drift in a sweep shows up as a site mismatch, not just downstream.
* the simulator's column-ledger hook — every simulated event, in
  merged order, folds ``(event type, timestamp)`` into a per-phase
  hash, catching event-order divergence independently of RNG draws.
* ``TestbedCache.get_or_build`` — recording is *suspended* inside cache
  builds: a serial run builds each testbed once and reuses it, while
  every pool worker may rebuild it, so build-time draws legitimately
  differ between equivalent runs and must not enter the ledger.
* a task hook (:func:`repro.runtime.scheduler.task_hooks`) — each
  work unit records into a fresh segment (under the phase ``"task"``,
  both inline and pooled) and the parent folds segments back **in task
  order**, which the rolling hash makes equivalent to serial recording.

``sanitize()`` does not nest and is not thread-safe — it guards one
run at a time, which is how the CLI and CI use it.
"""

from __future__ import annotations

import sys
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.runtime.scheduler import TaskHook, task_hooks
from repro.sanitize.ledger import _POLY, Ledger, value_digest

#: The active sanitizer, or None.  Module-global (not a ContextVar):
#: instrumented code checks it on every draw, and fork-started pool
#: workers inherit it with the rest of the module state.
_ACTIVE: Optional["SanitizerState"] = None

#: Frames from these modules never become site fingerprints.
_SKIP_MODULE_PREFIXES = ("repro.sanitize", "repro.utils.rng")

#: Stack frames of context kept per site.
_STACK_DEPTH = 4

#: Generator methods that consume bits and therefore get recorded.
_DRAW_METHODS = (
    "random", "uniform", "integers", "choice", "normal",
    "standard_normal", "exponential", "poisson", "lognormal", "gamma",
    "beta", "binomial", "geometric", "zipf", "pareto", "triangular",
    "shuffle", "permutation", "permuted", "multivariate_normal",
    "standard_exponential", "standard_gamma", "standard_cauchy",
    "standard_t", "chisquare", "dirichlet", "multinomial", "vonmises",
    "wald", "weibull", "laplace", "logistic", "rayleigh", "power",
    "gumbel", "f", "hypergeometric", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "logseries", "bytes",
)

#: Site used for simulated events (one per phase; events carry no
#: label).  The string names the event queue that used to record
#: events; it is kept verbatim so ledgers recorded before that queue
#: was removed still diff cleanly against new ones.
EVENT_SITE = "repro.simulator.events:EventQueue.pop#event"


class SanitizeError(RuntimeError):
    """Misuse of the sanitizer (nesting, diffing incompatible ledgers)."""


def _caller_site() -> Tuple[str, Tuple[str, ...]]:
    """Fingerprint + short stack of the first frame outside plumbing."""
    frame = sys._getframe(1)
    stack: List[str] = []
    fingerprint: Optional[str] = None
    while frame is not None and len(stack) < _STACK_DEPTH:
        module = frame.f_globals.get("__name__", "?")
        skip = any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in _SKIP_MODULE_PREFIXES
        )
        if not skip:
            qualname = getattr(
                frame.f_code, "co_qualname", frame.f_code.co_name
            )
            if fingerprint is None:
                fingerprint = f"{module}:{qualname}"
            stack.append(f"{module}:{qualname}:{frame.f_lineno}")
        frame = frame.f_back
    return fingerprint or "<unknown>", tuple(stack)


#: ``type name -> crc32(name)`` cache for the per-event fast path.
_TYPE_CRC: Dict[str, int] = {}

_HASH_MASK = (1 << 64) - 1


class SanitizerState:
    """Ledger, phase stack, and capture plumbing for one sanitized run."""

    def __init__(self, meta: Optional[Dict[str, Any]] = None) -> None:
        self.ledger = Ledger(meta=meta)
        self._target = self.ledger
        self._phases: List[str] = []
        self._phase_str = "main"

    # -- phases ------------------------------------------------------

    def _phase_changed(self) -> None:
        self._phase_str = "/".join(self._phases) if self._phases else "main"

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scope subsequent records under ``name`` (phases nest)."""
        self._phases.append(name)
        self._phase_changed()
        try:
            yield
        finally:
            self._phases.pop()
            self._phase_changed()

    # -- recording ---------------------------------------------------

    def record(
        self, site: str, draw_digest: int, stack: Tuple[str, ...] = ()
    ) -> None:
        self._target.record(self._phase_str, site, draw_digest, stack)

    def record_event_stream(
        self, pairs: Iterator[Tuple[str, float]]
    ) -> None:
        """Fold ``(type name, timestamp)`` pairs in merged event order.

        The one event-recording path: the kernel and the reference
        oracle both feed their merged stream through the column-ledger
        hook, which calls this.
        """
        entry = self._target.entry(self._phase_str, EVENT_SITE)
        crc_cache = _TYPE_CRC
        digest = entry.digest
        count = 0
        for name, timestamp_ms in pairs:
            crc = crc_cache.get(name)
            if crc is None:
                # Not a counter: a content-keyed memo whose worker-local
                # entries are recomputed identically on demand, so
                # dropping them at join loses nothing.
                # repro-lint: allow[shared-mutable-global]
                crc = crc_cache[name] = zlib.crc32(name.encode("ascii"))
            # hash() of a float is deterministic across processes (only
            # str/bytes hashing is salted), and far cheaper than repr+crc.
            draw = (crc * 1000003) ^ (hash(timestamp_ms) & _HASH_MASK)
            digest = (digest * _POLY + draw) & _HASH_MASK
            count += 1
        entry.digest = digest
        entry.count += count

    # -- task capture ------------------------------------------------

    def begin_capture(self) -> Tuple[Ledger, List[str]]:
        """Redirect recording into a fresh segment under phase 'task'."""
        saved = (self._target, self._phases)
        self._target = Ledger()
        self._phases = ["task"]
        self._phase_changed()
        return saved

    def end_capture(self, saved: Tuple[Ledger, List[str]]) -> Ledger:
        captured = self._target
        self._target, self._phases = saved
        self._phase_changed()
        return captured


class _RecordingGenerator(np.random.Generator):
    """A Generator that also folds each draw into the active ledger.

    Shares the wrapped generator's ``BitGenerator``, so the stream of
    underlying bits — and therefore every drawn value — is identical to
    the uninstrumented run.  Recording is gated on the module-global
    active state, so instances left behind in long-lived factories go
    quiet the moment ``sanitize()`` exits.
    """

    # Instance attributes are assigned post-construction by
    # _wrap_generator; np.random.Generator.__init__ only takes the
    # bit generator.
    _sanitize_site: str = "<unwrapped>"
    _sanitize_stack: Tuple[str, ...] = ()


def _make_recorder(name: str, original: Any) -> Any:
    def recorder(
        self: _RecordingGenerator, *args: Any, **kwargs: Any
    ) -> Any:
        result = original(self, *args, **kwargs)
        state = _ACTIVE
        if state is not None:
            # In-place methods (shuffle) return None; digest the
            # mutated argument instead.
            payload = result if result is not None else (
                args[0] if args else None
            )
            state.record(
                self._sanitize_site,
                value_digest(name, payload),
                self._sanitize_stack,
            )
        return result

    recorder.__name__ = name
    return recorder


for _name in _DRAW_METHODS:
    _original = getattr(np.random.Generator, _name, None)
    if _original is not None:
        setattr(_RecordingGenerator, _name, _make_recorder(_name, _original))


def _wrap_generator(
    generator: np.random.Generator, site: str, stack: Tuple[str, ...]
) -> _RecordingGenerator:
    wrapped = _RecordingGenerator(generator.bit_generator)
    wrapped._sanitize_site = site
    wrapped._sanitize_stack = stack
    return wrapped


@contextmanager
def _suspended() -> Iterator[None]:
    """Temporarily stop recording (used around testbed-cache builds)."""
    global _ACTIVE  # noqa: PLW0603 - deliberate suspend/restore of the slot
    saved, _ACTIVE = _ACTIVE, None
    try:
        yield
    finally:
        _ACTIVE = saved


class _TaskLedgerHook(TaskHook):
    """The task hook that records each work unit as its own segment.

    ``enter``/``exit`` bracket one attempt: records go into a private
    segment whose dict payload rides back over the pool; ``absorb``
    folds a payload into the parent ledger.  The scheduler never
    imports the sanitizer.
    """

    def __init__(self, state: SanitizerState) -> None:
        self._state = state
        self._capture: Optional[
            Tuple[SanitizerState, Tuple[Ledger, List[str]]]
        ] = None

    def enter(
        self, index: int, attempt: int, submitted_at: Optional[float]
    ) -> None:
        state = _ACTIVE
        # Suspended (e.g. inside a cache build): nothing to capture.
        self._capture = (
            None if state is None else (state, state.begin_capture())
        )

    def exit(self) -> Optional[Dict[str, Any]]:
        if self._capture is None:
            return None
        state, saved = self._capture
        self._capture = None
        return state.end_capture(saved).to_dict()

    def absorb(
        self,
        index: int,
        payload: Optional[Dict[str, Any]],
        counters: Dict[str, Any],
    ) -> None:
        if payload:
            self._state.ledger.absorb(Ledger.from_dict(payload))


class _ColumnLedgerHook:
    """Duck-typed hook handed to :mod:`repro.simulator.events`.

    The engine calls ``record_stream`` once per run with the merged
    (type name, timestamp) stream; gating on the module global keeps
    suspended sections (testbed-cache builds) out of the ledger.
    """

    def __init__(self, state: SanitizerState) -> None:
        self._state = state

    def record_stream(self, pairs: Iterator[Tuple[str, float]]) -> None:
        active = _ACTIVE
        if active is not None:
            active.record_event_stream(pairs)


class _Patch:
    """One reversible attribute replacement."""

    def __init__(self, holder: Any, attribute: str, replacement: Any) -> None:
        self.holder = holder
        self.attribute = attribute
        self.original = getattr(holder, attribute)
        setattr(holder, attribute, replacement)

    def undo(self) -> None:
        setattr(self.holder, self.attribute, self.original)


def _install(state: SanitizerState) -> List[_Patch]:
    from repro.runtime.cache import TestbedCache
    from repro.utils.rng import RngFactory

    patches: List[_Patch] = []
    original_stream = RngFactory.stream

    def stream(self: RngFactory, label: str) -> np.random.Generator:
        generator = original_stream(self, label)
        if _ACTIVE is None or isinstance(generator, _RecordingGenerator):
            return generator
        site, stack = _caller_site()
        wrapped = _wrap_generator(generator, f"{site}#{label}", stack)
        # Replace the cached stream so repeat lookups (and identity
        # checks) see one stable object per (factory, label).
        self._streams[label] = wrapped
        return wrapped

    patches.append(_Patch(RngFactory, "stream", stream))

    original_fork = RngFactory.fork

    def fork(self: RngFactory, label: str) -> RngFactory:
        child = original_fork(self, label)
        active = _ACTIVE
        if active is not None:
            site, stack = _caller_site()
            active.record(
                f"{site}#fork:{label}",
                zlib.crc32(label.encode("utf-8", "backslashreplace")),
                stack,
            )
        return child

    patches.append(_Patch(RngFactory, "fork", fork))

    original_get_or_build = TestbedCache.get_or_build

    def get_or_build(self: TestbedCache, key: str, build: Any) -> Any:
        def suspended_build() -> Any:
            with _suspended():
                return build()

        return original_get_or_build(self, key, suspended_build)

    patches.append(_Patch(TestbedCache, "get_or_build", get_or_build))
    return patches


@contextmanager
def sanitize(
    meta: Optional[Dict[str, Any]] = None,
) -> Iterator[SanitizerState]:
    """Record a draw ledger for everything run inside the context.

    Yields the :class:`SanitizerState`; its ``ledger`` holds the
    per-phase site entries and can be saved/diffed afterwards::

        with sanitize(meta={"figure": "fig6"}) as state:
            run_experiment("fig6", repetitions=1)
        state.ledger.save("serial.json")
    """
    global _ACTIVE  # noqa: PLW0603 - single non-nesting activation slot
    if _ACTIVE is not None:
        raise SanitizeError(
            "sanitize() is already active; ledgers do not nest"
        )
    from repro.simulator.events import set_column_ledger

    state = SanitizerState(meta=meta)
    patches = _install(state)
    # The engine's event-stream feed.
    previous_ledger = set_column_ledger(_ColumnLedgerHook(state))
    _ACTIVE = state
    try:
        with task_hooks(_TaskLedgerHook(state)):
            yield state
    finally:
        _ACTIVE = None
        set_column_ledger(previous_ledger)
        for patch in reversed(patches):
            patch.undo()
