"""Content-keyed task journal: checkpoint/resume for experiment sweeps.

A figure sweep is a fan of pure work units, each a module-level callable
applied to a plain payload dict (see the ``_fig*_unit`` functions under
:mod:`repro.experiments`).  That purity is what makes the parallel
runtime bit-identical to serial — and it also makes every unit
*checkpointable*: the unit is fully described by its callable and
payload, so its result can be keyed by content exactly the way
:class:`~repro.runtime.cache.TestbedCache` keys built testbeds
(canonical serialisation, SHA-256).

:class:`TaskJournal` is that checkpoint store, installed like every
other :class:`~repro.runtime.scheduler.TaskHook` with
:func:`repro.runtime.scheduler.task_hooks`.  It decides whether a unit
runs at all: the scheduler asks its ``lookup`` before dispatching each
unit and calls its ``record`` for each completed unit, in task order,
after folding the unit's observability back.  On disk it is a JSONL
file of completed units — one ``O_APPEND`` write per line, same
torn-line-tolerant discipline as the run registry's ``index.jsonl`` —
living under the registry root at ``journals/<sweep_id>.jsonl``.  A parent process SIGKILLed mid-sweep
therefore leaves a journal whose every line is a finished unit;
``repro experiment … --resume <sweep-id>`` reloads it, re-runs only the
missing units, and archives byte for byte what the uninterrupted run
would have.

Values round-trip through pickle (base64-wrapped inside the JSON line)
rather than JSON itself so tuples, numpy scalars, and dataclass results
come back exactly as the unit returned them.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple, Union

from repro.errors import JournalError
from repro.persist.results import _plain
from repro.runtime.scheduler import TaskHook

PathLike = Union[str, Path]

#: Bump when the journal-line schema or key derivation changes shape.
JOURNAL_FORMAT_VERSION = 1


def _canonical(payload: Any) -> str:
    """Canonical JSON of a payload — the hashed representation."""
    try:
        return json.dumps(payload, sort_keys=True, default=_plain)
    except (TypeError, ValueError) as exc:
        raise JournalError(
            f"work-unit payload is not content-keyable: {exc}"
        ) from exc


def callable_name(fn: Callable[..., Any]) -> str:
    """``module:qualname`` of a work-unit callable."""
    module = getattr(fn, "__module__", "?")
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", "?"))
    return f"{module}:{name}"


def task_key(fn: Callable[[Any], Any], arg: Any) -> str:
    """Content key of one work unit: SHA-256 over callable + payload.

    Same derivation discipline as ``TestbedCache`` keys: a versioned,
    human-readable description string, hashed.  Keys depend only on the
    unit's content — not on task order, jobs level, or retry count — so
    a journal written at ``--jobs 4`` resumes a ``--jobs 2`` run.
    """
    blob = (
        f"task/v{JOURNAL_FORMAT_VERSION}/fn={callable_name(fn)}"
        f"/arg={_canonical(arg)}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_id_for(figure: str, kwargs: Dict[str, Any]) -> str:
    """Stable id of one figure sweep: figure name + its science kwargs.

    Runtime options (jobs, worker_perf, …) are deliberately excluded —
    they do not change the work units, so an interrupted ``--jobs 8``
    sweep can resume at any jobs level.
    """
    blob = _canonical({"figure": figure, "kwargs": kwargs})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


class TaskJournal(TaskHook):
    """Append-only ledger of completed work units for one sweep.

    ``resume=False`` (the default when a sweep first runs) records
    completions without ever serving lookups, so a re-run with changed
    code or flags cannot silently reuse stale results; ``resume=True``
    (the ``--resume`` path) serves every recorded unit from the journal
    and only the remainder is dispatched.

    Loading tolerates a torn final line — the signature a crashed
    writer leaves — by skipping it; every fully-written line is a
    completed unit.
    """

    def __init__(self, path: PathLike, resume: bool = False) -> None:
        self._path = Path(path)
        self._resume = resume
        self._entries: Dict[str, Any] = {}
        self.hits = 0
        self.recorded = 0
        self.torn_lines = 0
        self._load()

    @property
    def path(self) -> Path:
        return self._path

    @property
    def resume(self) -> bool:
        return self._resume

    @property
    def completed(self) -> int:
        """Distinct completed units currently on record."""
        return len(self._entries)

    def _load(self) -> None:
        if not self._path.exists():
            return
        try:
            raw = self._path.read_bytes()
        except OSError as exc:
            raise JournalError(
                f"cannot read task journal {self._path}: {exc}"
            ) from exc
        for line in raw.decode("utf-8", errors="replace").splitlines():
            line = line.strip()
            if not line:
                continue
            entry = self._parse_line(line)
            if entry is None:
                self.torn_lines += 1
                continue
            key, value = entry
            self._entries[key] = value

    @staticmethod
    def _parse_line(line: str) -> "Union[Tuple[str, Any], None]":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(payload, dict):
            return None
        key = payload.get("key")
        encoded = payload.get("value")
        if not isinstance(key, str) or not isinstance(encoded, str):
            return None
        try:
            value = pickle.loads(base64.b64decode(encoded.encode("ascii")))
        except (ValueError, EOFError, TypeError, AttributeError,
                pickle.UnpicklingError):
            # binascii.Error is a ValueError; AttributeError covers a
            # pickled class that no longer exists.
            return None
        return key, value

    def lookup(
        self, fn: Callable[[Any], Any], arg: Any
    ) -> Tuple[bool, Any]:
        """``(True, value)`` when this unit is on record and resuming.

        In record-only mode every lookup misses by design — the journal
        then documents the run without ever short-circuiting it.
        """
        if not self._resume:
            return False, None
        key = task_key(fn, arg)
        if key in self._entries:
            self.hits += 1
            return True, self._entries[key]
        return False, None

    def record(
        self, fn: Callable[[Any], Any], arg: Any, value: Any
    ) -> None:
        """Journal one completed unit (idempotent per content key).

        The line lands in a single ``O_APPEND`` write, so concurrent
        figure runs sharing a journal never interleave mid-line and a
        crash between units never tears an earlier entry.
        """
        key = task_key(fn, arg)
        if key in self._entries:
            return
        encoded = base64.b64encode(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        line = json.dumps(
            {
                "v": JOURNAL_FORMAT_VERSION,
                "key": key,
                "fn": callable_name(fn),
                "value": encoded,
            },
            sort_keys=True,
        )
        self._path.parent.mkdir(parents=True, exist_ok=True)
        data = (line + "\n").encode("utf-8")
        fd = os.open(
            self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        self._entries[key] = value
        self.recorded += 1

    def keys(self) -> List[str]:
        """The content keys currently on record (sorted)."""
        return sorted(self._entries)
