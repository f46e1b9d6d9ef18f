"""In-memory spans for the traced benchmark run.

A :class:`Tracer` records one :class:`Span` per ``with tracer.span(name)``
block: its name, start, end, parent and the id of the workload call it
belongs to.  Spans stay in memory until :meth:`Tracer.dump` writes them
out at the end of the run, so tracing adds no I/O to the measured calls.
Counts that a layer produced are attached to the span that produced
them (``span.counts``), so a ratio is formed where the work happened.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    call_id: Optional[int]
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; nesting follows the ``with`` structure."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._call_id: Optional[int] = None
        self._next_call = 0

    @contextmanager
    def call(self, name: str) -> Iterator[Span]:
        """A root span for one workload call; its children share its id."""
        self._call_id = self._next_call
        self._next_call += 1
        try:
            with self.span(name) as root:
                yield root
        finally:
            self._call_id = None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(
            span_id=len(self.spans), name=name, start=time.perf_counter(),
            end=float("nan"), parent=parent, call_id=self._call_id,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path: Path, extra: Dict[str, object]) -> None:
        """Write every span (with its self time) plus ``extra`` as JSON."""
        selfs = self_times(self.spans)
        payload = dict(extra)
        payload["spans"] = [
            {**asdict(s), "self_s": selfs[s.span_id]} for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op when tracing is off."""
    return nullcontext(None) if tracer is None else tracer.span(name)


def _covered(
    lo: float, hi: float, intervals: Sequence[Tuple[float, float]]
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration
        - _covered(s.start, s.end, children.get(s.span_id, []))
        for s in spans
    }
