"""Latency comparison helpers for the scheme-evaluation experiments."""

from __future__ import annotations

from repro.errors import SchemeError


def improvement_percent(baseline: float, improved: float) -> float:
    """Relative improvement of ``improved`` over ``baseline`` in percent.

    Positive when ``improved`` is lower (better) than ``baseline``; this
    is how the paper reports "SDSL improves the latency by more than
    27%".
    """
    if baseline <= 0:
        raise SchemeError(f"baseline must be > 0, got {baseline}")
    return (baseline - improved) / baseline * 100.0

