"""``repro.sanitize`` — the runtime determinism sanitizer.

The static passes in :mod:`repro.lint` prove the *absence of known-bad
shapes*; this package is their runtime companion for when determinism
breaks anyway.  Inside the opt-in :func:`sanitize` context every RNG
draw from an :class:`~repro.utils.rng.RngFactory` stream, every factory
fork, and every popped simulation event folds into a per-phase
:class:`~repro.sanitize.ledger.Ledger` keyed by *site fingerprint*
(``module:qualname#label`` of the code that acquired the stream).  Two
equivalent runs — serial vs ``--jobs N``, or two commits — must produce
identical ledgers; :func:`diff_ledgers` names the first site where they
do not, with stack context, turning "the archives differ" into a
one-line diagnosis.

Nothing here is imported by the runtime's hot paths: with the context
inactive the instrumentation does not exist (0% overhead); inside the
context draws stay bit-identical (the wrapped generators share the
original ``BitGenerator``).

CLI: ``repro sanitize run --figure fig6 --out ledger.json`` and
``repro sanitize diff A B``; see :mod:`repro.sanitize.cli` and
``docs/static-analysis.md``.
"""

from repro.sanitize.instrument import (
    EVENT_SITE,
    SanitizeError,
    SanitizerState,
    sanitize,
)
from repro.sanitize.ledger import (
    DiffResult,
    Divergence,
    Ledger,
    SiteEntry,
    diff_ledgers,
    fold,
    fold_segment,
    render_diff_json,
    render_diff_text,
    value_digest,
)

__all__ = [
    "DiffResult",
    "Divergence",
    "EVENT_SITE",
    "Ledger",
    "SanitizeError",
    "SanitizerState",
    "SiteEntry",
    "diff_ledgers",
    "fold",
    "fold_segment",
    "render_diff_json",
    "render_diff_text",
    "sanitize",
    "value_digest",
]
