"""Shared value types and aliases used across ``repro`` subsystems.

The library deals with three id spaces:

* **router ids** — vertices of the underlying transit-stub topology graph
  (plain ``int`` indices into the adjacency structure);
* **node ids** — members of the *edge cache network*: the origin server
  plus the edge caches, each pinned to a router.  ``NodeId`` values index
  rows/columns of a :class:`repro.topology.distance.DistanceMatrix`;
* **document ids** — entries of a workload's document catalog.

By paper convention the origin server is node 0 and the edge caches are
nodes ``1..N`` of the edge cache network (the paper writes ``Os`` and
``Ec_0 .. Ec_{N-1}``; we map ``Ec_i`` to node id ``i + 1``).
"""

from __future__ import annotations

# Aliases are intentionally plain ints: they index numpy arrays everywhere.
RouterId = int
NodeId = int
DocumentId = int

# -- time aliases ------------------------------------------------------
#
# The codebase juggles three clocks (see docs/static-analysis.md,
# "Dimensional analysis"): the *simulated* millisecond clock the engine
# advances, the *host* monotonic second clock behind
# ``repro.obs.profiling.perf_seconds`` (scheduler deadlines, backoff,
# bench timing), and the *unix epoch* (manifest ``created_unix``).
# These aliases are intentionally plain floats — time values feed numpy
# kernels and arithmetic everywhere — but they give boundaries a name
# the dimensional linter (:mod:`repro.lint.units`) recognises, the same
# way the ``_ms``/``_s``/``_unix`` naming suffixes do.

#: A duration in milliseconds (clock-domain agnostic).
Ms = float
#: A duration in host-monotonic seconds (``perf_seconds`` deltas,
#: scheduler timeouts/backoff).
Seconds = float
#: An instant or duration on the *simulated* millisecond clock
#: (event ``timestamp_ms``, sampler ticks, RTTs).
SimMs = float
#: A unix-epoch timestamp in seconds (``RunManifest.created_unix``).
UnixSeconds = float

#: The one sanctioned ms<->s conversion factor.  Spelling a bare
#: ``* 1000`` / ``/ 1000`` on a time value trips the
#: ``magic-unit-conversion`` lint rule; route conversions through
#: :func:`ms_to_s` / :func:`s_to_ms` (or this named constant for rate
#: conversions such as per-second -> per-millisecond).
MS_PER_S: float = 1000.0


def ms_to_s(value_ms: Ms) -> Seconds:
    """Convert a millisecond duration to seconds.

    >>> ms_to_s(1500.0)
    1.5
    """
    return value_ms / MS_PER_S


def s_to_ms(value_s: Seconds) -> Ms:
    """Convert a second duration to milliseconds.

    >>> s_to_ms(1.5)
    1500.0
    """
    return value_s * MS_PER_S


#: Node id of the origin server in every EdgeCacheNetwork.
ORIGIN_NODE_ID: NodeId = 0
