"""The runtime :class:`FaultModel`: seeded draws plus liveness state.

One model instance accompanies one GF-Coordinator run.  It answers the
prober's per-probe questions (is either end crashed?  was this probe
lost?) and tracks which nodes are currently crashed.

Determinism contract: every random draw comes from a content-keyed
stream of a forked :class:`repro.utils.rng.RngFactory` — loss draws for
the pair ``(a, b)`` always come from the stream ``"loss/a-b"``, and the
landmark-crash pick from ``"landmark-crash"``.  Streams are keyed by
*content*, not call order, so the same faults hit the same probes no
matter how work is interleaved (serial and ``jobs=N`` runs match
bit-for-bit).  The model never touches the prober's own noise stream,
which is what keeps a fault-free probe sequence identical to a run
without any model attached.
"""

from __future__ import annotations

from typing import FrozenSet, Set, Tuple

import numpy as np

from repro.errors import ProbingError
from repro.faults.config import FaultConfig
from repro.landmarks.base import LandmarkSet
from repro.types import Ms, NodeId
from repro.utils.rng import RngFactory


class FaultModel:
    """Seeded fault draws and crash state for one formation run."""

    def __init__(self, config: FaultConfig, rng_factory: RngFactory) -> None:
        config.validate()
        self._config = config
        # Fork once so fault draws can never perturb (or be perturbed
        # by) the coordinator's probe/landmark/kmeans streams.
        self._factory = rng_factory.fork("faults")
        self._down: Set[NodeId] = set()

    @property
    def config(self) -> FaultConfig:
        return self._config

    # -- liveness -------------------------------------------------------

    @property
    def crashed_nodes(self) -> FrozenSet[NodeId]:
        return frozenset(self._down)

    def is_down(self, node: NodeId) -> bool:
        return node in self._down

    def crash(self, node: NodeId) -> None:
        """Mark a node crashed: every probe touching it is lost."""
        self._down.add(node)

    def recover(self, node: NodeId) -> None:
        self._down.discard(node)

    def crash_landmarks(self, landmarks: LandmarkSet) -> Tuple[NodeId, ...]:
        """Crash ``config.crashed_landmarks`` cache landmarks.

        Models the "landmark dies right after selection" scenario: the
        victims are drawn from the ``"landmark-crash"`` stream over the
        selected cache landmarks (the origin is the coordinator itself
        and never crashes).  Returns the crashed nodes.
        """
        count = self._config.crashed_landmarks
        if count == 0:
            return ()
        candidates = list(landmarks.cache_landmarks)
        if count > len(candidates):
            raise ProbingError(
                f"cannot crash {count} landmarks: only "
                f"{len(candidates)} cache landmarks were selected"
            )
        rng = self._factory.stream("landmark-crash")
        picks = rng.choice(len(candidates), size=count, replace=False)
        crashed = tuple(candidates[int(i)] for i in sorted(picks))
        for node in crashed:
            self.crash(node)
        return crashed

    # -- per-probe queries ----------------------------------------------

    def pair_blocked(self, source: NodeId, target: NodeId) -> bool:
        """True when no probe between the pair can ever succeed."""
        return source in self._down or target in self._down

    def loss_stream(self, source: NodeId, target: NodeId) -> np.random.Generator:
        """The content-keyed loss/retry stream for one ordered pair."""
        return self._factory.stream(f"loss/{source}-{target}")

    def backoff_ms(self, attempt: int) -> Ms:
        """Capped exponential backoff before retry ``attempt`` (1-based)."""
        base = self._config.backoff_base_ms
        return float(min(base * (2 ** (attempt - 1)),
                         self._config.backoff_cap_ms))
