"""The SL scheme's greedy max–min landmark selector (paper Section 3.1).

Phase 1: the GF-Coordinator samples ``M * (L - 1)`` caches uniformly at
random as the *potential landmark set* (PLSet); PLSet members measure
their RTTs to each other and to the origin server.

Phase 2: starting from ``LmSet = {Os}``, repeatedly add the PLSet cache
that maximises the resulting ``MinDist(LmSet)`` — i.e. the candidate
whose smallest measured distance to the current landmarks is largest —
until ``L`` landmarks are chosen.

This keeps the probe budget at ``O((M·(L-1))²)`` pairs instead of the
``O(N²)`` a globally optimal max–min spread would need.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import LandmarkConfig
from repro.errors import LandmarkSelectionError
from repro.landmarks.base import LandmarkSelector, LandmarkSet, min_pairwise
from repro.obs.profiling import phase_timer
from repro.probing.prober import Prober
from repro.types import ORIGIN_NODE_ID, NodeId


class GreedyMaxMinSelector(LandmarkSelector):
    """Approximation-based greedy strategy for high-quality landmarks."""

    name = "sl-greedy"

    def select(
        self,
        prober: Prober,
        config: LandmarkConfig,
        rng: np.random.Generator,
    ) -> LandmarkSet:
        self._check_feasible(prober, config)
        caches = self._candidate_caches(prober)
        with phase_timer("landmarks/potential"):
            plset = sample_potential_landmarks(caches, config, rng)
        return self.select_from_potential(prober, config, plset)

    def select_from_potential(
        self,
        prober: Prober,
        config: LandmarkConfig,
        plset: List[NodeId],
    ) -> LandmarkSet:
        """Phase 2 alone: greedy max–min over an explicit PLSet.

        Exposed so the paper's Figure 1 walkthrough (which fixes
        ``PLSet = {Ec0, Ec1, Ec3, Ec4}``) can be reproduced exactly.
        """
        if len(plset) < config.num_landmarks - 1:
            raise LandmarkSelectionError(
                f"PLSet of {len(plset)} cannot yield "
                f"{config.num_landmarks - 1} cache landmarks"
            )
        # Measured distances among {origin} ∪ PLSet.  Row/col 0 is the
        # origin; rows 1.. follow plset order.
        probe_nodes: List[NodeId] = [ORIGIN_NODE_ID, *plset]
        with phase_timer("landmarks/probe"):
            measured = prober.measure_matrix(probe_nodes)
        if np.isnan(measured).any():
            # Fault injection: an unreachable pair measures NaN.  Treat
            # it as distance 0 so a lossy candidate looks *near* the
            # current landmarks and is never greedily picked; the
            # zero-fault path never produces NaN and is untouched.
            measured = np.nan_to_num(measured, nan=0.0)

        with phase_timer("landmarks/greedy"):
            # nearest[row]: the row's smallest measured distance to the
            # landmarks chosen so far; the origin is always a landmark.
            chosen_rows = [0]
            nearest = measured[:, 0].copy()
            candidate = np.ones(len(probe_nodes), dtype=bool)
            candidate[0] = False
            while len(chosen_rows) < config.num_landmarks:
                rows = np.flatnonzero(candidate)
                # argmax takes the first maximum: ties go to the lowest row.
                best_row = int(rows[np.argmax(nearest[rows])])
                chosen_rows.append(best_row)
                candidate[best_row] = False
                np.minimum(nearest, measured[:, best_row], out=nearest)

        nodes = tuple(probe_nodes[row] for row in chosen_rows)
        objective = min_pairwise(measured[np.ix_(chosen_rows, chosen_rows)])
        return LandmarkSet(
            nodes=nodes,
            min_pairwise_rtt=objective,
            plset=tuple(plset),
            plset_measured=measured,
        )


def sample_potential_landmarks(
    caches: List[NodeId],
    config: LandmarkConfig,
    rng: np.random.Generator,
) -> List[NodeId]:
    """Uniformly sample the PLSet, clamped to the available caches.

    The paper requires ``M * (L - 1) <= N``; when a caller sweeps L on a
    small network we clamp instead of failing, but never below the
    ``L - 1`` caches needed to complete the landmark set.
    """
    config.validate()
    want = config.potential_set_size()
    need = config.num_landmarks - 1
    if need > len(caches):
        raise LandmarkSelectionError(
            f"need {need} cache landmarks but only {len(caches)} caches exist"
        )
    size = min(want, len(caches))
    picked = rng.choice(len(caches), size=size, replace=False)
    return [caches[int(i)] for i in picked]
