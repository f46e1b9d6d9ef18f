"""Min-dist landmark selection — the paper's adversarial baseline.

"The landmarks are chosen such that the distance between any two
landmarks is minimized."  This produces a tightly bunched landmark set,
which makes feature vectors nearly collinear and degrades clustering —
the paper uses it to demonstrate why landmark *spread* matters.

Implementation mirrors the greedy selector but flips the objective:
starting from the origin, repeatedly add the PLSet cache whose largest
measured distance to the current landmarks is smallest (greedy min–max,
the natural dual of the SL greedy max–min).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import LandmarkConfig
from repro.errors import LandmarkSelectionError
from repro.landmarks.base import LandmarkSelector, LandmarkSet, min_pairwise
from repro.landmarks.greedy import sample_potential_landmarks
from repro.probing.prober import Prober
from repro.types import ORIGIN_NODE_ID, NodeId


class MinDistSelector(LandmarkSelector):
    """Greedy selector that *minimises* landmark spread (baseline)."""

    name = "min-dist"

    def select(
        self,
        prober: Prober,
        config: LandmarkConfig,
        rng: np.random.Generator,
    ) -> LandmarkSet:
        self._check_feasible(prober, config)
        caches = self._candidate_caches(prober)
        plset = sample_potential_landmarks(caches, config, rng)
        return self.select_from_potential(prober, config, plset)

    def select_from_potential(
        self,
        prober: Prober,
        config: LandmarkConfig,
        plset: List[NodeId],
    ) -> LandmarkSet:
        """Phase 2 alone: greedy min–max over an explicit PLSet."""
        if len(plset) < config.num_landmarks - 1:
            raise LandmarkSelectionError(
                f"PLSet of {len(plset)} cannot yield "
                f"{config.num_landmarks - 1} cache landmarks"
            )
        probe_nodes: List[NodeId] = [ORIGIN_NODE_ID, *plset]
        measured = prober.measure_matrix(probe_nodes)

        # farthest[row]: the row's largest measured distance to the
        # landmarks chosen so far; the origin is always a landmark.
        chosen_rows = [0]
        farthest = measured[:, 0].copy()
        candidate = np.ones(len(probe_nodes), dtype=bool)
        candidate[0] = False
        while len(chosen_rows) < config.num_landmarks:
            rows = np.flatnonzero(candidate)
            best_row = int(rows[_first_min(farthest[rows])])
            chosen_rows.append(best_row)
            candidate[best_row] = False
            np.maximum(farthest, measured[:, best_row], out=farthest)

        nodes = tuple(probe_nodes[row] for row in chosen_rows)
        objective = min_pairwise(measured[np.ix_(chosen_rows, chosen_rows)])
        return LandmarkSet(nodes=nodes, min_pairwise_rtt=objective)


def _first_min(values: np.ndarray) -> int:
    """Position of the smallest value, ties to the first.

    Under fault injection an unreachable pair measures NaN.  A NaN in
    first position wins, and any later NaN is passed over, as a
    ``min()`` scan over ``(value, row)`` keys does: NaN never compares
    less than anything.
    """
    if np.isnan(values[0]):
        return 0
    return int(np.nanargmin(values))
