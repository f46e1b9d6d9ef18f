"""Running-min/max landmark picks against the key-based rules they replaced.

The selectors keep one running vector per round instead of re-slicing
the measured matrix for every candidate.  On matrices drawn from a
handful of values (so ties are everywhere), and with crashed nodes
whose pairs measure NaN, every pick must equal what the old ``max``/``min``
over ``(value, row)`` keys picks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LandmarkConfig
from repro.core.coordinator import GFCoordinator
from repro.faults import FaultConfig, FaultModel
from repro.landmarks import GreedyMaxMinSelector
from repro.landmarks.base import LandmarkSet
from repro.landmarks.mindist import MinDistSelector
from repro.probing import NoNoise, Prober
from repro.topology import network_from_matrix
from repro.types import ORIGIN_NODE_ID
from repro.utils.rng import RngFactory


def _old_greedy(measured, num_landmarks):
    chosen_rows = [0]
    candidate_rows = list(range(1, measured.shape[0]))
    while len(chosen_rows) < num_landmarks:
        best_row = max(
            candidate_rows,
            key=lambda row: (measured[row, chosen_rows].min(), -row),
        )
        chosen_rows.append(best_row)
        candidate_rows.remove(best_row)
    return chosen_rows


def _old_mindist(measured, num_landmarks):
    chosen_rows = [0]
    candidate_rows = list(range(1, measured.shape[0]))
    while len(chosen_rows) < num_landmarks:
        best_row = min(
            candidate_rows,
            key=lambda row: (measured[row, chosen_rows].max(), row),
        )
        chosen_rows.append(best_row)
        candidate_rows.remove(best_row)
    return chosen_rows


def _old_replacement_row(measured, probe_nodes, taken, down):
    surviving_rows = [
        row for row, node in enumerate(probe_nodes)
        if node in taken and node not in down
    ]
    candidate_rows = [
        row for row, node in enumerate(probe_nodes)
        if node not in taken and node not in down
    ]
    if not (candidate_rows and surviving_rows):
        return None
    return max(
        candidate_rows,
        key=lambda row: (measured[row, surviving_rows].min(), -row),
    )


@st.composite
def tied_networks(draw):
    """A symmetric RTT matrix over few values, a PLSet and crashed nodes."""
    size = draw(st.integers(4, 10))
    values = draw(st.lists(
        st.sampled_from([1.0, 2.0, 3.0]),
        min_size=size * (size - 1) // 2, max_size=size * (size - 1) // 2,
    ))
    matrix = np.zeros((size, size))
    iu, ju = np.triu_indices(size, k=1)
    matrix[iu, ju] = values
    matrix[ju, iu] = values
    plset = draw(st.permutations(range(1, size)))
    plset = plset[:draw(st.integers(2, size - 1))]
    num_landmarks = draw(st.integers(2, len(plset) + 1))
    crashed = draw(st.lists(
        st.integers(1, size - 1), max_size=2, unique=True
    ))
    return matrix, list(plset), num_landmarks, tuple(crashed)


def _measure(matrix, plset, crashed):
    """A noise-free prober; pairs with a crashed end measure NaN."""
    network = network_from_matrix(matrix)
    faults = None
    if crashed:
        faults = FaultModel(FaultConfig(), RngFactory(0))
        for node in crashed:
            faults.crash(node)
    prober = Prober(network, noise=NoNoise(), seed=0, faults=faults)
    probe_nodes = [ORIGIN_NODE_ID, *plset]
    measured = Prober(
        network, noise=NoNoise(), seed=0, faults=faults
    ).measure_matrix(probe_nodes)
    return prober, probe_nodes, measured


class TestRunningSelection:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tied_networks())
    def test_greedy_picks_what_the_key_rule_picks(self, case):
        matrix, plset, num_landmarks, crashed = case
        prober, probe_nodes, measured = _measure(matrix, plset, crashed)
        landmarks = GreedyMaxMinSelector().select_from_potential(
            prober, LandmarkConfig(num_landmarks=num_landmarks), plset
        )
        rows = _old_greedy(np.nan_to_num(measured, nan=0.0), num_landmarks)
        assert landmarks.nodes == tuple(probe_nodes[row] for row in rows)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tied_networks())
    def test_mindist_picks_what_the_key_rule_picks(self, case):
        matrix, plset, num_landmarks, crashed = case
        prober, probe_nodes, measured = _measure(matrix, plset, crashed)
        landmarks = MinDistSelector().select_from_potential(
            prober, LandmarkConfig(num_landmarks=num_landmarks), plset
        )
        # No nan_to_num here: min-dist sees the NaNs themselves.
        rows = _old_mindist(measured, num_landmarks)
        assert landmarks.nodes == tuple(probe_nodes[row] for row in rows)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tied_networks(), st.data())
    def test_failover_picks_what_the_key_rule_picks(self, case, data):
        matrix, plset, num_landmarks, _ = case
        network = network_from_matrix(matrix)
        probe_nodes = [ORIGIN_NODE_ID, *plset]
        measured = np.nan_to_num(
            Prober(network, noise=NoNoise(), seed=0).measure_matrix(
                probe_nodes
            )
        )
        chosen = data.draw(st.lists(
            st.sampled_from(plset), min_size=num_landmarks - 1,
            max_size=num_landmarks - 1, unique=True,
        ))
        down = data.draw(st.lists(
            st.sampled_from(plset), max_size=len(plset), unique=True,
        ))
        original = LandmarkSet(
            nodes=(ORIGIN_NODE_ID, *chosen), plset=tuple(plset),
            plset_measured=measured,
        )
        coordinator = GFCoordinator(
            network, seed=1, faults=FaultConfig(crashed_landmarks=1)
        )
        for node in down:
            coordinator.faults.crash(node)
        taken = set(original.nodes)
        row = _old_replacement_row(measured, probe_nodes, taken, set(down))
        if row is None:
            # No usable PLSet context: the uniform fallback runs,
            # which the key rule never covered.
            return
        assert coordinator._pick_replacement_landmark(
            original, list(original.nodes)
        ) == probe_nodes[row]
