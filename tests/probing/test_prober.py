"""Tests for repro.probing.prober."""

import numpy as np
import pytest

from repro.config import ProbeConfig
from repro.errors import ProbingError
from repro.faults import FaultConfig, FaultModel
from repro.probing import NoNoise, NoiseModel, Prober
from repro.probing.prober import ProbeStats
from repro.utils.rng import RngFactory


class TestMeasure:
    def test_exact_with_no_noise(self, paper_network):
        prober = Prober(paper_network, noise=NoNoise(), seed=0)
        assert prober.measure(0, 1) == 12.0
        assert prober.measure(1, 2) == 4.0

    def test_self_probe_zero(self, paper_network):
        prober = Prober(paper_network, noise=NoNoise(), seed=0)
        assert prober.measure(3, 3) == 0.0

    def test_noisy_probe_near_truth(self, paper_network):
        prober = Prober(
            paper_network,
            config=ProbeConfig(probe_count=50, jitter_std=0.05),
            seed=1,
        )
        measured = prober.measure(0, 1)
        assert measured == pytest.approx(12.0, rel=0.05)

    def test_averaging_reduces_error(self, paper_network):
        def spread(probe_count, seed):
            prober = Prober(
                paper_network,
                config=ProbeConfig(probe_count=probe_count, jitter_std=0.2),
                seed=seed,
            )
            return np.std([prober.measure(0, 1) for _ in range(200)])

        assert spread(20, 3) < spread(1, 3)

    def test_unknown_node_rejected(self, paper_network):
        prober = Prober(paper_network, seed=0)
        with pytest.raises(ProbingError):
            prober.measure(0, 99)

    def test_reproducible(self, paper_network):
        a = Prober(paper_network, seed=5).measure(0, 1)
        b = Prober(paper_network, seed=5).measure(0, 1)
        assert a == b


class TestMeasureMany:
    def test_order_preserved(self, exact_prober):
        out = exact_prober.measure_rows([0], [3, 1, 2])[0]
        assert out.tolist() == [12.0, 12.0, 8.0]

    def test_empty_targets(self, exact_prober):
        assert exact_prober.measure_rows([0], [])[0].size == 0


class TestMeasureMatrix:
    def test_matches_ground_truth_no_noise(self, paper_network, exact_prober):
        nodes = [0, 1, 2, 3]
        matrix = exact_prober.measure_matrix(nodes)
        expected = paper_network.distances.submatrix(nodes)
        assert np.allclose(matrix, expected)

    def test_symmetric(self, paper_network):
        prober = Prober(paper_network, seed=2)
        matrix = prober.measure_matrix([0, 1, 2])
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)


class TestProbeStats:
    def test_counts_probes(self, paper_network):
        prober = Prober(
            paper_network, config=ProbeConfig(probe_count=5), seed=0
        )
        prober.measure(0, 1)
        assert prober.stats.probes_sent == 5
        assert prober.stats.pairs_measured == 1

    def test_pairs_deduplicated(self, paper_network):
        prober = Prober(paper_network, seed=0)
        prober.measure(0, 1)
        prober.measure(1, 0)
        assert prober.stats.pairs_measured == 1

    def test_matrix_probe_budget(self, paper_network):
        """An n-node matrix measures exactly n(n-1)/2 pairs."""
        prober = Prober(
            paper_network, config=ProbeConfig(probe_count=3), seed=0
        )
        prober.measure_matrix([0, 1, 2, 3])
        assert prober.stats.pairs_measured == 6
        assert prober.stats.probes_sent == 18

    def test_reset(self, paper_network):
        prober = Prober(paper_network, seed=0)
        prober.measure(0, 1)
        prober.stats.reset()
        assert prober.stats.probes_sent == 0
        assert prober.stats.pairs_measured == 0
        prober.measure(0, 1)
        assert prober.stats.pairs_measured == 1


class TestVectorisedEquivalence:
    """The batched paths must be bit-identical to per-call ``measure``.

    Both vectorised methods draw one ``(pairs, probe_count)`` noise
    block; numpy's ``Generator`` fills that block from the same bit
    stream a sequence of per-target ``(probe_count,)`` draws would
    consume, so any change that breaks the equivalence shows up as an
    exact-comparison failure here.
    """

    def test_measure_many_matches_sequential(self, paper_network):
        targets = [2, 0, 3, 3, 1]
        sequential = Prober(paper_network, seed=41)
        vectorised = Prober(paper_network, seed=41)
        expected = np.array(
            [sequential.measure(1, target) for target in targets]
        )
        got = vectorised.measure_rows([1], targets)[0]
        assert np.array_equal(got, expected)
        assert (
            vectorised.stats.probes_sent == sequential.stats.probes_sent
        )

    def test_measure_many_self_probe_consumes_no_randomness(
        self, paper_network
    ):
        with_self = Prober(paper_network, seed=43)
        without_self = Prober(paper_network, seed=43)
        batch = with_self.measure_rows([1], [1, 2, 3])[0]
        plain = without_self.measure_rows([1], [2, 3])[0]
        assert batch[0] == 0.0
        assert np.array_equal(batch[1:], plain)

    def test_measure_matrix_matches_pair_loop(self, paper_network):
        nodes = [0, 2, 1, 3]
        sequential = Prober(paper_network, seed=47)
        vectorised = Prober(paper_network, seed=47)
        n = len(nodes)
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                value = sequential.measure(nodes[i], nodes[j])
                expected[i, j] = expected[j, i] = value
        assert np.array_equal(
            vectorised.measure_matrix(nodes), expected
        )


class _UniformJitter(NoiseModel):
    """A model defining only ``perturb``: the base ``perturb_rows`` runs."""

    def perturb(self, true_rtts_ms, rng):
        true_rtts_ms = np.asarray(true_rtts_ms, dtype=float)
        return true_rtts_ms + rng.uniform(0.0, 0.5, size=true_rtts_ms.shape)


def _reference_measure_many(prober, source, targets):
    """The per-pair ``measure_many`` that ``measure_rows`` replaced.

    Checks each node, draws one noise block per call, accounts each
    probed pair on its own and runs the fault overlay pair by pair.
    """
    network_size = prober.network.distances.size
    for node in [source, *targets]:
        if not 0 <= node < network_size:
            raise ProbingError(
                f"cannot probe unknown node {node} "
                f"(network has {network_size} nodes)"
            )
    if not targets:
        return np.empty(0, dtype=float)
    probe_count = prober.config.probe_count
    idx = np.asarray(targets, dtype=int)
    true_rtts = prober.network.distances.row(source)[idx]
    probed = idx != source
    raw = np.zeros((len(targets), probe_count))
    if probed.any():
        stacked = np.broadcast_to(
            true_rtts[probed][:, None], (int(probed.sum()), probe_count)
        )
        raw[probed] = prober._noise.perturb(stacked, prober.rng)
    out = raw.mean(axis=1)
    out[~probed] = 0.0
    stats = prober.stats
    for target in targets:
        if target != source:
            stats.probes_sent += probe_count
            pair = (min(source, target), max(source, target))
            if pair not in stats._seen_pairs:
                stats._seen_pairs.add(pair)
                stats.pairs_measured += 1
    if prober.faults is not None:
        for pos, target in enumerate(targets):
            if target != source:
                out[pos] = prober._faulted_mean(
                    source, target, float(true_rtts[pos]), raw[pos]
                )
    return out


def _stats_fields(stats):
    return (
        stats.probes_sent, stats.pairs_measured, stats.probes_lost,
        stats.retries, stats.timeouts, stats.timeout_wait_ms,
    )


ROW_CASES = {
    "no-faults": dict(),
    "loss": dict(faults=FaultConfig(probe_loss_rate=0.3)),
    "crashed-node": dict(faults=FaultConfig(), crashed=(5,)),
    "no-noise": dict(noise=NoNoise()),
    "perturb-only-model": dict(
        noise=_UniformJitter(), faults=FaultConfig(probe_loss_rate=0.2)
    ),
}


class TestMeasureRows:
    """``measure_rows`` against the per-node ``measure_many`` loop."""

    @staticmethod
    def _prober(network, noise=None, faults=None, crashed=()):
        model = None if faults is None else FaultModel(faults, RngFactory(5))
        for node in crashed:
            model.crash(node)
        return Prober(network, noise=noise, seed=29, faults=model)

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    # Sources 5 and 7 are also targets: self pairs draw nothing.
    @pytest.mark.parametrize(
        "sources", [[3, 4, 5, 6, 8], [5, 7, 1, 9, 3, 4]]
    )
    def test_matches_per_node_loop(self, small_network, case, sources):
        targets = [0, 5, 7, 2]
        reference = self._prober(small_network, **ROW_CASES[case])
        blocked = self._prober(small_network, **ROW_CASES[case])
        expected = np.array([
            _reference_measure_many(reference, source, targets)
            for source in sources
        ])
        got = blocked.measure_rows(sources, targets)
        assert got.shape == (len(sources), len(targets))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert _stats_fields(blocked.stats) == _stats_fields(reference.stats)
        assert blocked.stats._seen_pairs == reference.stats._seen_pairs
        # Both probers end at the same point of their noise streams.
        assert blocked.rng.random() == reference.rng.random()

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_measure_matches_the_loop_pair_by_pair(self, small_network, case):
        pairs = [(3, 5), (5, 5), (4, 7), (7, 4), (0, 9), (3, 5)]
        reference = self._prober(small_network, **ROW_CASES[case])
        direct = self._prober(small_network, **ROW_CASES[case])
        expected = np.array([
            _reference_measure_many(reference, a, [b])[0] for a, b in pairs
        ])
        got = np.array([direct.measure(a, b) for a, b in pairs])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert _stats_fields(direct.stats) == _stats_fields(reference.stats)
        assert direct.rng.random() == reference.rng.random()

    def test_faults_reach_the_matrix(self, small_network):
        """Pairs with a crashed end read NaN; the loss case charges waits."""
        crashed = self._prober(
            small_network, **ROW_CASES["crashed-node"]
        ).measure_rows([3, 4], [5, 7])
        assert np.isnan(crashed[:, 0]).all()
        assert not np.isnan(crashed[:, 1]).any()
        lossy = self._prober(small_network, **ROW_CASES["loss"])
        lossy.measure_rows([3, 4, 6], [0, 5, 7, 2])
        assert lossy.stats.probes_lost > 0
        assert lossy.stats.timeout_wait_ms > 0.0

    def test_empty_sides(self, exact_prober):
        assert exact_prober.measure_rows([], [1, 2]).shape == (0, 2)
        assert exact_prober.measure_rows([1, 2], []).shape == (2, 0)
        assert exact_prober.stats.probes_sent == 0

    @pytest.mark.parametrize(
        "sources, targets",
        [
            ([1, 99, 2], [3, 4]),  # a later source
            ([1, 2], [3, 42, -1]),  # the first bad target
            ([77, 2], [3, 42]),  # the first source, before any target
            ([1, 88], [-4, 3]),  # a target, before a later source
            ([1, -2], []),  # no targets: sources are still checked
        ],
    )
    def test_first_bad_node_raises_as_the_loop_did(
        self, paper_network, sources, targets
    ):
        with pytest.raises(ProbingError) as old:
            for source in sources:
                _reference_measure_many(
                    Prober(paper_network, seed=0), source, targets
                )
        with pytest.raises(ProbingError) as new:
            Prober(paper_network, seed=0).measure_rows(sources, targets)
        assert str(new.value) == str(old.value)

    def test_bad_node_draws_nothing(self, paper_network):
        prober = Prober(paper_network, seed=3)
        with pytest.raises(ProbingError):
            prober.measure_rows([1, 2, 50], [3, 4])
        assert prober.stats.probes_sent == 0
        assert prober.rng.random() == Prober(paper_network, seed=3).rng.random()


class TestRecordPairs:
    def test_counts_new_pairs_once_in_either_direction(self):
        stats = ProbeStats()
        stats.record_pairs(np.array([1, 2, 3]), np.array([2, 1, 4]), 5)
        assert stats.probes_sent == 15
        assert stats.pairs_measured == 2
        stats.record_pairs(np.array([4, 6]), np.array([3, 1]), 2)
        assert stats.probes_sent == 19
        assert stats.pairs_measured == 3
        stats.record_pairs(np.array([], dtype=int), np.array([], dtype=int), 5)
        assert (stats.probes_sent, stats.pairs_measured) == (19, 3)

    def test_matrix_accounting_matches_pair_loop(self, small_network):
        nodes = [0, 4, 9, 4, 17, 2]
        sequential = Prober(small_network, seed=47)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                _reference_measure_many(sequential, a, [b])
        vectorised = Prober(small_network, seed=47)
        vectorised.measure_matrix(nodes)
        assert _stats_fields(vectorised.stats) == _stats_fields(
            sequential.stats
        )
