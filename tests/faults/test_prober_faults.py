"""The prober's fault overlay: loss, retries, timeouts, byte-identity."""

import math

import numpy as np

from repro.faults import FaultConfig, FaultModel
from repro.probing import NoNoise, Prober
from repro.utils.rng import RngFactory


def fault_prober(network, config, seed=0, fault_seed=99, noise=None):
    model = FaultModel(config, RngFactory(fault_seed))
    return Prober(network, seed=seed, faults=model, noise=noise)


class TestZeroFaultByteIdentity:
    """A model whose faults cannot touch a pair must change nothing."""

    def test_measure_many_identical(self, paper_network):
        plain = Prober(paper_network, seed=7)
        # A crashed node blocks no probed pair, and the loss rate is
        # zero.
        overlay = fault_prober(paper_network, FaultConfig(), seed=7)
        overlay.faults.crash(6)
        targets = [0, 1, 2, 3]
        np.testing.assert_array_equal(
            plain.measure_rows([4], targets)[0],
            overlay.measure_rows([4], targets)[0],
        )

    def test_measure_matrix_identical(self, paper_network):
        plain = Prober(paper_network, seed=7)
        overlay = fault_prober(paper_network, FaultConfig(), seed=7)
        np.testing.assert_array_equal(
            plain.measure_matrix([0, 1, 2, 3]),
            overlay.measure_matrix([0, 1, 2, 3]),
        )

    def test_measure_identical(self, paper_network):
        plain = Prober(paper_network, seed=7)
        overlay = fault_prober(paper_network, FaultConfig(), seed=7)
        assert plain.measure(1, 2) == overlay.measure(1, 2)


class TestBlockedPairs:
    def test_crashed_pair_is_nan_with_full_accounting(self, paper_network):
        prober = fault_prober(paper_network, FaultConfig())
        prober.faults.crash(2)
        value = prober.measure(1, 2)
        assert math.isnan(value)
        count = prober.config.probe_count
        retries = prober.faults.config.max_retries
        assert prober.stats.timeouts == count
        assert prober.stats.probes_lost == count * (1 + retries)
        assert prober.stats.retries == count * retries
        assert prober.stats.timeout_wait_ms > 0

    def test_crashed_node_is_nan(self, paper_network):
        prober = fault_prober(paper_network, FaultConfig())
        prober.faults.crash(2)
        assert math.isnan(prober.measure(1, 2))
        assert not math.isnan(prober.measure(1, 3))

    def test_total_loss_is_nan(self, paper_network):
        prober = fault_prober(paper_network, FaultConfig(probe_loss_rate=1.0))
        value = prober.measure(1, 2)
        assert math.isnan(value)
        assert prober.stats.timeouts == prober.config.probe_count


class TestLossAndRetries:
    def test_retried_slots_inflate_the_measurement(self, paper_network):
        """End-to-end slot timing: losses add timeout waits to the mean."""
        true_rtt = paper_network.rtt(1, 2)
        prober = fault_prober(
            paper_network,
            FaultConfig(probe_loss_rate=0.6, probe_timeout_ms=500.0),
            noise=NoNoise(),
        )
        value = prober.measure(1, 2)
        assert prober.stats.probes_lost > 0
        assert value > true_rtt  # some slot waited out >= one timeout

    def test_zero_loss_mean_is_exact(self, paper_network):
        prober = fault_prober(paper_network, FaultConfig(), noise=NoNoise())
        prober.faults.crash(6)
        assert prober.measure(1, 2) == paper_network.rtt(1, 2)

    def test_retries_charged_to_probe_budget(self, paper_network):
        prober = fault_prober(
            paper_network, FaultConfig(probe_loss_rate=0.5)
        )
        prober.measure_rows([1], [0, 2, 3, 4, 5, 6])
        base = 6 * prober.config.probe_count
        assert prober.stats.probes_sent == base + prober.stats.retries

    def test_reset_clears_fault_counters(self, paper_network):
        prober = fault_prober(
            paper_network, FaultConfig(probe_loss_rate=1.0)
        )
        prober.measure(1, 2)
        prober.stats.reset()
        assert prober.stats.probes_lost == 0
        assert prober.stats.retries == 0
        assert prober.stats.timeouts == 0
        assert prober.stats.timeout_wait_ms == 0.0


class TestFaultDeterminism:
    def config(self):
        return FaultConfig(probe_loss_rate=0.4)

    def test_same_seeds_same_matrix(self, small_network):
        nodes = list(small_network.cache_nodes)[:12]
        a = fault_prober(small_network, self.config()).measure_matrix(nodes)
        b = fault_prober(small_network, self.config()).measure_matrix(nodes)
        np.testing.assert_array_equal(a, b)

    def test_measure_many_matches_per_pair_measure(self, paper_network):
        """The vectorised path must equal per-target calls bit-for-bit,
        faults included (loss streams are content-keyed, not ordered)."""
        targets = [0, 2, 3, 4, 5, 6]
        batched = fault_prober(paper_network, self.config(), seed=3)
        looped = fault_prober(paper_network, self.config(), seed=3)
        many = batched.measure_rows([1], targets)[0]
        singles = np.array([looped.measure(1, t) for t in targets])
        np.testing.assert_array_equal(many, singles)
