"""FaultModel: liveness state, seeded draws, content-keyed determinism."""

import numpy as np
import pytest

from repro.errors import ProbingError
from repro.faults import FaultConfig, FaultModel
from repro.landmarks.base import LandmarkSet
from repro.types import ORIGIN_NODE_ID
from repro.utils.rng import RngFactory


def model(config=None, seed=42):
    return FaultModel(config or FaultConfig(), RngFactory(seed))


class TestLiveness:
    def test_crash_and_recover(self):
        m = model()
        assert not m.is_down(3)
        m.crash(3)
        assert m.is_down(3)
        assert m.crashed_nodes == frozenset({3})
        m.recover(3)
        assert not m.is_down(3)

    def test_crashed_node_blocks_every_pair(self):
        m = model()
        m.crash(5)
        assert m.pair_blocked(5, 1)
        assert m.pair_blocked(1, 5)
        assert not m.pair_blocked(1, 2)

    def test_invalid_config_rejected_at_construction(self):
        with pytest.raises(ProbingError):
            model(FaultConfig(probe_loss_rate=2.0))


class TestLandmarkCrash:
    def landmarks(self):
        return LandmarkSet(nodes=(ORIGIN_NODE_ID, 3, 5, 8, 11))

    def test_crashes_requested_count(self):
        m = model(FaultConfig(crashed_landmarks=2))
        crashed = m.crash_landmarks(self.landmarks())
        assert len(crashed) == 2
        assert set(crashed) <= {3, 5, 8, 11}  # never the origin
        assert all(m.is_down(node) for node in crashed)

    def test_zero_count_is_free(self):
        m = model(FaultConfig(crashed_landmarks=0))
        assert m.crash_landmarks(self.landmarks()) == ()
        assert m.crashed_nodes == frozenset()

    def test_too_many_rejected(self):
        m = model(FaultConfig(crashed_landmarks=9))
        with pytest.raises(ProbingError, match="cannot crash 9"):
            m.crash_landmarks(self.landmarks())

    def test_same_seed_same_victims(self):
        picks = {
            tuple(
                model(FaultConfig(crashed_landmarks=2), seed=7)
                .crash_landmarks(self.landmarks())
            )
            for _ in range(5)
        }
        assert len(picks) == 1


class TestDeterminism:
    def test_loss_stream_is_content_keyed(self):
        """The same pair's stream yields the same draws regardless of
        which other pairs were touched first (call order freedom)."""
        m1 = model(FaultConfig(probe_loss_rate=0.5), seed=11)
        m2 = model(FaultConfig(probe_loss_rate=0.5), seed=11)
        m2.loss_stream(9, 1).random(100)  # unrelated pair first
        a = m1.loss_stream(2, 6).random(10)
        b = m2.loss_stream(2, 6).random(10)
        np.testing.assert_array_equal(a, b)

    def test_loss_stream_is_ordered_pair_keyed(self):
        m = model(FaultConfig(probe_loss_rate=0.5), seed=11)
        a = m.loss_stream(2, 6).random(10)
        b = m.loss_stream(6, 2).random(10)
        assert not np.array_equal(a, b)

    def test_fault_fork_isolated_from_parent_streams(self):
        """Attaching a model must not shift the parent factory's streams."""
        factory = RngFactory(123)
        before = factory.stream("probe").random(5)
        FaultModel(FaultConfig(probe_loss_rate=0.5), factory).loss_stream(
            1, 2
        ).random(50)
        after = RngFactory(123).stream("probe").random(5)
        np.testing.assert_array_equal(before, after)


class TestBackoff:
    def test_exponential_with_cap(self):
        m = model(FaultConfig(backoff_base_ms=50.0, backoff_cap_ms=150.0))
        assert m.backoff_ms(1) == 50.0
        assert m.backoff_ms(2) == 100.0
        assert m.backoff_ms(3) == 150.0  # capped, not 200
        assert m.backoff_ms(4) == 150.0
