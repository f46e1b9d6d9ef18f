"""Tests for repro.probing.noise."""

import numpy as np
import pytest

from repro.errors import ProbingError
from repro.probing.noise import GaussianRelativeNoise, NoNoise


class TestNoNoise:
    def test_identity(self, rng):
        rtts = np.array([1.0, 5.0, 100.0])
        out = NoNoise().perturb(rtts, rng)
        assert np.array_equal(out, rtts)

    def test_returns_copy(self, rng):
        rtts = np.array([1.0])
        out = NoNoise().perturb(rtts, rng)
        out[0] = 99.0
        assert rtts[0] == 1.0


class TestGaussianRelativeNoise:
    def test_mean_preserved(self, rng):
        noise = GaussianRelativeNoise(std=0.05)
        rtts = np.full(20_000, 50.0)
        out = noise.perturb(rtts, rng)
        assert out.mean() == pytest.approx(50.0, rel=0.01)

    def test_relative_spread(self, rng):
        noise = GaussianRelativeNoise(std=0.1)
        short = noise.perturb(np.full(10_000, 10.0), rng).std()
        long = noise.perturb(np.full(10_000, 100.0), rng).std()
        assert long == pytest.approx(10 * short, rel=0.1)

    def test_floor_enforced(self, rng):
        noise = GaussianRelativeNoise(std=5.0, floor_ms=0.5)
        out = noise.perturb(np.full(1_000, 1.0), rng)
        assert (out >= 0.5).all()

    def test_zero_rtt_stays_zero(self, rng):
        noise = GaussianRelativeNoise(std=0.1)
        out = noise.perturb(np.array([0.0, 10.0]), rng)
        assert out[0] == 0.0
        assert out[1] > 0.0

    def test_zero_std_exact(self, rng):
        noise = GaussianRelativeNoise(std=0.0)
        rtts = np.array([3.0, 7.0])
        assert np.array_equal(noise.perturb(rtts, rng), rtts)

    def test_negative_std_rejected(self):
        with pytest.raises(ProbingError):
            GaussianRelativeNoise(std=-0.1)

    def test_zero_floor_rejected(self):
        with pytest.raises(ProbingError):
            GaussianRelativeNoise(floor_ms=0.0)


class _CountingGenerator(np.random.Generator):
    """Records the shape of every ``normal`` draw."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.draws = []

    def normal(self, *args, **kwargs):
        out = super().normal(*args, **kwargs)
        self.draws.append(np.shape(out))
        return out


class TestPerturbRows:
    """``perturb_rows`` equals one ``perturb`` call per non-empty run."""

    BLOCK = np.array([
        [4.0, 4.0, 4.0], [0.0, 0.0, 0.0], [9.5, 9.5, 9.5],
        [0.01, 0.01, 0.01], [30.0, 30.0, 30.0], [2.0, 2.0, 2.0],
    ])
    COUNTS = [2, 0, 3, 0, 1]

    def _per_run(self, noise, rng):
        runs, start = [], 0
        for count in self.COUNTS:
            if count:
                runs.append(noise.perturb(self.BLOCK[start:start + count], rng))
            start += count
        return np.concatenate(runs)

    @pytest.mark.parametrize(
        "noise",
        [GaussianRelativeNoise(std=0.3, floor_ms=0.05),
         GaussianRelativeNoise(std=0.0), NoNoise()],
        ids=["gaussian", "gaussian-std0", "none"],
    )
    def test_matches_per_run_perturb(self, noise):
        per_run, blocked = _CountingGenerator(3), _CountingGenerator(3)
        expected = self._per_run(noise, per_run)
        got = noise.perturb_rows(self.BLOCK, self.COUNTS, blocked)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        # One draw per non-empty run, of that run's shape: what the
        # sanitizer ledger counts.
        assert blocked.draws == per_run.draws

    def test_gaussian_draws_once_per_run(self):
        rng = _CountingGenerator(3)
        GaussianRelativeNoise(std=0.1).perturb_rows(
            self.BLOCK, self.COUNTS, rng
        )
        assert rng.draws == [(2, 3), (3, 3), (1, 3)]

    def test_no_runs_draws_nothing(self):
        rng = _CountingGenerator(3)
        out = GaussianRelativeNoise(std=0.1).perturb_rows(
            np.empty((0, 3)), [0, 0], rng
        )
        assert out.shape == (0, 3)
        assert rng.draws == []
