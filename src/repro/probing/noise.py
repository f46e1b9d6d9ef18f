"""Measurement-noise models for simulated RTT probes.

A real ``ping`` observes propagation delay plus queueing jitter.  We
model a single probe of a path with true RTT ``d`` as
``max(d * (1 + e), floor)`` where ``e`` is drawn from the noise model.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.errors import ProbingError


class NoiseModel(abc.ABC):
    """Strategy interface: perturb a vector of true RTTs."""

    @abc.abstractmethod
    def perturb(
        self, true_rtts_ms: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Return one noisy observation per entry of ``true_rtts_ms``."""

    def perturb_rows(
        self,
        block: np.ndarray,
        row_counts: Sequence[int],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Perturb ``block`` as consecutive runs of ``row_counts`` rows.

        The result equals one :meth:`perturb` call per non-empty run, in
        order, stacked: a run of zero rows draws nothing.  One draw per
        run, not one for the whole block, keeps the sanitizer ledger's
        draw counts and digests those of a per-run loop.
        """
        runs = [
            self.perturb(block[end - count:end], rng)
            for count, end in zip(row_counts, np.cumsum(row_counts))
            if count
        ]
        if not runs:
            return np.asarray(block, dtype=float).copy()
        return np.concatenate(runs)


class NoNoise(NoiseModel):
    """Probes observe the exact RTT (useful for tests and calibration)."""

    def perturb(
        self, true_rtts_ms: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.asarray(true_rtts_ms, dtype=float).copy()


class GaussianRelativeNoise(NoiseModel):
    """Zero-mean Gaussian *relative* jitter with a positivity floor.

    ``observed = max(true * (1 + N(0, std)), floor)``.  Relative (rather
    than absolute) noise matches the empirical behaviour that long paths
    jitter more in absolute terms.
    """

    def __init__(self, std: float = 0.05, floor_ms: float = 0.05) -> None:
        if std < 0:
            raise ProbingError(f"noise std must be >= 0, got {std}")
        if floor_ms <= 0:
            raise ProbingError(f"floor_ms must be > 0, got {floor_ms}")
        self._std = std
        self._floor = floor_ms

    @property
    def std(self) -> float:
        return self._std

    def perturb(
        self, true_rtts_ms: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        true_rtts_ms = np.asarray(true_rtts_ms, dtype=float)
        if self._std == 0:
            return true_rtts_ms.copy()
        factors = 1.0 + rng.normal(0.0, self._std, size=true_rtts_ms.shape)
        observed = true_rtts_ms * factors
        # Zero-RTT entries (self-probes) stay exactly zero.
        observed = np.where(
            true_rtts_ms == 0.0, 0.0, np.maximum(observed, self._floor)
        )
        return observed
