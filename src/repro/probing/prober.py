"""The :class:`Prober` — measured (noisy, averaged) RTTs plus accounting.

The SL scheme's measurement economy matters: its whole point is to avoid
the full N×N probe matrix.  :class:`ProbeStats` counts every probe
issued, so tests and benchmarks can assert that the SL pipeline stays at
``O(PLSet² + N·L)`` probes rather than ``O(N²)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.config import ProbeConfig
from repro.errors import ProbingError
from repro.probing.noise import GaussianRelativeNoise, NoiseModel
from repro.topology.network import EdgeCacheNetwork
from repro.types import Ms, NodeId
from repro.utils.rng import SeedLike, spawn_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.model import FaultModel


@dataclass
class ProbeStats:
    """Mutable probe accounting attached to a :class:`Prober`."""

    #: total individual probe messages sent
    probes_sent: int = 0
    #: distinct (source, target) pairs measured at least once
    pairs_measured: int = 0
    #: probe messages that were lost (fault injection only)
    probes_lost: int = 0
    #: retry probes sent after a loss (already included in probes_sent)
    retries: int = 0
    #: probe slots that exhausted every retry without an answer
    timeouts: int = 0
    #: simulated wait charged to timeouts and retry backoff (ms)
    timeout_wait_ms: Ms = 0.0
    _seen_pairs: set = field(default_factory=set, repr=False)

    def record(self, source: NodeId, target: NodeId, probe_count: int) -> None:
        """:meth:`record_pairs` for one pair (the per-sample path)."""
        self.probes_sent += probe_count
        pair = (min(source, target), max(source, target))
        if pair not in self._seen_pairs:
            self._seen_pairs.add(pair)
            self.pairs_measured += 1

    def record_pairs(
        self, sources: np.ndarray, targets: np.ndarray, probe_count: int
    ) -> None:
        """Account ``probe_count`` probes to each ``(source, target)`` pair.

        ``sources`` and ``targets`` are parallel arrays of probed pairs;
        a pair counts towards ``pairs_measured`` the first time it (or
        its mirror) is seen.
        """
        self.probes_sent += probe_count * len(sources)
        seen = self._seen_pairs
        before = len(seen)
        seen.update(zip(
            np.minimum(sources, targets).tolist(),
            np.maximum(sources, targets).tolist(),
        ))
        self.pairs_measured += len(seen) - before

    def reset(self) -> None:
        self.probes_sent = 0
        self.pairs_measured = 0
        self.probes_lost = 0
        self.retries = 0
        self.timeouts = 0
        self.timeout_wait_ms = 0.0
        self._seen_pairs.clear()


class Prober:
    """Issues simulated RTT probes against an :class:`EdgeCacheNetwork`.

    Each call to :meth:`measure` simulates ``probe_count`` pings of the
    target and returns their mean, as the paper's caches do ("probing
    them multiple times and recording the average RTT values").
    """

    def __init__(
        self,
        network: EdgeCacheNetwork,
        config: Optional[ProbeConfig] = None,
        noise: Optional[NoiseModel] = None,
        seed: SeedLike = None,
        faults: Optional["FaultModel"] = None,
    ) -> None:
        self._network = network
        self._config = config or ProbeConfig()
        self._config.validate()
        if noise is None:
            noise = GaussianRelativeNoise(
                std=self._config.jitter_std, floor_ms=self._config.min_rtt_ms
            )
        self._noise = noise
        self._rng = spawn_rng(seed)
        self._faults = faults
        self.stats = ProbeStats()

    @property
    def faults(self) -> Optional["FaultModel"]:
        """The attached fault model, if any."""
        return self._faults

    @property
    def network(self) -> EdgeCacheNetwork:
        return self._network

    @property
    def config(self) -> ProbeConfig:
        return self._config

    @property
    def rng(self) -> np.random.Generator:
        """The prober's random stream (shared with co-located estimators)."""
        return self._rng

    def measure(self, source: NodeId, target: NodeId) -> float:
        """Measured RTT between two nodes: mean of ``probe_count`` probes.

        With a fault model attached the per-probe loss/retry overlay
        applies (see :meth:`_faulted_mean`); every probe to the pair
        lost means the result is NaN.  Per-sample callers (Vivaldi,
        membership joins) call this once per pair, so it stays a scalar
        path; it draws what :meth:`measure_rows` draws for the pair.
        """
        self._check_node(source)
        self._check_node(target)
        if source == target:
            return 0.0
        true_rtt = self._network.rtt(source, target)
        observations = self._noise.perturb(
            np.full(self._config.probe_count, true_rtt), self._rng
        )
        self.stats.record(source, target, self._config.probe_count)
        if self._faults is None:
            return float(observations.mean())
        return self._faulted_mean(source, target, true_rtt, observations)

    def measure_rows(
        self, sources: Sequence[NodeId], targets: Sequence[NodeId]
    ) -> np.ndarray:
        """Measured RTTs from each of ``sources`` to each of ``targets``.

        Row ``i`` equals what a per-source loop measures for
        ``sources[i]`` in source order, bit for bit, including the probe
        accounting and the fault overlay.  Noise is drawn once per
        source row: one ``(probed, probe_count)`` block of the row's
        non-self targets.  The numpy ``Generator`` fills that block from
        the same bit stream per-target draws would consume, and keeping
        one draw per row keeps the sanitizer ledger's draw counts and
        digests those of a per-source loop.
        Self pairs read 0.0 and draw nothing.
        """
        sources = list(sources)
        targets = list(targets)
        out = np.zeros((len(sources), len(targets)), dtype=float)
        if not sources:
            return out
        # The order a per-source loop checks them in: its first call
        # checks the first source, then every target.
        self._check_nodes([sources[0], *targets, *sources[1:]])
        src = np.asarray(sources, dtype=int)
        dst = np.asarray(targets, dtype=int)
        rtt = self._network.distances.as_array()
        probed = src[:, None] != dst[None, :]
        rows, cols = np.nonzero(probed)
        pair_src, pair_dst = src[rows], dst[cols]
        out[rows, cols] = self._probe_pairs(
            pair_src, pair_dst, rtt[pair_src, pair_dst],
            probed.sum(axis=1),
        )
        return out

    def measure_matrix(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Full measured RTT matrix among ``nodes`` (symmetric).

        Each unordered pair is probed once and mirrored, matching how
        potential landmarks probe each other in SL step 1.  The upper
        triangle is probed in row-major pair order with one noise draw
        for all of it.
        """
        nodes = list(nodes)
        self._check_nodes(nodes)
        n = len(nodes)
        matrix = np.zeros((n, n), dtype=float)
        if n < 2:
            return matrix
        iu, ju = np.triu_indices(n, k=1)
        node_arr = np.asarray(nodes, dtype=int)
        sources, dests = node_arr[iu], node_arr[ju]
        probed = sources != dests
        sources, dests = sources[probed], dests[probed]
        values = np.zeros(len(iu), dtype=float)
        values[probed] = self._probe_pairs(
            sources, dests, self._network.distances.as_array()[sources, dests],
            [len(sources)],
        )
        matrix[iu, ju] = values
        matrix[ju, iu] = values
        return matrix

    def _probe_pairs(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        true_rtts: np.ndarray,
        row_counts: Sequence[int],
    ) -> np.ndarray:
        """Mean measured RTT of each probed (non-self) pair, in order.

        ``row_counts`` splits the pairs into consecutive runs that each
        take one noise draw (see :meth:`NoiseModel.perturb_rows`).  The
        fault overlay then runs pair by pair in the same order, because
        its float accumulations (``timeout_wait_ms``) depend on order.
        """
        probe_count = self._config.probe_count
        raw = self._noise.perturb_rows(
            np.repeat(true_rtts[:, None], probe_count, axis=1),
            row_counts,
            self._rng,
        )
        values = raw.mean(axis=1)
        self.stats.record_pairs(sources, targets, probe_count)
        if self._faults is not None:
            for pos, (source, target) in enumerate(
                zip(sources.tolist(), targets.tolist())
            ):
                values[pos] = self._faulted_mean(
                    source, target, float(true_rtts[pos]), raw[pos]
                )
        return values

    def _faulted_mean(
        self,
        source: NodeId,
        target: NodeId,
        true_rtt: float,
        base_observations: np.ndarray,
    ) -> float:
        """Apply the fault overlay to one pair's base observations.

        The base noise block was already drawn from the prober's main
        stream, so this method consumes *only* the pair's content-keyed
        loss stream: a pair with zero loss and no crashed end returns
        the plain mean bit-identically, keeping fault-free runs
        indistinguishable from runs without a fault model.

        Each of the ``probe_count`` slots is one probe: a lost probe
        costs ``probe_timeout_ms`` of simulated wait and is retried up
        to ``max_retries`` times with capped exponential backoff; every
        retry is charged to the probe budget (``probes_sent``).  A slot
        that exhausts its retries counts as a timeout; if all slots time
        out the measurement is NaN (landmark unreachable).

        Slots are timed end-to-end: a slot that succeeded only after
        retries reports its elapsed time *including* the timeouts it
        waited out, the way an application-level prober that cannot
        tell loss from delay would.  Probe loss therefore inflates
        measured RTTs (and so distorts landmark selection and feature
        vectors) rather than merely thinning the sample — which is
        exactly the degradation the resilience sweep measures.
        """
        model = self._faults
        assert model is not None
        cfg = model.config
        stats = self.stats
        probe_count = len(base_observations)
        if model.pair_blocked(source, target):
            # Deterministically dead: no draws, every attempt lost.
            retries = cfg.max_retries
            stats.probes_sent += probe_count * retries
            stats.retries += probe_count * retries
            stats.probes_lost += probe_count * (1 + retries)
            stats.timeouts += probe_count
            stats.timeout_wait_ms += (
                probe_count * (1 + retries) * cfg.probe_timeout_ms
            )
            stats.timeout_wait_ms += probe_count * sum(
                model.backoff_ms(attempt) for attempt in range(1, retries + 1)
            )
            return float("nan")
        loss = cfg.probe_loss_rate
        if loss <= 0.0:
            return float(base_observations.mean())
        pair_rng = model.loss_stream(source, target)
        values = []
        for slot in range(probe_count):
            observation: Optional[float] = None
            if pair_rng.random() >= loss:
                observation = float(base_observations[slot])
            else:
                stats.probes_lost += 1
                stats.timeout_wait_ms += cfg.probe_timeout_ms
                for attempt in range(1, cfg.max_retries + 1):
                    stats.retries += 1
                    stats.probes_sent += 1
                    stats.timeout_wait_ms += model.backoff_ms(attempt)
                    if pair_rng.random() >= loss:
                        # End-to-end slot timing: `attempt` earlier
                        # sends timed out before this one answered.
                        observation = float(
                            attempt * cfg.probe_timeout_ms
                            + self._noise.perturb(
                                np.full(1, true_rtt), pair_rng
                            )[0]
                        )
                        break
                    stats.probes_lost += 1
                    stats.timeout_wait_ms += cfg.probe_timeout_ms
                else:
                    stats.timeouts += 1
            if observation is not None:
                values.append(observation)
        if not values:
            return float("nan")
        return float(np.mean(values))

    def _check_nodes(self, nodes: Sequence[NodeId]) -> None:
        """Raise for the first of ``nodes`` outside the network."""
        ids = np.asarray(nodes, dtype=int)
        bad = (ids < 0) | (ids >= self._network.distances.size)
        if bad.any():
            self._check_node(nodes[int(np.argmax(bad))])

    def _check_node(self, node: NodeId) -> None:
        if not 0 <= node < self._network.distances.size:
            raise ProbingError(
                f"cannot probe unknown node {node} "
                f"(network has {self._network.distances.size} nodes)"
            )
