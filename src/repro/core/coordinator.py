"""The Group Formation Coordinator (GF-Coordinator).

The paper's GF-Coordinator "coordinates the execution of the three
steps": landmark choice, feature-vector construction, and clustering.
:class:`GFCoordinator` owns the :class:`repro.probing.Prober` (so all
measurement flows through one accounted channel) and exposes each step
separately — schemes compose them, and tests can interrogate
intermediate state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.clustering.init import CenterInitializer, UniformRandomInit
from repro.clustering.kmeans import KMeans
from repro.config import KMeansConfig, LandmarkConfig, ProbeConfig
from repro.core.groups import GroupingResult, groups_from_labels
from repro.errors import LandmarkSelectionError, SchemeError
from repro.faults.config import FaultConfig
from repro.faults.model import FaultModel
from repro.landmarks.base import LandmarkSelector, LandmarkSet
from repro.landmarks.feature_vectors import FeatureVectors, build_feature_vectors
from repro.obs.profiling import phase_timer
from repro.probing.prober import Prober
from repro.topology.network import EdgeCacheNetwork
from repro.types import ORIGIN_NODE_ID, NodeId
from repro.utils.rng import RngFactory, SeedLike


class GFCoordinator:
    """Runs the three-step group-formation pipeline over one network."""

    def __init__(
        self,
        network: EdgeCacheNetwork,
        probe_config: Optional[ProbeConfig] = None,
        seed: SeedLike = None,
        faults: Optional[Union[FaultConfig, FaultModel]] = None,
    ) -> None:
        self._network = network
        if isinstance(seed, np.random.Generator):
            # Derive a reproducible root from the caller's stream (one
            # draw) instead of silently falling back to OS entropy.
            root: Optional[int] = int(seed.integers(2**63))
        elif isinstance(seed, (int, np.integer)):
            root = int(seed)
        else:
            root = None
        self._rng_factory = RngFactory(root)
        if isinstance(faults, FaultConfig):
            # A no-op config never alters measurements: skip the model
            # entirely so fault-free runs stay byte-identical to runs
            # that never mention faults.
            faults.validate()
            self._faults: Optional[FaultModel] = (
                None if faults.is_noop()
                else FaultModel(faults, self._rng_factory)
            )
        else:
            self._faults = faults
        self._prober = Prober(
            network,
            config=probe_config,
            seed=self._rng_factory.stream("probe"),
            faults=self._faults,
        )
        self._degraded = False
        self._fault_report: Dict[str, float] = {}

    @property
    def network(self) -> EdgeCacheNetwork:
        return self._network

    @property
    def prober(self) -> Prober:
        return self._prober

    @property
    def faults(self) -> Optional[FaultModel]:
        """The attached fault model (None when fault injection is off)."""
        return self._faults

    @property
    def degraded(self) -> bool:
        """True once any degraded-mode path (imputation, failover) ran."""
        return self._degraded

    @property
    def fault_report(self) -> Dict[str, float]:
        """Degradation provenance accumulated so far (copy)."""
        return dict(self._fault_report)

    # -- step 1 ----------------------------------------------------------

    def choose_landmarks(
        self,
        selector: LandmarkSelector,
        config: Optional[LandmarkConfig] = None,
    ) -> LandmarkSet:
        """Step 1: run a landmark selector over the network."""
        config = config or LandmarkConfig()
        with phase_timer("landmarks"):
            landmarks = selector.select(
                self._prober, config, self._rng_factory.stream("landmarks")
            )
        if (
            self._faults is not None
            and self._faults.config.crashed_landmarks > 0
        ):
            crashed = self._faults.crash_landmarks(landmarks)
            if crashed:
                self._fault_report["landmarks_crashed"] = float(len(crashed))
        return landmarks

    # -- step 2 ----------------------------------------------------------

    def build_features(self, landmarks: LandmarkSet) -> FeatureVectors:
        """Step 2: every cache probes every landmark.

        With fault injection active, unreachable landmarks measure NaN;
        columns that fall below the configured quorum of valid entries
        trigger landmark replacement (re-running the greedy max–min step
        over surviving candidates and re-probing only the affected
        column), and any remaining NaN entries are imputed with the
        column median so clustering always sees complete vectors.
        """
        with phase_timer("features"):
            features = build_feature_vectors(self._prober, landmarks)
            if self._faults is not None and np.isnan(features.matrix).any():
                features = self._degrade_features(features)
            return features

    def _degrade_features(self, features: FeatureVectors) -> FeatureVectors:
        """Quorum check, landmark failover, and median imputation."""
        assert self._faults is not None
        cfg = self._faults.config
        matrix = np.array(features.matrix, dtype=float)
        nodes = features.nodes
        lm_nodes: List[NodeId] = list(features.landmarks.nodes)
        replacements: List[Tuple[NodeId, NodeId]] = []
        for _ in range(cfg.max_landmark_replacements):
            valid_fraction = np.mean(~np.isnan(matrix), axis=0)
            dead_columns = [
                col
                for col in range(1, len(lm_nodes))
                if valid_fraction[col] < cfg.quorum
            ]
            if not dead_columns:
                break
            col = dead_columns[0]
            dead_lm = lm_nodes[col]
            new_lm = self._pick_replacement_landmark(
                features.landmarks, lm_nodes
            )
            # Re-probe only the affected column: every cache measures
            # the replacement landmark, nothing else is touched.
            matrix[:, col] = self._prober.measure_rows(nodes, [new_lm])[:, 0]
            lm_nodes[col] = new_lm
            replacements.append((dead_lm, new_lm))
        else:
            valid_fraction = np.mean(~np.isnan(matrix), axis=0)
            still_dead = [
                lm_nodes[col]
                for col in range(1, len(lm_nodes))
                if valid_fraction[col] < cfg.quorum
            ]
            if still_dead:
                raise LandmarkSelectionError(
                    f"landmark replacement budget "
                    f"({cfg.max_landmark_replacements}) exhausted with "
                    f"landmarks {still_dead} still below quorum {cfg.quorum}"
                )

        # Median-impute whatever NaNs survive the quorum (isolated
        # probe losses against otherwise reachable landmarks).
        imputed = 0
        for col in range(matrix.shape[1]):
            column = matrix[:, col]
            missing = np.isnan(column)
            if not missing.any():
                continue
            if missing.all():
                raise LandmarkSelectionError(
                    f"landmark {lm_nodes[col]} is unreachable from every "
                    f"cache and cannot be imputed"
                )
            column[missing] = float(np.nanmedian(column))
            imputed += int(missing.sum())

        self._degraded = True
        self._fault_report["landmarks_replaced"] = float(len(replacements))
        self._fault_report["features_imputed"] = (
            self._fault_report.get("features_imputed", 0.0) + float(imputed)
        )
        if replacements == []:
            new_landmarks = features.landmarks
        else:
            # min_pairwise_rtt was measured for the *original* set; the
            # patched set never measured its pairwise distances.
            new_landmarks = LandmarkSet(
                nodes=tuple(lm_nodes),
                min_pairwise_rtt=float("nan"),
                plset=features.landmarks.plset,
                plset_measured=features.landmarks.plset_measured,
            )
        return FeatureVectors(
            nodes=nodes, landmarks=new_landmarks, matrix=matrix
        )

    def _pick_replacement_landmark(
        self,
        original: LandmarkSet,
        current_lm_nodes: List[NodeId],
    ) -> NodeId:
        """Choose a stand-in for a dead landmark.

        Preferred path: re-run the greedy max–min step over the PLSet
        measurements kept from selection, restricted to live candidates
        not already in the landmark set.  Fallback (selector kept no
        PLSet context): a uniform pick from live non-landmark caches
        via the ``"landmark-replacement"`` stream.
        """
        assert self._faults is not None
        taken = set(current_lm_nodes)
        down = self._faults.crashed_nodes
        if original.plset is not None and original.plset_measured is not None:
            probe_nodes = [ORIGIN_NODE_ID, *original.plset]
            measured = original.plset_measured
            live = np.array([node not in down for node in probe_nodes])
            in_set = np.array([node in taken for node in probe_nodes])
            candidate_rows = np.flatnonzero(live & ~in_set)
            surviving = live & in_set
            if candidate_rows.size and surviving.any():
                # argmax takes the first maximum: ties go to the lowest
                # row, as in the greedy selector.
                spread = measured[np.ix_(candidate_rows, surviving)].min(axis=1)
                return probe_nodes[int(candidate_rows[np.argmax(spread)])]
        candidates = sorted(
            node
            for node in self._network.cache_nodes
            if node not in taken and node not in down
        )
        if not candidates:
            raise LandmarkSelectionError(
                "no live cache is available to replace a dead landmark"
            )
        rng = self._rng_factory.stream("landmark-replacement")
        return candidates[int(rng.integers(len(candidates)))]

    def measured_server_distances(self, features: FeatureVectors) -> np.ndarray:
        """Per-cache measured RTT to the origin, extracted from features.

        The origin server is always landmark 0, so its feature-vector
        column *is* the measured server distance — SDSL needs no extra
        probes beyond what SL already issued.
        """
        origin_column = list(features.landmarks).index(
            self._network.origin
        )
        return features.matrix[:, origin_column].copy()

    # -- step 3 ----------------------------------------------------------

    def cluster(
        self,
        features: FeatureVectors,
        k: int,
        scheme_name: str,
        initializer: Optional[CenterInitializer] = None,
        kmeans_config: Optional[KMeansConfig] = None,
        points: Optional[np.ndarray] = None,
    ) -> GroupingResult:
        """Step 3: K-means over feature vectors (or supplied coordinates).

        ``points`` overrides the clustered representation (used by the
        GNP scheme, which clusters Euclidean coordinates but keeps the
        feature provenance); row order must match ``features.nodes``.
        """
        if k < 1:
            raise SchemeError(f"number of groups must be >= 1, got {k}")
        if k > len(features.nodes):
            raise SchemeError(
                f"cannot form {k} groups from {len(features.nodes)} caches"
            )
        data = features.matrix if points is None else np.asarray(points, float)
        if data.shape[0] != len(features.nodes):
            raise SchemeError(
                f"clustering data has {data.shape[0]} rows for "
                f"{len(features.nodes)} caches"
            )
        kmeans = KMeans(
            k=k,
            config=kmeans_config,
            initializer=initializer or UniformRandomInit(),
        )
        with phase_timer("cluster"):
            clustering = kmeans.fit(
                data, seed=self._rng_factory.stream("kmeans")
            )
        groups = groups_from_labels(list(features.nodes), clustering.labels)
        fault_report: Optional[Dict[str, float]] = None
        if self._faults is not None:
            stats = self._prober.stats
            fault_report = {
                **self._fault_report,
                "probes_lost": float(stats.probes_lost),
                "retries": float(stats.retries),
                "timeouts": float(stats.timeouts),
                "timeout_wait_ms": float(stats.timeout_wait_ms),
            }
        return GroupingResult(
            scheme=scheme_name,
            groups=groups,
            landmarks=features.landmarks,
            features=features,
            clustering=clustering,
            degraded=self._degraded,
            fault_report=fault_report,
        )
