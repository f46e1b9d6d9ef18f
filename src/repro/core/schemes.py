"""The five evaluated group-formation schemes behind one interface.

Every scheme is a :class:`GroupFormationScheme` whose ``form_groups``
builds a :class:`GFCoordinator`, runs the three steps, and returns a
:class:`repro.core.groups.GroupingResult`:

=====================  ==========================  =====================
scheme                 landmark selection           clustering seeding
=====================  ==========================  =====================
SLScheme               greedy max–min               uniform random
SDSLScheme             greedy max–min               Pr ∝ 1/dist(Os)^θ
RandomLandmarksScheme  uniform random               uniform random
MinDistLandmarksScheme greedy min–max (bunched)     uniform random
EuclideanGNPScheme     greedy max–min               uniform random, on
                                                    GNP coordinates
=====================  ==========================  =====================
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Type

from repro.clustering.init import ServerDistanceBiasedInit
from repro.config import (
    GNPConfig,
    KMeansConfig,
    LandmarkConfig,
    ProbeConfig,
    SDSLConfig,
)
from repro.coords.gnp import embed_gnp
from repro.core.coordinator import GFCoordinator
from repro.core.groups import GroupingResult
from repro.errors import SchemeError
from repro.faults.config import FaultConfig
from repro.landmarks.base import LandmarkSelector
from repro.landmarks.greedy import GreedyMaxMinSelector
from repro.landmarks.mindist import MinDistSelector
from repro.landmarks.random_sel import RandomSelector
from repro.topology.network import EdgeCacheNetwork
from repro.utils.rng import SeedLike


class GroupFormationScheme(abc.ABC):
    """Base class: configuration is held by the scheme, state is not.

    A scheme object can therefore be reused across networks and seeds
    (every ``form_groups`` call builds a fresh coordinator).
    """

    name: str = "abstract"

    def __init__(
        self,
        landmark_config: Optional[LandmarkConfig] = None,
        kmeans_config: Optional[KMeansConfig] = None,
        probe_config: Optional[ProbeConfig] = None,
    ) -> None:
        self._landmark_config = landmark_config or LandmarkConfig()
        self._kmeans_config = kmeans_config or KMeansConfig()
        self._probe_config = probe_config or ProbeConfig()

    @property
    def landmark_config(self) -> LandmarkConfig:
        return self._landmark_config

    def form_groups(
        self,
        network: EdgeCacheNetwork,
        k: int,
        seed: SeedLike = None,
        faults: Optional[FaultConfig] = None,
    ) -> GroupingResult:
        """Partition the network's caches into ``k`` cooperative groups.

        ``faults`` (optional) turns on measurement-side fault injection
        for this run: probe loss/retry and landmark crashes.
        """
        if k < 1:
            raise SchemeError(f"k must be >= 1, got {k}")
        coordinator = GFCoordinator(
            network, probe_config=self._probe_config, seed=seed,
            faults=faults,
        )
        return self._run(coordinator, k)

    @abc.abstractmethod
    def _run(self, coordinator: GFCoordinator, k: int) -> GroupingResult:
        """Scheme-specific pipeline over a fresh coordinator."""

    def _selector(self) -> LandmarkSelector:
        return GreedyMaxMinSelector()


class SLScheme(GroupFormationScheme):
    """Selective Landmarks scheme (paper Section 3)."""

    name = "SL"

    def _run(self, coordinator: GFCoordinator, k: int) -> GroupingResult:
        landmarks = coordinator.choose_landmarks(
            self._selector(), self._landmark_config
        )
        features = coordinator.build_features(landmarks)
        return coordinator.cluster(
            features, k, scheme_name=self.name,
            kmeans_config=self._kmeans_config,
        )


class SDSLScheme(GroupFormationScheme):
    """Server Distance sensitive SL scheme (paper Section 4).

    Identical to SL except K-means initial centers are drawn with
    probability proportional to ``1 / Dist(Ec_j, Os)^θ``; server
    distances come from the origin's feature-vector column (no extra
    probing).
    """

    name = "SDSL"

    def __init__(
        self,
        sdsl_config: Optional[SDSLConfig] = None,
        landmark_config: Optional[LandmarkConfig] = None,
        kmeans_config: Optional[KMeansConfig] = None,
        probe_config: Optional[ProbeConfig] = None,
    ) -> None:
        super().__init__(landmark_config, kmeans_config, probe_config)
        self._sdsl_config = sdsl_config or SDSLConfig()
        self._sdsl_config.validate()

    @property
    def theta(self) -> float:
        return self._sdsl_config.theta

    def _run(self, coordinator: GFCoordinator, k: int) -> GroupingResult:
        landmarks = coordinator.choose_landmarks(
            self._selector(), self._landmark_config
        )
        features = coordinator.build_features(landmarks)
        server_distances = coordinator.measured_server_distances(features)
        theta = self._sdsl_config.effective_theta(
            k, coordinator.network.num_caches
        )
        initializer = ServerDistanceBiasedInit(server_distances, theta=theta)
        return coordinator.cluster(
            features, k, scheme_name=self.name,
            initializer=initializer,
            kmeans_config=self._kmeans_config,
        )


class RandomLandmarksScheme(SLScheme):
    """SL pipeline with uniformly random landmarks (Figure 4–6 baseline)."""

    name = "random-landmarks"

    def _selector(self) -> LandmarkSelector:
        return RandomSelector()


class MinDistLandmarksScheme(SLScheme):
    """SL pipeline with minimum-spread landmarks (Figure 4–6 baseline)."""

    name = "mindist-landmarks"

    def _selector(self) -> LandmarkSelector:
        return MinDistSelector()


class VivaldiScheme(GroupFormationScheme):
    """Decentralised coordinates + K-means (extension; not in the paper).

    Skips landmark selection entirely: every node runs Vivaldi spring
    relaxation against random peers, and K-means clusters the resulting
    coordinates.  Trades the GF-Coordinator's landmark bootstrap for
    continuous background probing — the natural comparison point the
    paper's related-work section gestures at (Dabek et al., SIGCOMM
    2004).  Grouping provenance carries a *virtual* landmark set (just
    the origin) since there are no probed landmarks.
    """

    name = "vivaldi"

    def __init__(
        self,
        dimensions: int = 5,
        rounds: int = 25,
        neighbors_per_round: int = 8,
        kmeans_config: Optional[KMeansConfig] = None,
        probe_config: Optional[ProbeConfig] = None,
    ) -> None:
        super().__init__(None, kmeans_config, probe_config)
        if dimensions < 1:
            raise SchemeError(f"dimensions must be >= 1, got {dimensions}")
        if rounds < 1 or neighbors_per_round < 1:
            raise SchemeError(
                "rounds and neighbors_per_round must be >= 1"
            )
        self._dimensions = dimensions
        self._rounds = rounds
        self._neighbors = neighbors_per_round

    def _run(self, coordinator: GFCoordinator, k: int) -> GroupingResult:
        from repro.coords.vivaldi import VivaldiCoordinates
        from repro.landmarks.base import LandmarkSet
        from repro.landmarks.feature_vectors import FeatureVectors
        import numpy as np

        network = coordinator.network
        prober = coordinator.prober
        system = VivaldiCoordinates(
            network.all_nodes,
            dimensions=self._dimensions,
            seed=prober.rng,
        )
        system.run(
            prober, rounds=self._rounds,
            neighbors_per_round=self._neighbors,
        )
        coords = system.coordinates
        cache_rows = [network.all_nodes.index(c) for c in network.cache_nodes]
        cache_coords = coords[cache_rows]

        # Synthesise minimal provenance: a one-landmark set (the origin)
        # whose "feature vector" column is the coordinate distance to
        # the origin — enough for downstream consumers expecting the
        # provenance shape, without pretending landmarks were probed.
        origin_row = network.all_nodes.index(network.origin)
        origin_distance = np.linalg.norm(
            cache_coords - coords[origin_row][None, :], axis=1
        )
        landmarks = LandmarkSet(nodes=(network.origin, network.cache_nodes[0]))
        features = FeatureVectors(
            nodes=tuple(network.cache_nodes),
            landmarks=landmarks,
            matrix=np.column_stack(
                [origin_distance, np.zeros_like(origin_distance)]
            ),
        )
        return coordinator.cluster(
            features, k, scheme_name=self.name,
            kmeans_config=self._kmeans_config,
            points=cache_coords,
        )


class EuclideanGNPScheme(GroupFormationScheme):
    """GNP Euclidean-space clustering (Figure 7 baseline).

    Same greedy landmarks and measured feature vectors as SL, but the
    nodes are first embedded into a D-dimensional Euclidean space (GNP
    least-squares fit) and K-means runs on the coordinates.
    """

    name = "euclidean-gnp"

    def __init__(
        self,
        gnp_config: Optional[GNPConfig] = None,
        landmark_config: Optional[LandmarkConfig] = None,
        kmeans_config: Optional[KMeansConfig] = None,
        probe_config: Optional[ProbeConfig] = None,
    ) -> None:
        super().__init__(landmark_config, kmeans_config, probe_config)
        self._gnp_config = gnp_config or GNPConfig()
        self._gnp_config.validate()

    def _run(self, coordinator: GFCoordinator, k: int) -> GroupingResult:
        landmarks = coordinator.choose_landmarks(
            self._selector(), self._landmark_config
        )
        features = coordinator.build_features(landmarks)
        embedding = embed_gnp(
            coordinator.prober,
            features,
            config=self._gnp_config,
            seed=coordinator.prober.rng,  # share the probe stream
        )
        return coordinator.cluster(
            features, k, scheme_name=self.name,
            kmeans_config=self._kmeans_config,
            points=embedding.node_coords,
        )


_SCHEMES: Dict[str, Type[GroupFormationScheme]] = {
    cls.name: cls
    for cls in (
        SLScheme,
        SDSLScheme,
        RandomLandmarksScheme,
        MinDistLandmarksScheme,
        EuclideanGNPScheme,
        VivaldiScheme,
    )
}

#: Canonical scheme names in registry order (the CLI's ``--scheme``
#: choices).
SCHEME_NAMES = tuple(_SCHEMES)


def scheme_by_name(name: str, **kwargs) -> GroupFormationScheme:
    """Instantiate a scheme by its canonical name.

    >>> scheme_by_name("SL").name
    'SL'
    """
    try:
        cls = _SCHEMES[name]
    except KeyError:
        known = ", ".join(sorted(_SCHEMES))
        raise SchemeError(f"unknown scheme {name!r}; known: {known}") from None
    return cls(**kwargs)
