"""Tests for repro.config: validation and derived quantities."""

import pytest

from repro.config import (
    CacheConfig,
    DocumentConfig,
    GNPConfig,
    KMeansConfig,
    LandmarkConfig,
    ProbeConfig,
    SDSLConfig,
    SimulationConfig,
    TransitStubConfig,
    WorkloadConfig,
)
from repro.errors import ConfigurationError


class TestTransitStubConfig:
    def test_default_validates(self):
        TransitStubConfig().validate()

    def test_total_routers(self):
        cfg = TransitStubConfig(
            transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit_node=2,
            stub_nodes_per_domain=4,
        )
        # 6 transit + 6*2 stub domains * 4 = 48 stub
        assert cfg.total_routers == 6 + 48

    def test_stub_domain_count(self):
        cfg = TransitStubConfig(
            transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit_node=2,
        )
        assert cfg.stub_domain_count == 12

    def test_zero_transit_domains_rejected(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig(transit_domains=0).validate()

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig(intra_domain_edge_prob=1.5).validate()

    def test_inverted_latency_range_rejected(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig(
                transit_transit_latency_ms=(60.0, 20.0)
            ).validate()

    def test_zero_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig(intra_stub_latency_ms=(0.0, 5.0)).validate()

    def test_sized_for_density_shrinks_small_networks(self):
        cfg = TransitStubConfig()
        sized = cfg.sized_for_density(50)
        assert sized.stub_nodes_per_domain < cfg.stub_nodes_per_domain
        assert sized.stub_nodes_per_domain >= 2

    def test_sized_for_density_has_room_for_all_nodes(self):
        cfg = TransitStubConfig()
        for n in (10, 100, 1000):
            sized = cfg.sized_for_density(n)
            stub_routers = sized.stub_domain_count * sized.stub_nodes_per_domain
            assert stub_routers >= n + 1

    def test_sized_for_density_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig().sized_for_density(0)
        with pytest.raises(ConfigurationError):
            TransitStubConfig().sized_for_density(10, nodes_per_stub_router=0)


class TestProbeConfig:
    def test_default_validates(self):
        ProbeConfig().validate()

    def test_zero_probes_rejected(self):
        with pytest.raises(ConfigurationError):
            ProbeConfig(probe_count=0).validate()

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            ProbeConfig(jitter_std=-0.1).validate()

    def test_zero_floor_rejected(self):
        with pytest.raises(ConfigurationError):
            ProbeConfig(min_rtt_ms=0.0).validate()


class TestLandmarkConfig:
    def test_default_validates(self):
        LandmarkConfig().validate()

    def test_potential_set_size(self):
        cfg = LandmarkConfig(num_landmarks=3, multiplier=2)
        assert cfg.potential_set_size() == 4  # M * (L - 1)

    def test_single_landmark_rejected(self):
        with pytest.raises(ConfigurationError):
            LandmarkConfig(num_landmarks=1).validate()

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ConfigurationError):
            LandmarkConfig(multiplier=0).validate()


class TestKMeansConfig:
    def test_default_validates(self):
        KMeansConfig().validate()

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            KMeansConfig(max_iterations=0).validate()

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            KMeansConfig(reassignment_tolerance=-1).validate()

    def test_zero_restarts_rejected(self):
        with pytest.raises(ConfigurationError):
            KMeansConfig(restarts=0).validate()


class TestSDSLConfig:
    def test_default_validates(self):
        SDSLConfig().validate()

    def test_zero_theta_allowed(self):
        SDSLConfig(theta=0.0).validate()

    def test_negative_theta_rejected(self):
        with pytest.raises(ConfigurationError):
            SDSLConfig(theta=-1.0).validate()


class TestGNPConfig:
    def test_default_validates(self):
        GNPConfig().validate()

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            GNPConfig(dimensions=0).validate()


class TestDocumentConfig:
    def test_default_validates(self):
        DocumentConfig().validate()

    def test_zero_documents_rejected(self):
        with pytest.raises(ConfigurationError):
            DocumentConfig(num_documents=0).validate()

    def test_bad_dynamic_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            DocumentConfig(dynamic_fraction=1.5).validate()


class TestWorkloadConfig:
    def test_default_validates(self):
        WorkloadConfig().validate()

    def test_nested_document_config_validated(self):
        cfg = WorkloadConfig(documents=DocumentConfig(num_documents=0))
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_bad_shared_interest_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(shared_interest=-0.1).validate()

    def test_zero_interarrival_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(mean_interarrival_ms=0.0).validate()

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(duration_ms=-5.0).validate()


class TestCacheConfig:
    def test_default_validates(self):
        CacheConfig().validate()

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(capacity_fraction=0.0).validate()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(replacement_policy="magic").validate()

    @pytest.mark.parametrize("policy", ["utility", "lru", "lfu"])
    def test_known_policies_accepted(self, policy):
        CacheConfig(replacement_policy=policy).validate()


class TestSimulationConfig:
    def test_default_validates(self):
        SimulationConfig().validate()

    def test_nested_cache_config_validated(self):
        cfg = SimulationConfig(cache=CacheConfig(capacity_fraction=0.0))
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(link_bandwidth_bytes_per_ms=0.0).validate()

    def test_full_warmup_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(warmup_fraction=1.0).validate()


NAN = float("nan")


@pytest.mark.parametrize(
    "config",
    [
        ProbeConfig(jitter_std=NAN),
        ProbeConfig(min_rtt_ms=NAN),
        SimulationConfig(origin_processing_ms=NAN),
        SimulationConfig(ttl_ms=NAN),
        WorkloadConfig(zipf_alpha=NAN),
        WorkloadConfig(mean_interarrival_ms=NAN),
        DocumentConfig(mean_size_bytes=NAN),
        SDSLConfig(theta=NAN),
    ],
    ids=lambda config: next(
        f"{type(config).__name__}.{name}"
        for name, value in vars(config).items()
        if isinstance(value, float) and value != value
    ),
)
def test_nan_rejected(config):
    with pytest.raises(ConfigurationError, match="got nan"):
        config.validate()
