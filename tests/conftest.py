"""Shared fixtures: the paper's worked example and small testbeds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    DocumentConfig,
    WorkloadConfig,
)
from repro.probing import NoNoise, Prober
from repro.topology import build_network, network_from_matrix
from repro.workload import generate_workload

#: The RTT matrix of the paper's Figure 1 (lower half mirrored).
#: Node order: Os, Ec0, Ec1, Ec2, Ec3, Ec4, Ec5 -> node ids 0..6.
PAPER_FIG1_MATRIX = [
    [0.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0],
    [12.0, 0.0, 4.0, 17.0, 14.4, 17.0, 14.4],
    [8.0, 4.0, 0.0, 14.4, 11.3, 14.4, 11.3],
    [12.0, 17.0, 14.4, 0.0, 4.0, 17.0, 14.4],
    [8.0, 14.4, 11.3, 4.0, 0.0, 14.4, 11.3],
    [12.0, 17.0, 14.4, 17.0, 14.4, 0.0, 4.0],
    [8.0, 14.4, 11.3, 14.4, 11.3, 4.0, 0.0],
]


@pytest.fixture
def paper_network():
    """The 6-cache example network of the paper's Figures 1 and 2."""
    return network_from_matrix(PAPER_FIG1_MATRIX)


@pytest.fixture
def exact_prober(paper_network):
    """A noise-free prober over the paper network (exact RTT readings)."""
    return Prober(paper_network, noise=NoNoise(), seed=0)


@pytest.fixture(scope="session")
def small_network():
    """A generated 30-cache network, shared across the test session."""
    return build_network(num_caches=30, seed=1234)


@pytest.fixture(scope="session")
def tiny_workload_config():
    return WorkloadConfig(
        documents=DocumentConfig(num_documents=60),
        requests_per_cache=40,
    )


@pytest.fixture(scope="session")
def small_workload(small_network, tiny_workload_config):
    """A workload matched to ``small_network`` (session-shared)."""
    return generate_workload(
        small_network.cache_nodes, tiny_workload_config, seed=99
    )


@pytest.fixture
def rng():
    return np.random.default_rng(7)
