"""The paper's pipeline loads no module it does not use.

Run in a fresh interpreter, so that modules other tests imported do
not mask a regression: forming groups and simulating a small network
must load neither networkx (the router graph is plain dicts) nor
``scipy.optimize`` (only the GNP embedding needs it, and imports it
lazily).
"""

import os
import subprocess
import sys
from pathlib import Path

_PIPELINE = """
import sys
from repro import (
    SLScheme, WorkloadConfig, build_network, generate_workload, simulate,
)
from repro.config import DocumentConfig

network = build_network(num_caches=40, seed=3)
grouping = SLScheme().form_groups(network, 4, seed=3)
workload = generate_workload(
    network.cache_nodes,
    WorkloadConfig(
        documents=DocumentConfig(num_documents=50), requests_per_cache=30
    ),
    seed=3,
)
assert simulate(network, grouping, workload).average_latency_ms() > 0
loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] == "networkx"
    or name.startswith("scipy.optimize")
)
print(loaded)
"""


def test_pipeline_loads_neither_networkx_nor_scipy_optimize():
    proc = subprocess.run(
        [sys.executable, "-c", _PIPELINE],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=str(Path(__file__).resolve().parents[1]),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
