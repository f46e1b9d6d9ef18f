"""Figure R (extension): resilience of group formation under faults.

Not a figure from the paper — a robustness extension.  Two sweeps:

* **Probe-loss sweep** (the plotted series): SL, SDSL, and random
  landmarks form groups while every probe is lost with probability p;
  grouping quality (average group interaction cost), simulated hit
  rate, and P95 request latency are reported per p.  Quality and hit
  rate should degrade roughly monotonically as p grows — the pipeline
  survives, it just sees a noisier network.
* **Landmark-failure sweep** (reported in ``notes``): at zero probe
  loss, f of the selected landmarks crash immediately after selection
  and the coordinator's failover path replaces them.  SL with failover
  should stay ahead of the random-landmark baseline, showing the
  greedy replacement preserves the selection advantage.

Registered as ``figR`` with the usual ``--jobs``/cache support.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.gicost import average_group_interaction_cost
from repro.analysis.report import ExperimentResult
from repro.experiments.base import (
    build_testbed,
    payload_scheme,
    run_simulation,
    series_means,
    sweep_payloads,
    sweep_result,
)
from repro.faults.config import FaultConfig
from repro.runtime.scheduler import map_tasks
from repro.utils.rng import RngFactory

DEFAULT_LOSS_RATES = (0.0, 0.1, 0.25, 0.4)
PAPER_LOSS_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)
DEFAULT_FAIL_COUNTS = (0, 1, 2)
#: K is set to 10% of the cache count, matching the other figures.
GROUP_FRACTION = 0.10

#: Series prefix (also the seed-stream label) -> scheme name, for the
#: probe-loss sweep and the landmark-failure sweep.
SWEPT = {"sl": "SL", "sdsl": "SDSL", "random": "random-landmarks"}
FAIL_SWEPT = {"sl": "SL", "random": "random-landmarks"}
METRICS = ("gicost_ms", "hit_rate", "p95_ms")


def _figr_unit(payload: dict) -> Dict[str, float]:
    """One (fault setting, repetition, scheme) work unit.

    Forms groups under the payload's fault config, then simulates the
    grouping over the repetition's testbed.  Passes ``faults=None``
    (not a zero-rate config) when all fault knobs are off, so fault-free
    units stay bit-identical to the pre-fault-injection pipeline.
    """
    testbed = build_testbed(
        payload["num_caches"], payload["seed"],
        requests_per_cache=payload["requests_per_cache"],
        num_documents=payload["num_documents"],
    )
    faults: Optional[FaultConfig] = None
    if payload["loss"] > 0.0 or payload["fail_landmarks"] > 0:
        faults = FaultConfig(
            probe_loss_rate=payload["loss"],
            crashed_landmarks=payload["fail_landmarks"],
        )
    grouping = payload_scheme(payload).form_groups(
        testbed.network,
        payload["k"],
        # The label is the series prefix straight from the work-unit
        # payload — one stream per (seed, scheme) by construction.
        # repro-lint: allow[stream-label-collision]
        seed=RngFactory(payload["seed"]).stream(payload["stream"]),
        faults=faults,
    )
    gicost = average_group_interaction_cost(testbed.network, grouping)
    result = run_simulation(testbed, grouping)
    rates = result.hit_rates()
    return {
        "gicost_ms": gicost,
        "hit_rate": rates["local"] + rates["group"],
        "p95_ms": result.metrics.latency_p95_ms(),
        "degraded": 1.0 if grouping.degraded else 0.0,
    }


def run_figr(
    loss_rates: Optional[Sequence[float]] = None,
    fail_landmark_counts: Optional[Sequence[int]] = None,
    num_caches: int = 60,
    num_landmarks: int = 8,
    seed: int = 29,
    repetitions: int = 2,
    requests_per_cache: int = 120,
    num_documents: int = 300,
    paper_scale: bool = False,
) -> ExperimentResult:
    """The fault sweep: quality/hit-rate/latency vs probe loss.

    Each point averages ``repetitions`` independent (topology, scheme)
    runs; the landmark-failure sub-sweep lands in ``notes``.
    """
    if paper_scale:
        loss_rates = loss_rates or PAPER_LOSS_RATES
        num_caches = max(num_caches, 100)
    rates = tuple(loss_rates or DEFAULT_LOSS_RATES)
    fail_counts = tuple(
        fail_landmark_counts
        if fail_landmark_counts is not None
        else DEFAULT_FAIL_COUNTS
    )
    for rate in rates:
        FaultConfig(probe_loss_rate=rate).validate()
    factory = RngFactory(seed)

    def point(fork, loss, fails, swept):
        return [
            {
                "num_caches": num_caches,
                "k": max(2, round(GROUP_FRACTION * num_caches)),
                "num_landmarks": num_landmarks,
                "requests_per_cache": requests_per_cache,
                "num_documents": num_documents,
                "scheme": scheme,
                "stream": name,
                "loss": float(loss),
                "fail_landmarks": int(fails),
                "seed": fork.root_seed,
            }
            for name, scheme in swept.items()
        ]

    loss_payloads = sweep_payloads(rates, repetitions, lambda rate, rep: (
        point(factory.fork(f"loss{rate}-rep{rep}"), rate, 0, SWEPT)
    ))
    fail_payloads = sweep_payloads(fail_counts, repetitions, lambda f, rep: (
        point(factory.fork(f"fail{f}-rep{rep}"), 0.0, f, FAIL_SWEPT)
    ))
    values = map_tasks(_figr_unit, loss_payloads + fail_payloads)
    loss_values = values[:len(loss_payloads)]
    fail_values = values[len(loss_payloads):]

    columns = [f"{name}_{metric}" for name in SWEPT for metric in METRICS]
    series = dict(zip(columns, series_means(
        loss_values, repetitions, len(SWEPT), METRICS
    )))
    fail_means = dict(zip(FAIL_SWEPT, series_means(
        fail_values, repetitions, len(FAIL_SWEPT), ("gicost_ms",)
    )))
    notes: Dict[str, float] = {}
    for i, fails in enumerate(fail_counts):
        for name in FAIL_SWEPT:
            notes[f"{name}_gicost_fail{fails}"] = fail_means[name][i]
        notes[f"sl_margin_fail{fails}"] = (
            notes[f"random_gicost_fail{fails}"]
            - notes[f"sl_gicost_fail{fails}"]
        )
    notes["degraded_runs"] = float(
        sum(int(unit["degraded"]) for unit in values)
    )
    return sweep_result("figR", "probe_loss_rate", rates, series, notes)
