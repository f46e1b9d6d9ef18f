"""Tests of the benchmark itself, on small versions of its workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.bench.core import SMALL_SCENARIO  # noqa: E402
from repro.config import LandmarkConfig  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

SIM = workloads.SimWorkload(
    "sim-small", dataclasses.replace(SMALL_SCENARIO, num_groups=3)
)
FORMATION = workloads.FormationWorkload(
    num_caches=60, ks=(4, 9), scheme_seeds=1,
    landmarks=LandmarkConfig(num_landmarks=6, multiplier=2),
)


def figures(tmp_path: Path) -> workloads.FiguresWorkload:
    return workloads.FiguresWorkload(
        scratch=tmp_path, figures=("fig6",), repetitions=1
    )


# -- inputs --------------------------------------------------------------


def _rtts(network):
    nodes = network.all_nodes
    return [[network.rtt(a, b) for b in nodes] for a in nodes]


def test_sim_inputs_are_a_function_of_the_seed():
    a, b, c = SIM.build(7), SIM.build(7), SIM.build(8)
    assert a.workload.requests == b.workload.requests
    assert a.workload.updates == b.workload.updates
    assert _rtts(a.network) == _rtts(b.network)
    assert a.workload.requests != c.workload.requests


def test_formation_inputs_are_a_function_of_the_seed():
    a, b, c = FORMATION.build(3), FORMATION.build(3), FORMATION.build(4)
    assert a.plan == b.plan and a.plan != c.plan
    assert _rtts(a.network) == _rtts(b.network)


def test_figures_seed_is_a_function_of_the_seed(tmp_path):
    wl = figures(tmp_path)
    assert wl.build(5).seed == wl.build(5).seed != wl.build(6).seed


# -- output checks -------------------------------------------------------


def test_dropped_group_counts_as_failed():
    inputs = FORMATION.build(1)
    out = FORMATION.call(inputs)
    grouping, cost = out[0]
    corrupt = [
        (dataclasses.replace(grouping, groups=grouping.groups[1:]), cost),
        *out[1:],
    ]
    with pytest.raises(workloads.OutputError, match="in no group"):
        FORMATION.fingerprint(inputs, corrupt)
    checker = run.Checker(FORMATION, FORMATION.fingerprint(inputs, out))
    checker.run(lambda: out, inputs)
    checker.run(lambda: corrupt, inputs)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_changed_gicost_counts_as_failed():
    inputs = FORMATION.build(1)
    out = FORMATION.call(inputs)
    checker = run.Checker(FORMATION, FORMATION.fingerprint(inputs, out))
    checker.run(lambda: [(out[0][0], out[0][1] + 1e-9), *out[1:]], inputs)
    assert checker.failed == 1


def test_flipped_statistic_counts_as_failed():
    inputs = SIM.build(1)
    result = SIM.call(inputs)
    checker = run.Checker(SIM, None)
    checker.run(lambda: result, inputs)
    stats = result.metrics.cache_stats(result.metrics.cache_nodes()[0])
    # A request moved from a group hit to an origin fetch: conservation
    # still holds, only the digest can see it.
    stats.group_hits -= 1
    stats.origin_fetches += 1
    checker.run(lambda: result, inputs)
    # A request lost outright breaks conservation.
    stats.local_hits -= 1
    checker.run(lambda: result, inputs)
    assert (checker.attempted, checker.failed) == (3, 2)


def test_crashing_call_counts_as_failed():
    checker = run.Checker(SIM, None)

    def boom():
        raise RuntimeError("boom")

    out, _ = checker.run(boom, None)
    assert out is None and checker.failed == 1


def test_figure_digest_mismatch_counts_as_failed(tmp_path):
    wl = figures(tmp_path)
    inputs = wl.build(1)
    out = wl.call(inputs)
    assert set(out.digests) == {"fig6"}
    bad = workloads.FiguresOutput(
        digests={"fig6": "0" * 64}, manifests=out.manifests
    )
    checker = run.Checker(wl, wl.fingerprint(inputs, out))
    checker.run(lambda: out, inputs)
    checker.run(lambda: bad, inputs)
    assert (checker.attempted, checker.failed) == (2, 1)


# -- tracing -------------------------------------------------------------


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),  # overlaps a
        Span(3, "a.child", 2.0, 3.0, 1, 0),
        Span(4, "late", 9.0, 12.0, 0, 0),  # runs past its parent
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_spans_nest_and_share_the_call_id():
    tracer = Tracer()
    with tracer.span("setup"):
        pass
    with tracer.call("work") as root:
        with tracer.span("layer") as layer:
            with tracer.span("inner"):
                pass
    setup, _, _, inner = tracer.spans
    assert setup.call_id is None and setup.parent is None
    assert layer.parent == root.span_id and inner.parent == layer.span_id
    assert {s.call_id for s in tracer.spans[1:]} == {root.call_id}


def _counts(workload, seed):
    """Count metrics of one traced run; every traced call must match the
    untraced warm-up's fingerprint (for formation: the coordinator's
    steps give what ``form_groups`` gives)."""
    checker = run.Checker(workload, None)
    metrics, _ = run.traced(workload, seed, 0.0, checker, 0.0)
    assert checker.attempted >= 3 and checker.failed == 0
    return {
        name: value for name, value in metrics.items()
        if run.unit_of(name) == "count"
    }


@pytest.mark.parametrize("workload", [SIM, FORMATION], ids=lambda w: w.name)
def test_counts_repeat_across_traced_runs(workload):
    first = _counts(workload, 2)
    assert any(first.values())
    assert first == _counts(workload, 2)


def test_figure_counts_repeat_across_traced_runs(tmp_path):
    wl = figures(tmp_path)
    first = _counts(wl, 2)
    assert first["runtime.tasks"] > 0
    assert first == _counts(wl, 2)


# -- the benchmark's contract ---------------------------------------------


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sim-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
