"""Engine throughput regression gate: measure, persist, and gate.

``repro bench run`` measures engine events/s for a map of named
scenarios into a versioned JSON result; ``repro bench gate`` fails
(exit 1) when any shared throughput metric drops by more than the
tolerance relative to a committed baseline
(``benchmarks/baselines/``).  The benchmark of record for end-to-end
and per-layer numbers is ``perfbench/run.py``; see
``docs/performance.md`` and :mod:`repro.bench.core`.

Like the sanitizer, nothing on the simulator/experiment hot path
imports this package — benchmarking a run costs nothing unless
explicitly requested.
"""

from repro.bench.core import (
    BENCH_FORMAT_VERSION,
    DEFAULT_SCENARIO,
    DEFAULT_TOLERANCE,
    LARGE_SCENARIO,
    SMALL_SCENARIO,
    BenchCheck,
    BenchResult,
    BenchScenario,
    GateReport,
    ScenarioRun,
    gate_bench,
    load_bench,
    run_bench,
    run_engine_bench,
    save_bench,
    scenario_by_name,
)

__all__ = [
    "BENCH_FORMAT_VERSION",
    "DEFAULT_SCENARIO",
    "DEFAULT_TOLERANCE",
    "LARGE_SCENARIO",
    "SMALL_SCENARIO",
    "BenchCheck",
    "BenchResult",
    "BenchScenario",
    "GateReport",
    "ScenarioRun",
    "gate_bench",
    "load_bench",
    "run_bench",
    "run_engine_bench",
    "save_bench",
    "scenario_by_name",
]
