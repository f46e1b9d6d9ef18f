"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-read --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it alternates traced and
untraced calls, writes every span to ``.perfbench_out/`` and prints the
per-layer metrics plus the tracing overhead.  Both runs check every
call's output and count a call whose check fails as failed.  The last
line of standard output is the result object; the lines before it give
the run metadata and a human-readable summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

#: An end-to-end run builds its inputs up to ``SETUPS`` times, but
#: starts no new build once ``SETUP_BUDGET_S`` is spent; ``setup_s``
#: adds the median build to the one warm-up call.
SETUPS = 3
SETUP_BUDGET_S = 5.0

#: An end-to-end run measures for ``--seconds`` and at least
#: ``MIN_CALLS`` calls, so the call time it reports is a median.
MIN_CALLS = 3

#: Runs and wall budget of the traced figures run's ``jobs=2``
#: diagnostic.
JOBS2_RUNS = 3
JOBS2_BUDGET_S = 20.0

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}

PER_LAYER = [
    "host.calibration_s",
    "tracing.overhead_s",
    "topology.build_s",
    "workload.generate_s",
    "workload.requests",
    "workload.updates",
    "landmarks.select_s",
    "landmarks.probes",
    "probing.features_s",
    "probing.probes_sent",
    "probing.pairs_measured",
    "clustering.kmeans_s",
    "clustering.iterations",
    "analysis.gicost_s",
    "simulator.run_s",
    "simulator.events",
    "simulator.local_hits",
    "simulator.group_hits",
    "simulator.origin_fetches",
    "simulator.query_messages",
    "simulator.placement_skips",
    "simulator.coop_hit_ratio",
    "simulator.barriers",
    "simulator.requests_per_slice",
    "simulator.invalidation_messages",
    *[
        f"experiments.{fig}_s"
        for fig in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                    "figR")
    ],
    *[
        f"experiments.{phase}_s"
        for phase in ("testbed", "landmarks", "features", "cluster",
                      "simulate", "other")
    ],
    "runtime.tasks",
    "runtime.busy_s",
    "runtime.queue_wait_max_s",
    "runtime.straggler_ratio",
    "runtime.retries",
    "runtime.testbed_cache_hits",
    "runtime.testbed_cache_misses",
    "runtime.testbed_cache_hit_ratio",
    "runtime.jobs2_fig7_s",
    "runtime.jobs2_fig7_max_s",
    "runtime.jobs2_efficiency",
]

#: Units of the per-layer metrics, by name suffix (default: count).
_UNITS = (("_s", "s"), ("_ratio", "ratio"), ("_efficiency", "ratio"))


def unit_of(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def calibrate(rounds: int = 5, n: int = 1_000_000) -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed now."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(n):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_metadata(seed: int) -> Dict[str, Any]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("name")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
        "calibration_s": calibrate(),
    }


class Checker:
    """Counts attempted and failed calls; compares fingerprints to the pin.

    With a pinned value every call must reproduce it; without one every
    call must reproduce the first call's fingerprint.
    """

    def __init__(self, workload: Any, pinned: Any) -> None:
        self.workload = workload
        self.reference = pinned
        self.pinned = pinned is not None
        self.attempted = 0
        self.failed = 0

    def run(
        self, call: Callable[[], Any], inputs: Any, compare: bool = True
    ) -> Tuple[Any, float]:
        """Time ``call()``, check its output; returns (output, seconds).

        ``compare=False`` checks only the output's invariants, for a call
        that is not the workload's call (a smaller warm-up).
        """
        self.attempted += 1
        # The previous call's garbage is collected here, not in this call.
        gc.collect()
        start = time.perf_counter()
        try:
            out = call()
        except Exception:  # a crashing call is a failed operation
            seconds = time.perf_counter() - start
            self.failed += 1
            traceback.print_exc()
            return None, seconds
        seconds = time.perf_counter() - start
        try:
            digest = self.workload.fingerprint(inputs, out)
        except Exception as exc:  # noqa: BLE001 - any check failure counts
            self.failed += 1
            print(f"check failed: {exc}", file=sys.stderr)
            return out, seconds
        if not compare:
            return out, seconds
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.failed += 1
            print(
                f"check failed: {self.workload.name} output differs from "
                f"{'its pin' if self.pinned else 'the first call'}",
                file=sys.stderr,
            )
        return out, seconds


def _build(workload: Any, seed: int, tracer: Any = None) -> Tuple[Any, float]:
    gc.collect()
    start = time.perf_counter()
    inputs = workload.build(seed, tracer)
    return inputs, time.perf_counter() - start


def _warm_up(workload: Any, inputs: Any, checker: Checker) -> float:
    _, seconds = checker.run(
        lambda: workload.warmup(inputs), inputs,
        compare=workload.warmup_is_call,
    )
    return seconds


def end_to_end(
    workload: Any, seed: int, seconds: float, checker: Checker
) -> Dict[str, float]:
    builds: List[float] = []
    while len(builds) < SETUPS and sum(builds) < SETUP_BUDGET_S:
        inputs = None  # free the previous inputs before building again
        inputs, took = _build(workload, seed)
        builds.append(took)
    warmup_s = _warm_up(workload, inputs, checker)
    durations: List[float] = []
    start = time.perf_counter()
    while (
        len(durations) < MIN_CALLS or time.perf_counter() - start < seconds
    ):
        _, took = checker.run(lambda: workload.call(inputs), inputs)
        durations.append(took)
    call_s = statistics.median(durations)
    return {
        "setup_s": statistics.median(builds) + warmup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "call_s": call_s,
        "items_per_s": workload.items(inputs) / call_s,
        "calls": float(len(durations)),
        "builds_s": builds,
        "warmup_s": warmup_s,
        "durations_s": durations,
    }


def traced(
    workload: Any, seed: int, seconds: float, checker: Checker,
    calibration_s: float,
) -> Tuple[Dict[str, float], Any]:
    from tracing import Tracer

    tracer = Tracer()
    inputs, _ = _build(workload, seed, tracer)
    _warm_up(workload, inputs, checker)
    per_call: List[Dict[str, float]] = []
    traced_s: List[float] = []
    untraced_s: List[float] = []
    start = time.perf_counter()
    while (
        not traced_s or not untraced_s
        or time.perf_counter() - start < seconds
    ):
        if len(traced_s) <= len(untraced_s):
            with tracer.call(workload.name) as root:
                out, _ = checker.run(
                    lambda: workload.call(inputs, tracer), inputs
                )
            traced_s.append(root.duration)
            metrics = _span_metrics(tracer, root.call_id)
            if out is not None:
                metrics.update(workload.layer_metrics(inputs, out))
            per_call.append(metrics)
        else:
            _, took = checker.run(lambda: workload.call(inputs), inputs)
            untraced_s.append(took)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(_span_metrics(tracer, None))
    for name in {key for call in per_call for key in call}:
        metrics[name] = statistics.median(
            call.get(name, 0.0) for call in per_call
        )
    metrics["host.calibration_s"] = calibration_s
    metrics["tracing.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(untraced_s)
    )
    return metrics, tracer


def _span_metrics(tracer: Any, call_id: Optional[int]) -> Dict[str, float]:
    """Per-layer times and counts of one call's spans (None: set-up)."""
    metrics: Dict[str, float] = {}
    for s in tracer.spans:
        is_root = s.parent is None and call_id is not None
        if s.call_id != call_id or is_root:
            continue
        name = f"{s.name}_s"
        metrics[name] = metrics.get(name, 0.0) + s.duration
        layer = s.name.split(".")[0]
        for key, value in s.counts.items():
            count = f"{layer}.{key}"
            metrics[count] = metrics.get(count, 0.0) + float(value)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workload = workloads.make_workloads(OUT_DIR)[args.workload]
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    checker = Checker(
        workload, pins.get(args.workload, {}).get(str(args.seed))
    )

    meta = run_metadata(args.seed)
    meta.update(workload=args.workload, trace=args.trace,
                pinned=checker.reference is not None)
    print(json.dumps({"meta": meta}, sort_keys=True), flush=True)

    record_path = (
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    if args.trace:
        values, tracer = traced(
            workload, args.seed, args.seconds, checker, meta["calibration_s"]
        )
        if isinstance(workload, workloads.FiguresWorkload):
            values.update(workload.jobs2_diagnostic(
                workload.build(args.seed), JOBS2_BUDGET_S, JOBS2_RUNS
            ))
        metrics = {name: values[name] for name in PER_LAYER}
        units = {name: unit_of(name) for name in PER_LAYER}
        tracer.dump(record_path, {"meta": meta, "metrics": metrics})
    else:
        values = end_to_end(workload, args.seed, args.seconds, checker)
        units = E2E_UNITS
        metrics = {name: values[name] for name in units}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        record_path.write_text(
            json.dumps({"meta": meta, "metrics": values}, indent=1) + "\n",
            encoding="utf-8",
        )
        print(
            f"{args.workload} seed={args.seed}: "
            + "  ".join(f"{n}={metrics[n]:.6g} {units[n]}" for n in units)
            + f"  ({workload.item} per second; median of "
            f"{values['calls']:.0f} timed calls of {values['call_s']:.3f} s)",
            flush=True,
        )
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
