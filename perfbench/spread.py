"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads sim-read,formation --seeds 1-10

Each (workload, seed) runs ``perfbench/run.py`` in its own process, one
after another.  For every end-to-end metric the report gives the median
of the runs and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound from ``BENCHMARK.json``.
It also gives the wall time of every run, so the cost of a full set of
runs can be checked against the time the benchmark is allowed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report: Dict[str, Dict[str, object]] = {}
    for workload in args.workloads.split(","):
        values: Dict[str, List[float]] = {}
        walls: List[float] = []
        failed = 0
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                failed += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            rows[name] = {
                "median": median,
                "spread": (q3 - q1) / median if median else float("nan"),
                "values": series,
            }
        report[workload] = {
            "failed": failed, "walls_s": walls, "metrics": rows
        }
        print(f"{workload}: {len(walls)} runs, failed={failed}, wall "
              f"median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, row in rows.items():
            bound = bounds.get(name)
            target = f"  (bound/3 {bound / 3:.3f})" if bound else ""
            print(f"  {name:<28} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.3f}{target}")
        sys.stdout.flush()
    out = ROOT / ".perfbench_out" / f"spread-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
