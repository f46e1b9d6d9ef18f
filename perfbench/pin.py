"""Recompute the pinned output fingerprints from the current code.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --workloads sim-update,formation --seeds 0-20

Each (workload, seed) is built and called once; its fingerprint is
merged into ``perfbench/pins.json``.  ``run.py`` then requires every
call on a pinned seed to reproduce it.  Re-pin only for a change that
is meant to alter the program's outputs, and say so in its description.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from spread import parse_seeds  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    parser.add_argument("--seeds", default="0-20")
    args = parser.parse_args()
    path = HERE / "pins.json"
    pins = json.loads(path.read_text(encoding="utf-8"))
    registry = workloads.make_workloads(HERE.parent / ".perfbench_out")
    for name in args.workloads.split(","):
        workload = registry[name]
        for seed in parse_seeds(args.seeds):
            inputs = workload.build(seed)
            digest = workload.fingerprint(inputs, workload.call(inputs))
            pins.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed={seed}: {digest}", flush=True)
            path.write_text(
                json.dumps(pins, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
