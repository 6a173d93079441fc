"""Runs one sub-experiment of a workload in a fresh process and prints its
peak RSS, gate problems and model-op signature as one JSON line.

    python3 perfbench/rss_child.py --workload raw-zipf --seed 0 --sub 0
"""

from __future__ import annotations

import argparse
import json
import resource

import program

program.use_checkout_sources()

from harness import Hooks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sub", type=int, default=0)
    a = ap.parse_args()
    with Hooks() as hooks:
        out = hooks.run(a.sub, WORKLOADS[a.workload].experiment_args(a.seed, a.sub))
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      "problems": out.problems, "signature": out.signature}))


if __name__ == "__main__":
    main()
