"""Records the benchmark's baseline in ``perfbench/baseline.json``.

    python3 perfbench/record_baseline.py --commit <sha of the measured sources>

For every workload in BENCHMARK.json it runs the benchmark untraced and traced, one run at a
time, on the default seed and on the held-out seed, and stores every metric
with the Python version, ``nproc``, the commit and the workload parameters.
A later claim of a gain must hold on both seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform

import program
from spread import run

program.use_checkout_sources()

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED, HELD_OUT_SEED = 0, 9001


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--commit", required=True)
    a = ap.parse_args()
    bench = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    out = {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": a.commit,
           "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
           "run_seconds": bench["run_seconds"], "workloads": {}}
    for wl in (WORKLOADS[w["name"]] for w in bench["workloads"]):
        runs = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                r = run(wl.name, seed, bench["run_seconds"], trace)
                print(wl.name, seed, trace, "exit", r["exit"], "correct", r.get("correct"))
                runs[f"seed{seed}-trace{trace}"] = r
        out["workloads"][wl.name] = {"why": wl.why, "params": wl.params(), "runs": runs}
    path = program.ROOT / "perfbench" / "baseline.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote", path.relative_to(program.ROOT))


if __name__ == "__main__":
    main()
