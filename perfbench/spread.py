"""Run-to-run spread of the end-to-end metrics, as the acceptance check sees it.

    python3 perfbench/spread.py --workload lazy-linear --seeds 10 [--sets 2]

Runs the benchmark once per seed (1..N), one run at a time, and prints for
every end-to-end metric the median of the N values, the distance between
their first and third quartiles as a share of the median, and that spread
against the metric's bound in BENCHMARK.json. With ``--sets 2`` it repeats
the N runs and also prints how far the second median moved from the first.
Raw results are appended to ``perfbench/out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from program import ROOT


def run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark run in a child process; its result line plus exit code."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
    result = json.loads(last) if last.startswith("{") else {}
    result["exit"] = done.returncode
    return result


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    a = ap.parse_args()
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    medians: list[dict[str, float]] = []
    for s in range(a.sets):
        values: dict[str, list[float]] = {}
        for seed in range(1, a.seeds + 1):
            r = run(a.workload, seed, bench["run_seconds"])
            with open(out / "spread.jsonl", "a") as fh:
                fh.write(json.dumps({"workload": a.workload, "set": s, "seed": seed, **r}) + "\n")
            if r["exit"] != 0 or not r.get("correct"):
                print(f"seed {seed}: exit {r['exit']}, correct={r.get('correct')}")
            for k, v in r.get("metrics", {}).items():
                values.setdefault(k, []).append(v["value"])
        medians.append({})
        print(f"{a.workload} set {s}: {a.seeds} seeds")
        for m in bench["end_to_end"]:
            xs = values.get(m["name"], [])
            if len(xs) < 2:
                print(f"  {m['name']:18s} missing")
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            medians[-1][m["name"]] = med
            spread = (q3 - q1) / med
            flag = "ok" if spread < m["bound"] / 3 else ("WIDE" if spread > m["bound"] else "over 1/3")
            print(f"  {m['name']:18s} median {med:12.6g}  spread {spread:7.4f}  bound {m['bound']}  {flag}")
    for m in bench["end_to_end"]:
        name = m["name"]
        if len(medians) > 1 and all(name in md for md in medians):
            first, second = medians[0][name], medians[-1][name]
            worse = (second - first) / first * (1 if m["better"] == "lower" else -1)
            print(f"  {name:18s} second median worse by {worse:+.4f} (bound {m['bound']})")


if __name__ == "__main__":
    main()
