"""deamort benchmark: experiments through ``run_experiment``, timed and checked.

    python3 perfbench/run.py --workload online-uniform --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

The load is a closed loop in this one process: one experiment at a time and,
inside it, one access at a time. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs untraced and traced rounds of the same inputs and
reports the per-layer metrics and what the tracing costs. Every experiment
must pass ``run_experiment``'s own trace verification, and wrapped chains
must also pass ``Simulator.check_state`` and the frozen depth bound; every
model-op result and layer counter must repeat exactly for the same input,
traced or not. Any failure makes ``correct`` false and the exit code 1.

A run repeats rounds of a workload's batch of sub-experiments (one per
sub-seed) until ``--seconds`` is spent. End-to-end metrics (``--trace 0``):

    setup_s           gen_sequence + build_chain; median of every experiment's
                      set-up and of the set-up-only repetitions that follow
                      each experiment
    wall_s            one whole run_experiment; median over experiments
    accesses_per_s    m / time of the access loop (end of build_chain to the
                      start of verify_trace); median over experiments
    access_p50_us,    nearest-rank percentiles of the times of every call
    access_p99_us     run_experiment makes into the chain's access, pooled
                      per round; median over rounds
    peak_rss_mb       ru_maxrss of a fresh child running sub-experiment 0
    ops_per_access    sum of total_ops / sum of m over the batch
    worst_access_ops  max per_access_max over the batch
    ratio_vs_raw      sum of total_ops / sum of baseline_total over the batch
    max_depth         mean max_depth_observed over the batch, less its
                      highest and lowest eighth

Per-layer metrics (``--trace 1``) are per traced round: span times and call
counts summed over the round's sub-experiments (medians over rounds for
times), counters summed, maxima taken. Poptart calls count only inside the
access loop; on lazy-linear they include the pushes of lazy restructuring,
whose scratch-engine weight recursion runs inside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from time import perf_counter

import program

program.use_checkout_sources()

from harness import Hooks, Outcome  # noqa: E402
from tracing import APPLY_VIRTUAL, SpanRecorder, class_spans, summarize  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# set-up-only repetitions after each experiment, beyond the one the
# experiment gives: at least one, then more until SETUP_SHARE of the
# experiment's wall time is spent, at most MAX_SETUPS
SETUP_SHARE, MAX_SETUPS = 0.05, 50
CHILD_TIMEOUT_S = 150
ACTIONS = ("B", "BC", "AB", "ABC", "AC")  # routine sets the online transform can run


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def nearest_rank(sorted_xs: list[float], p: float) -> float:
    return sorted_xs[min(len(sorted_xs) - 1, max(0, round(p * len(sorted_xs)) - 1))]


class Report:
    """Metrics of one run, their printed form and the gate results."""

    def __init__(self, wl: Workload, seed: int, trace: bool):
        self.metrics: dict[str, dict] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        mode = "traced" if trace else "untraced"
        print(f"# perfbench {wl.name} seed={seed} {mode}  {json.dumps(wl.params())}")

    def add(self, name: str, value, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:>16.6g} {unit:10s} {note}")

    def timing(self, name: str, xs: list[float], unit: str) -> None:
        q1, med, q3 = quartiles(xs)
        self.add(name, med, unit, f"median; quartiles {q1:.6g} .. {q3:.6g}; n={len(xs)}")

    def count(self, outcomes: list[Outcome]) -> None:
        self.attempted += len(outcomes)
        for o in outcomes:
            if not o.ok:
                self.failed += 1
                self.problems.append(f"sub-experiment {o.j}: " + "; ".join(o.problems[:5]))

    def expect_same(self, what: str, a, b) -> None:
        if a != b:
            self.problems.append(f"determinism: {what} differ")

    def result(self) -> dict:
        for p in self.problems:
            print(f"FAIL {p}")
        print(f"# {self.failed} of {self.attempted} experiments failed a check")
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def run_rounds(deadline: float, run_round) -> int:
    """Runs ``run_round(r)`` for r = 0, 1, ... while another round of the
    length of the longest so far still ends before ``deadline``."""
    r, longest = 0, 0.0
    while True:
        t = perf_counter()
        run_round(r)
        longest = max(longest, perf_counter() - t)
        r += 1
        if perf_counter() + longest > deadline:
            return r


def check_repeats(rep: Report, outcomes: list[Outcome]) -> dict[int, dict]:
    """The first signature per sub-experiment; later ones must match it."""
    first: dict[int, dict] = {}
    for o in outcomes:
        if not o.ok:
            continue
        if o.j in first:
            rep.expect_same(f"model-op results of sub-experiment {o.j}", first[o.j], o.signature)
        else:
            first[o.j] = o.signature
    return first


def run_child(wl: Workload, seed: int) -> dict:
    cmd = [sys.executable, str(program.ROOT / "perfbench" / "rss_child.py"),
           "--workload", wl.name, "--seed", str(seed), "--sub", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=program.ROOT)
    if done.returncode != 0:
        return {"problems": [f"child exited {done.returncode}: {done.stderr.strip()[-400:]}"]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(wl: Workload, seed: int, seconds: float) -> dict:
    rep = Report(wl, seed, trace=False)
    deadline = perf_counter() + seconds
    child = run_child(wl, seed)
    rep.attempted += 1
    if child["problems"]:
        rep.failed += 1
        rep.problems.append("peak-RSS child: " + "; ".join(child["problems"][:5]))
    rounds: list[list[Outcome]] = []
    setups: list[float] = []
    with Hooks() as hooks:
        def one_round(r: int) -> None:
            outs = []
            for j in range(wl.batch):
                o = hooks.run(j, wl.experiment_args(seed, j))
                outs.append(o)
                if o.ok:
                    setups.append(o.setup_s)
                # set-up-only repetitions between experiments, so that set-up
                # times sample the whole run and not one stretch of it
                t = perf_counter()
                for _ in range(MAX_SETUPS):
                    setups.append(hooks.setup_only(wl.experiment_args(seed, j)))
                    if perf_counter() - t > SETUP_SHARE * o.wall_s:
                        break
            rounds.append(outs)

        run_rounds(deadline, one_round)
    outcomes = [o for outs in rounds for o in outs]
    rep.count(outcomes)
    sigs = check_repeats(rep, outcomes)
    if "signature" in child and 0 in sigs:
        rep.expect_same("model-op results of the peak-RSS child and sub-experiment 0",
                        json.loads(json.dumps(sigs[0])), child["signature"])
    ok = [o for o in outcomes if o.ok]
    if not ok or len(sigs) < wl.batch:
        rep.problems.append("no complete batch of passing experiments")
        return rep.result()
    print(f"# {len(rounds)} round(s) of {wl.batch} sub-experiments")
    rep.timing("setup_s", setups, "s")
    rep.timing("wall_s", [o.wall_s for o in ok], "s")
    rep.timing("accesses_per_s", [o.m / o.loop_s for o in ok], "1/s")
    # percentiles of each round's pooled access times, then their median over
    # rounds, so a burst of load from outside slows one round's tail only
    pooled = [sorted(x for o in outs if o.ok for x in o.latencies) for outs in rounds]
    n = len(pooled[0])
    for p in (50, 99):
        rep.timing(f"access_p{p}_us", [1e6 * nearest_rank(lat, p / 100) for lat in pooled], "us")
    print(f"# access percentiles per round: n={n}, {n - round(0.99 * n)} samples beyond p99")
    if "maxrss_kb" in child:
        rep.add("peak_rss_mb", child["maxrss_kb"] / 1024, "MB", "ru_maxrss of a fresh child, sub 0")
    batch = [sigs[j] for j in range(wl.batch)]
    m_total = wl.m * wl.batch
    rep.add("ops_per_access", sum(s["total_ops"] for s in batch) / m_total, "ops",
            f"total_ops / m over the batch of {wl.batch}")
    rep.add("worst_access_ops", max(s["per_access_max"] for s in batch), "ops", "max per_access_max")
    rep.add("ratio_vs_raw", sum(s["total_ops"] for s in batch) / sum(s["baseline_total"] for s in batch),
            "ratio", "total_ops / baseline_total")
    # a trimmed mean, not the maximum: on lazy-linear per-experiment depth
    # maxima spread from 20 to 43, and a first access that leaves the lazy
    # tree unrestructured reads n - 1, so the batch maximum or plain mean
    # would follow a rare sub-experiment from seed to seed
    depths = sorted(s["max_depth_observed"] for s in batch)
    cut = wl.batch // 8
    rep.add("max_depth", statistics.mean(depths[cut:len(depths) - cut]), "count",
            f"mean max_depth_observed without the {cut} highest and {cut} lowest")
    return rep.result()


def layer_values(summary: dict, outs: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced round: span times and calls are
    totals over the round's sub-experiments, counters are summed, maxima
    are maxima."""
    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    sigs = [o.signature for o in outs]
    sims = [s["sim"] for s in sigs if "sim" in s]
    online = [s["online"] for s in sigs if "online" in s]
    inter = [s["interleave"] for s in sigs if "interleave" in s]
    vops = sum(c["virtual_ops"] for c in sims)
    phys = sum(c["physical_ops"] for c in sims)
    verify_s = span("model.verify", "total_s")
    trace_ops = sum(o.trace_ops for o in outs)
    sim_self = span(APPLY_VIRTUAL, "self_s")
    v = {
        "sequences.gen_s": span("sequences.gen", "total_s"),
        "experiments.build_chain_s": span("experiments.build_chain", "total_s"),
        "experiments.baseline_s": span("experiments.baseline", "total_s"),
        "model.verify_s": verify_s,
        "model.verify_ops_per_s": trace_ops / verify_s,
        "model.trace_ops": trace_ops,
        "model.trace_bytes": max(o.trace_bytes for o in outs),
        "algorithms.access_calls": span("algorithms.access", "calls"),
        "algorithms.self_s": span("algorithms.access", "self_s"),
        "simulation.setup_s": span("simulation.setup", "total_s"),
        "simulation.virtual_ops": vops,
        "simulation.self_s": sim_self,
        "simulation.us_per_virtual_op": 1e6 * sim_self / vops if vops else 0.0,
        "simulation.phys_per_virtual": phys / vops if vops else 0.0,
        "simulation.restructure_ops": sum(c["restructure_ops"] for c in sims),
        "simulation.restructure_s": summary["restructure"]["total_s"],
        "simulation.max_height": max((c["max_height"] for c in sims), default=0),
        "poptart.push_calls": span("poptart.push", "loop_calls"),
        "poptart.pop_calls": span("poptart.pop", "loop_calls"),
        "poptart.self_s": span("poptart.push", "loop_self_s") + span("poptart.pop", "loop_self_s"),
        "transforms.online.self_s": span("transforms.online.access", "self_s"),
        "transforms.online.queue_s": span("transforms.online.queue", "total_s"),
        "transforms.online.max_queue": max((c["max_queue"] for c in online), default=0),
        "transforms.online.restarts": sum(c["restarts"] for c in online),
        "transforms.online.max_access_ops": max((c["max_access_ops"] for c in online), default=0),
    }
    for a in ACTIONS:
        v[f"transforms.online.actions.{a}"] = sum(c["actions"].get(a, 0) for c in online)
    online_phys = sum(s["sim"]["physical_ops"] for s in sigs if "online" in s)
    v["transforms.online.overhead_ratio"] = (
        sum(c["total_ops"] for c in online) / online_phys if online_phys else 0.0)
    v["transforms.interleave.self_s"] = span("transforms.interleave.access", "self_s")
    v["transforms.interleave.forced_accesses"] = sum(c["forced_accesses"] for c in inter)
    v["transforms.interleave.max_segment"] = max((c["max_segment"] for c in inter), default=0)
    original = sum(c["original_ops"] for c in inter)
    v["transforms.interleave.overhead_ratio"] = (
        sum(c["total_ops"] for c in inter) / original if original else 0.0)
    return v


def span_counts(summary: dict) -> dict:
    return {k: (row["calls"], row.get("loop_calls")) for k, row in summary.items()}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_virtual_op"):
        return "us"
    if name.endswith(("_ratio", "phys_per_virtual")):
        return "ratio"
    if name == "model.trace_bytes":
        return "B-computed"  # sys.getsizeof of the op list, not a measured RSS
    return "count"


def traced(wl: Workload, seed: int, seconds: float) -> dict:
    rep = Report(wl, seed, trace=True)
    deadline = perf_counter() + seconds
    plain: list[Outcome] = []
    rounds: list[tuple[SpanRecorder, list[Outcome]]] = []

    def one_round(r: int) -> None:
        for with_spans in ((False, True) if r % 2 == 0 else (True, False)):
            args = [wl.experiment_args(seed, j) for j in range(wl.trace_batch)]
            if with_spans:
                rec = SpanRecorder()
                with Hooks(rec) as hooks, class_spans(rec):
                    rounds.append((rec, [hooks.run(j, a) for j, a in enumerate(args)]))
            else:
                with Hooks() as hooks:
                    plain.extend(hooks.run(j, a) for j, a in enumerate(args))

    n_rounds = run_rounds(deadline, one_round)
    traced_outs = [o for _, outs in rounds for o in outs]
    rep.count(plain + traced_outs)
    plain_sigs = check_repeats(rep, plain)
    traced_sigs = check_repeats(rep, traced_outs)
    for j in plain_sigs.keys() & traced_sigs.keys():
        rep.expect_same(f"traced and untraced model-op results of sub-experiment {j}",
                        plain_sigs[j], traced_sigs[j])
    if rep.failed or len(traced_sigs) < wl.trace_batch:
        rep.problems.append("no complete traced round of passing experiments")
        return rep.result()
    per_round = []
    for rec, outs in rounds:
        summary = summarize(rec)
        vops = sum(o.signature.get("sim", {}).get("virtual_ops", 0) for o in outs)
        if summary.get(APPLY_VIRTUAL, {}).get("calls", 0) != vops:
            rep.problems.append("traced apply_virtual calls differ from the virtual_ops counter")
        values = layer_values(summary, outs)
        online = sum(1 for o in outs if "online" in o.signature)
        if sum(values[f"transforms.online.actions.{a}"] for a in ACTIONS) != wl.m * online:
            rep.problems.append("online requests ran a routine set outside " + "/".join(ACTIONS))
        per_round.append((span_counts(summary), values))
    for counts, _ in per_round[1:]:
        rep.expect_same("span counts of traced rounds", per_round[0][0], counts)
    print(f"# {n_rounds} round(s) of {wl.trace_batch} untraced + {wl.trace_batch} traced "
          f"sub-experiments; {sum(len(rec) for rec, _ in rounds)} spans")
    first = per_round[0][1]
    for name, value in first.items():
        if unit_of(name) in ("s", "1/s", "us"):
            rep.timing(name, [vals[name] for _, vals in per_round], unit_of(name))
        else:
            rep.add(name, value, unit_of(name))
    plain_wall = statistics.median(o.wall_s for o in plain)
    traced_wall = statistics.median(o.wall_s for o in traced_outs)
    rep.add("trace.overhead_s", traced_wall - plain_wall, "s",
            f"median traced wall_s {traced_wall:.6g} - untraced {plain_wall:.6g}")
    rep.add("trace.spans", len(rounds[0][0]), "count", "spans in one traced round")
    out_dir = program.ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{wl.name}.spans"  # one file per workload, replaced by the next traced run
    with open(path, "wb") as fh:
        for rec, _ in rounds:
            rec.write(fh)
    print(f"# spans written to {path.relative_to(program.ROOT)}")
    return rep.result()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    results = {n: (traced if a.trace else end_to_end)(WORKLOADS[n], a.seed, a.seconds)
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:  # metric names prefixed with their workload
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
