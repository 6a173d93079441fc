"""Experiment execution: generate, run, verify, report.

An experiment builds a start tree, instantiates an algorithm and an optional
transform chain, feeds it a generated sequence, then replays the recorded
trace through the model verifier before any report is emitted. A failed
verification raises; reports are only produced for runs whose traces are
proven to realize their sequences.
"""

from __future__ import annotations

from typing import Sequence

from .algorithms import OnlineBstAlgorithm, make_algorithm
from .model import ModelTree, ShapeSpec, verify_trace
from .optsearch import OPT_MAX_M, OPT_MAX_N, opt_bruteforce
from .reports import CostReport, cost_histogram
from .sequences import SequenceSpec, gen_sequence
from .simulation import Simulator, wrap
from .transforms import OnlineWorstCaseAlgorithm, interleave_transform, online_transform

CHAINS = ("none", "wrap", "wrap+interleave", "wrap+online")


class VerificationFailure(RuntimeError):
    def __init__(self, report):
        self.report = report
        super().__init__(
            f"trace rejected: {report.reason} (failing op index {report.failure_index})")


def build_chain(algo_id: str, chain: str, tree: ModelTree,
                weights=None, lazy: bool = False) -> OnlineBstAlgorithm:
    if chain not in CHAINS:
        raise ValueError(f"unknown chain {chain!r}, have {CHAINS}")
    alg = make_algorithm(algo_id, tree)
    if chain == "none":
        return alg
    wrapped = wrap(alg, weights=weights, lazy=lazy)
    if chain == "wrap":
        return wrapped
    if chain == "wrap+interleave":
        return interleave_transform(wrapped)
    return online_transform(wrapped)


def run_accesses(alg: OnlineBstAlgorithm, seq: Sequence[int]) -> int:
    """Access the keys of ``seq`` in turn; returns the greatest tree height
    seen, read after every access when the tree is a simulator, whose
    heights are exact and cost a read, else every ``len(seq) // 64``
    accesses, and once at the end."""
    tree = alg.tree
    probe = 1 if isinstance(tree, Simulator) else max(1, len(seq) // 64)
    max_depth = 0
    for i, k in enumerate(seq):
        alg.access(k)
        if i % probe == 0:
            h = tree.height()
            if h > max_depth:
                max_depth = h
    return max(max_depth, tree.height())


def run_experiment(algo_id: str, chain: str, spec: SequenceSpec,
                   shape: ShapeSpec = "balanced", weights=None,
                   lazy: bool = False) -> CostReport:
    seq = gen_sequence(spec)
    alg = build_chain(algo_id, chain, ModelTree.new_tree(spec.n, shape), weights, lazy)
    t0 = alg.tree.copy()
    max_depth = run_accesses(alg, seq)
    trace = alg.trace
    rep = verify_trace(t0, trace, seq, boundaries=trace.boundaries)
    if not rep.valid:
        raise VerificationFailure(rep)
    costs = rep.per_access_cost
    baseline_total = trace.cost
    if chain != "none":
        base_alg = make_algorithm(algo_id, ModelTree.new_tree(spec.n, shape))
        baseline_total = sum(base_alg.access(k) for k in seq)
    opt_cost = None
    ratio_opt = None
    if spec.n <= OPT_MAX_N and len(seq) <= OPT_MAX_M:
        opt_cost = opt_bruteforce(t0, seq)
        ratio_opt = (trace.cost / opt_cost) if opt_cost else None
    counters = alg.counters if isinstance(alg, OnlineWorstCaseAlgorithm) else None
    return CostReport(
        algorithm=algo_id,
        chain=chain,
        n=spec.n,
        m=spec.m,
        seq_kind=spec.kind,
        seed=spec.seed,
        total_ops=trace.cost,
        per_access_max=max(costs) if costs else 0,
        per_access_histogram=cost_histogram(costs),
        max_depth_observed=max_depth,
        ratio_vs_baseline=(trace.cost / baseline_total) if baseline_total else 1.0,
        baseline_total=baseline_total,
        ratio_vs_opt=ratio_opt,
        opt_cost=opt_cost,
        action_histogram=dict(counters.actions) if counters else None,
        max_queue=counters.max_queue if counters else None,
        restructure_ops=alg.tree.counters.restructure_ops if isinstance(alg.tree, Simulator) else 0,
    )
