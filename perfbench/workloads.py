"""The benchmark's workloads and the inputs each one derives from a seed.

Every workload runs splay through ``deamort.experiments.run_experiment``.
One run of a workload covers a fixed batch of sub-experiments whose
sequences (and weights) come from sub-seeds of the run's ``--seed``; the
model-op metrics are aggregated over that batch, so a single unlucky key
(the first access of a lazy run, say) does not decide a run's figures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from deamort.sequences import SequenceSpec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    chain: str
    seq: str
    n: int
    m: int
    batch: int  # sub-experiments per untraced round
    trace_batch: int  # sub-experiments per traced round (a prefix of the batch)
    shape: str = "balanced"
    lazy: bool = False
    weighted: bool = False

    def sub_seed(self, seed: int, j: int) -> int:
        return seed * 1000 + j

    def weights(self, sub_seed: int) -> Optional[list[float]]:
        """exp(U(0, 12)) weights, the spread used by the simulation tests."""
        if not self.weighted:
            return None
        rng = random.Random(f"{sub_seed}:weights")
        return [math.exp(rng.uniform(0, 12)) for _ in range(self.n)]

    def experiment_args(self, seed: int, j: int) -> dict:
        """Keyword arguments of ``run_experiment`` for sub-experiment j."""
        sub = self.sub_seed(seed, j)
        return dict(algo_id="splay", chain=self.chain,
                    spec=SequenceSpec(self.seq, self.n, self.m, sub),
                    shape=self.shape, weights=self.weights(sub), lazy=self.lazy)

    def params(self) -> dict:
        return dict(algo="splay", chain=self.chain, seq=self.seq, n=self.n, m=self.m,
                    shape=self.shape, lazy=self.lazy,
                    weights="exp(U(0,12))" if self.weighted else "unit",
                    batch=self.batch, trace_batch=self.trace_batch)


WORKLOADS = {w.name: w for w in (
    Workload(
        "online-uniform",
        "the paper's main de-amortized pipeline; time goes to simulation/poptart "
        "translation and model verification",
        chain="wrap+online", seq="uniform", n=1024, m=2000, batch=3, trace_batch=3),
    # n=1024, not 4096: one experiment then takes about 0.3 s on two shared
    # cores, so a run times some eighty of them instead of a handful
    Workload(
        "lazy-linear",
        "lazy restructuring of a linear-right start dominates; the only workload "
        "on the scratch-engine restructure path",
        chain="wrap", seq="uniform", n=1024, m=64, batch=16, trace_batch=4,
        shape="linear-right", lazy=True),
    Workload(
        "raw-zipf",
        "raw splay only: model, algorithms and verify; the largest trace in memory, "
        "bypassing every simulator change",
        chain="none", seq="zipf:1.2", n=65536, m=50000, batch=2, trace_batch=2),
    Workload(
        "weighted-interleave",
        "the only non-unit-weight and only interleave run; exact-weight arithmetic "
        "shows here and not on online-uniform",
        chain="wrap+interleave", seq="working-set:64", n=1024, m=2000, batch=4,
        trace_batch=4, weighted=True),
)}
