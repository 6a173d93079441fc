"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances and constants are pinned here from the frozen constants
file, never recalibrated at test time.
"""

import math
import random
import time

import pytest

from deamort.algorithms import SplayAlgorithm, StaticAlgorithm, make_algorithm
from deamort.constants import FROZEN
from deamort.experiments import build_chain
from deamort.model import ModelTree, verify_trace
from deamort.optsearch import enumerate_realizations, enumerate_shapes, opt_bruteforce
from deamort.poptart import PopTartLeaf, VanillaPopTart, make_poptart
from deamort.sequences import SequenceSpec, gen_sequence
from deamort.simulation import wrap
from deamort.transforms import interleave_transform, online_transform

DEPTH_MULT = FROZEN["SIM_DEPTH_MULT"]
DEPTH_ADD = FROZEN["SIM_DEPTH_ADD"]
SLACK = 4.0  # fixed additive slack absorbing discrete-depth corner effects


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok


def test_criterion_1_chocolate_depth_bound():
    t0 = time.time()
    rng = random.Random(20260808)
    violations = 0
    max_excess = float("-inf")
    max_stack = 0

    def script(length, push_bias):
        nonlocal violations, max_excess, max_stack
        pt = make_poptart("chocolate")
        live = nid = 0
        for _ in range(length):
            if live and rng.random() > push_bias:
                pt.pop()
                live -= 1
            else:
                nid += 1
                pt.push(PopTartLeaf(nid, 10.0 ** rng.uniform(0.0, 6.0)))
                live += 1
            if live:
                excess = pt.max_leaf_slack() - (6 + 7 * math.log2(pt.total_weight()))
                if excess > max_excess:
                    max_excess = excess
                if excess > SLACK + 1e-9:
                    violations += 1
            if live > max_stack:
                max_stack = live

    for _ in range(9990):
        script(rng.randint(2, 44), 0.62)
    for _ in range(8):
        script(600, 0.7)
    script(20000, 0.995)
    script(20000, 0.62)
    elapsed = time.time() - t0
    _report(
        1, violations == 0 and elapsed < 60 and max_stack >= 10_000,
        f"chocolate leaf depth <= 6+7*log2(W/w)+{SLACK:g} on 10^4 scripts "
        f"(stack sizes to {max_stack}); zero violations, max excess over the "
        f"bare constant {max_excess:.2f}, {elapsed:.1f}s")


def test_criterion_2_vanilla_depth_exact():
    rng = random.Random(7)
    checks = 0
    for trial in range(300):
        pt = VanillaPopTart()
        total = 0.0
        for i in range(rng.randint(1, 30)):
            w = 1.0 if not total else total * (1.0 + rng.random())
            pt.push(PopTartLeaf(i, w))
            total += w
            depths = pt.leaf_depths()
            W = math.fsum(lw for lw, _ in depths)
            for lw, d in depths:
                assert d <= 1 + math.log2(W / lw) + 1e-9
                checks += 1
        while len(pt) > 1:
            pt.pop()
            depths = pt.leaf_depths()
            W = math.fsum(lw for lw, _ in depths)
            for lw, d in depths:
                assert d <= 1 + math.log2(W / lw) + 1e-9
                checks += 1
    _report(2, checks > 10_000,
            f"vanilla leaf depth <= 1+log2(W/w) exactly under the doubling "
            f"precondition; {checks} leaf checks, zero violations")


def test_criterion_3_poptart_costs():
    rng = random.Random(11)
    m = 100_000
    for kind in ("cherry", "chocolate"):
        pt = make_poptart(kind)
        oracle = []
        total = nid = 0
        worst_ok = True
        for _ in range(m):
            if oracle and rng.random() < 0.48:
                rec, cost = pt.pop()
                assert rec.id == oracle.pop()
            else:
                nid += 1
                w = 1.0 if kind == "cherry" else 10.0 ** rng.uniform(0, 6)
                cost = pt.push(PopTartLeaf(nid, w))
                oracle.append(nid)
            total += cost
            cap = FROZEN["C_WC"] * math.log2(max(len(pt), 2)) + FROZEN["C_WC"]
            if cost > cap:
                worst_ok = False
        amortized_ok = total <= FROZEN["C_AM"] * m + FROZEN["C_AM_ADD"]
        assert worst_ok and amortized_ok, (kind, total / m)
    _report(3, True,
            f"cherry and chocolate stay LIFO-correct over m={m} ops with "
            f"total <= {FROZEN['C_AM']:g}*m+{FROZEN['C_AM_ADD']:g} and "
            f"single ops <= {FROZEN['C_WC']:g}*log2(size)+{FROZEN['C_WC']:g}")


def test_criterion_4_simulation_depth():
    t0 = time.time()
    rng = random.Random(4)
    # exhaustive validation of the frozen constants on every shape, n <= 8
    for n in range(1, 9):
        shapes = enumerate_shapes(n)
        for parents in shapes:
            for Alg in (SplayAlgorithm, StaticAlgorithm):
                w = wrap(Alg(ModelTree.new_tree(n, parents)))
                assert not w.sim.depth_bound_violations(DEPTH_MULT, DEPTH_ADD)
                for _ in range(3):
                    w.access(rng.randint(1, n))
                    assert not w.sim.depth_bound_violations(DEPTH_MULT, DEPTH_ADD)
    exhaustive_t = time.time() - t0
    worst = {}
    for Alg, shape in ((SplayAlgorithm, "linear-right"), (StaticAlgorithm, "balanced")):
        for n in (16, 64, 256, 1024):
            bound = DEPTH_MULT * math.log2(n) + DEPTH_ADD
            w = wrap(Alg(ModelTree.new_tree(n, shape)))
            hmax = 0
            for _ in range(20 * n):
                w.access(rng.randint(1, n))
                h = w.tree.hgt[w.tree.root]
                if h > hmax:
                    hmax = h
                assert h <= bound, (Alg.__name__, n, h, bound)
            worst[(Alg.__name__, n)] = hmax
    elapsed = time.time() - t0
    _report(4, elapsed < 120,
            f"physical height <= 13*log2(n)+14 at every boundary; exhaustive "
            f"n<=8 shapes in {exhaustive_t:.1f}s, sweeps n=16..1024 with "
            f"m=20n (worst height {max(worst.values())} at n=1024, bound "
            f"{DEPTH_MULT * 10 + DEPTH_ADD:.0f}); total {elapsed:.1f}s < 120s")


def test_criterion_5_simulation_cost_ratio():
    n = 1024
    marks = (5 * n, 10 * n, 20 * n)
    results = {}
    for kind in ("sequential", "uniform", "zipf", "bit-reversal"):
        seq = gen_sequence(SequenceSpec(kind, n, marks[-1], seed=5))
        w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "balanced")))
        ratios = []
        for i, k in enumerate(seq, start=1):
            w.access(k)
            if i in marks:
                ratios.append(w.trace.cost / w.sim.counters.virtual_ops)
        assert all(r <= FROZEN["C_SIM"] for r in ratios), (kind, ratios)
        assert ratios[1] <= ratios[0] * 1.1, (kind, ratios)
        assert ratios[2] <= ratios[1] * 1.1, (kind, ratios)
        results[kind] = ratios[-1]
    _report(5, True,
            "physical/virtual cost ratio bounded by "
            f"{FROZEN['C_SIM']:g} and flat beyond m=5n (final ratios: "
            + ", ".join(f"{k}={v:.2f}" for k, v in results.items()) + ")")


def test_criterion_6_interleave_guarantees():
    rng = random.Random(6)
    worst_ratio = 0.0
    for n in (64, 256):
        cap = 3 * FROZEN["INTERLEAVE_C"] * math.log2(n)
        for kind in ("uniform", "sequential", "zipf"):
            seq = gen_sequence(SequenceSpec(kind, n, 6 * n, seed=rng.randint(0, 99)))
            a2 = interleave_transform(wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-right"))))
            t0 = a2.tree.copy()
            for k in seq:
                a2.access(k)
            rep = verify_trace(t0, a2.trace, seq, boundaries=a2.trace.boundaries)
            assert rep.valid, rep.reason
            assert max(rep.per_access_cost) <= cap
            assert a2.max_segment <= cap
            assert a2.total_ops <= FROZEN["INTERLEAVE_FACTOR"] * a2.original_ops
            worst_ratio = max(worst_ratio, a2.total_ops / a2.original_ops)
    _report(6, True,
            f"every access segment within 3*c*log2(n) (c={FROZEN['INTERLEAVE_C']:g}, "
            f"hard assertion) and totals within 3x (worst measured {worst_ratio:.3f})")


def test_criterion_7_online_worst_case():
    rng = random.Random(77)
    n = 1024
    m = 100_000
    seq = []
    i = 0
    while len(seq) < m:
        mode = rng.random()
        if mode < 0.4:
            seq.extend(rng.randint(1, n) for _ in range(100))
        elif mode < 0.7:
            start = rng.randint(1, n)
            seq.extend(((start + j) % n) + 1 for j in range(100))
        else:
            seq.extend(gen_sequence(SequenceSpec("bit-reversal", n, 100, seed=i)))
        i += 1
    seq = seq[:m]

    raw = SplayAlgorithm(ModelTree.new_tree(n, "linear-right"))
    raw_total = sum(map(raw.access, seq))

    a3 = online_transform(wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-right"))))
    total = sum(map(a3.access, seq))
    c = a3.counters
    cap = FROZEN["ONLINE_K"] * math.log2(n)
    assert c.max_access_ops <= cap
    assert c.max_queue <= n
    assert set(c.actions) <= {"AB", "ABC", "AC", "B", "BC"}
    assert total <= FROZEN["ONLINE_K_PRIME"] * raw_total
    _report(7, True,
            f"per-access <= K*log2(n) hard ({c.max_access_ops} vs {cap:.0f}), "
            f"max queue {c.max_queue} <= n, actions {sorted(c.actions)}, "
            f"total/raw = {total / raw_total:.1f} <= {FROZEN['ONLINE_K_PRIME']:g}")


def test_criterion_8_opt_oracle_equivalence():
    import itertools

    checked = 0
    for n in range(1, 5):
        for parents in enumerate_shapes(n):
            t0 = ModelTree.new_tree(n, parents)
            for m in (1, 2, 3):
                for s in itertools.product(range(1, n + 1), repeat=m):
                    best = opt_bruteforce(t0, list(s))
                    assert enumerate_realizations(t0, list(s), best) == best
                    if best:
                        assert enumerate_realizations(t0, list(s), best - 1) == -1
                    checked += 1
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 4)
        parents = rng.choice(list(enumerate_shapes(n)))
        s = [rng.randint(1, n) for _ in range(3)]
        best = opt_bruteforce(ModelTree.new_tree(n, parents), s)
        for algo in ("splay", "mtr", "static"):
            for chain in ("none", "wrap", "wrap+interleave", "wrap+online"):
                alg = build_chain(algo, chain, ModelTree.new_tree(n, parents))
                cost = sum(map(alg.access, s))
                assert cost >= best, (algo, chain, cost, best)
    _report(8, True,
            f"exact search equals exhaustive enumeration on {checked} instances "
            f"(all shapes and sequences, n<=4, m<=3); no algorithm or chain "
            f"ever beat the optimum")


def test_criterion_9_scanning():
    per_key = {}
    for n in (256, 1024, 4096):
        alg = SplayAlgorithm(ModelTree.new_tree(n, "balanced"))
        per_key[n] = sum(map(alg.access, range(1, n + 1))) / n
    vals = list(per_key.values())
    assert all(v <= FROZEN["C_SCAN"] for v in vals), per_key
    assert max(vals) <= min(vals) * 1.1, per_key
    _report(9, True,
            "sequential scan cost per key "
            + ", ".join(f"n={n}: {v:.2f}" for n, v in per_key.items())
            + f" <= {FROZEN['C_SCAN']:g} with spread within 10%")


def test_criterion_10_full_pipeline_realization():
    rng = random.Random(10)
    makers = {
        "A": lambda n, shape: make_algorithm("splay", ModelTree.new_tree(n, shape)),
        "A'": lambda n, shape: wrap(SplayAlgorithm(ModelTree.new_tree(n, shape))),
        "A''": lambda n, shape: interleave_transform(
            wrap(SplayAlgorithm(ModelTree.new_tree(n, shape)))),
        "A'''": lambda n, shape: online_transform(
            wrap(SplayAlgorithm(ModelTree.new_tree(n, shape)))),
    }
    shapes = ("balanced", "linear-left", "linear-right")
    for name, make in makers.items():
        for trial in range(100):
            n = rng.randint(4, 32)
            shape = shapes[trial % 3]
            alg = make(n, shape)
            t0 = alg.tree.copy()
            seq = [rng.randint(1, n) for _ in range(25)]
            for k in seq:
                alg.access(k)
            rep = verify_trace(t0, alg.trace, seq, boundaries=alg.trace.boundaries)
            assert rep.valid, (name, trial, rep.reason)
    _report(10, True,
            "verify accepted the emitted traces of A, A', A'', A''' on 100 "
            "randomized instances each")
