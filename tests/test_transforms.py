import math
import random

import pytest

from deamort.algorithms import SplayAlgorithm, StaticAlgorithm
from deamort.model import BstOp, ModelTree, Trace, verify_trace
from deamort.simulation import wrap
from deamort.transforms import (
    GuaranteeViolation,
    InterleaveConfig,
    InterleavedAlgorithm,
    OnlineWorstCaseAlgorithm,
    WorkQueue,
    interleave_transform,
    online_transform,
)

ACTION_TYPES = {"AB", "ABC", "AC", "B", "BC"}


def test_interleave_identity_on_immediate_access():
    # an input that reaches every key within its stream emits unchanged ops
    n = 7
    plain = StaticAlgorithm(ModelTree.new_tree(n, "balanced"))
    inner = StaticAlgorithm(ModelTree.new_tree(n, "balanced"))
    a2 = interleave_transform(inner, InterleaveConfig(c=27))
    for k in (1, 5, 3, 7, 2):
        want = plain.access(k)
        got = a2.access(k)
        assert got.ops == want.ops
    assert a2.forced_accesses == 0


def test_interleave_hard_cap_and_factor():
    rng = random.Random(4)
    n = 64
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-right")))
    a2 = interleave_transform(w)
    t0 = a2.tree.copy()
    full = Trace()
    seq = []
    for i in range(500):
        k = rng.randint(1, n) if i % 4 else (i % n) + 1
        seq.append(k)
        full.extend(a2.access(k))
    cap = 3 * a2.cfg.c * math.log2(n)
    assert a2.max_segment <= cap
    assert a2.total_ops <= 3 * a2.original_ops
    rep = verify_trace(t0, full, seq, boundaries=full.boundaries)
    assert rep.valid, rep.reason
    for c in rep.per_access_cost:
        assert c <= cap


def test_interleave_forces_overdue_accesses():
    # sequential scans on a wrapped splay include long stretches of stream
    # work; the transform must keep every segment within the cap anyway
    n = 128
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-left")))
    a2 = interleave_transform(w)
    for k in list(range(1, n + 1)) + list(range(n, 0, -1)):
        a2.access(k)
    assert a2.max_segment <= 3 * a2.cfg.c * math.log2(n)


def test_interleave_guard_trips_on_false_pledge():
    # claiming a tiny c makes the budget unreachably small; the guard must
    # fire rather than let an oversized segment pass silently
    n = 64
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-right")))
    a2 = interleave_transform(w, InterleaveConfig(c=0.05))
    with pytest.raises(GuaranteeViolation):
        for k in range(1, n + 1):
            a2.access(k)


def test_workqueue_fifo_and_cost():
    t = ModelTree.new_tree(31, "balanced")
    q = WorkQueue(t)
    bound = 6 * (math.log2(31) + 1)
    for k in (4, 9, 2):
        ops = q.enqueue(k)
        assert len(ops) <= bound
        assert t.finger == t.root
    got = []
    while len(q):
        k, ops = q.dequeue()
        got.append(k)
        assert len(ops) <= bound
    assert got == [4, 9, 2]


def test_workqueue_cells_survive_rotations():
    t = ModelTree.new_tree(15, "balanced")
    q = WorkQueue(t)
    q.enqueue(3)
    q.enqueue(11)
    # reshape the tree arbitrarily; cells are addressed by key
    alg = SplayAlgorithm(t)
    alg.access(3)
    alg.access(14)
    assert t.finger == t.root
    assert q.dequeue()[0] == 3
    assert q.dequeue()[0] == 11


def test_workqueue_overflow_guard():
    t = ModelTree.new_tree(3, "balanced")
    q = WorkQueue(t)
    for k in (1, 2, 3):
        q.enqueue(k)
    with pytest.raises(GuaranteeViolation):
        q.enqueue(1)


def test_workqueue_walk_off_root_guard():
    t = ModelTree.new_tree(7, "balanced")
    q = WorkQueue(t)
    t.apply_op(BstOp.LEFT)
    with pytest.raises(GuaranteeViolation, match="starts at finger 2, not at the root 4"):
        q.enqueue(5)


def test_workqueue_duplicate_keys_get_distinct_hosts():
    t = ModelTree.new_tree(5, "balanced")
    q = WorkQueue(t)
    q.enqueue(2)
    q.enqueue(2)
    q.enqueue(2)
    assert len(q.cells) == 3
    assert [q.dequeue()[0] for _ in range(3)] == [2, 2, 2]


def test_online_worst_case_run():
    rng = random.Random(8)
    n = 128
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-right")))
    a3 = online_transform(w)
    t0 = a3.tree.copy()
    full = Trace()
    seq = []
    for i in range(800):
        k = rng.randint(1, n) if i % 3 else (i * 7 % n) + 1
        seq.append(k)
        full.extend(a3.access(k))
    c = a3.counters
    assert c.max_access_ops <= a3._cap
    assert c.max_queue <= n
    assert set(c.actions) <= ACTION_TYPES
    rep = verify_trace(t0, full, seq, boundaries=full.boundaries)
    assert rep.valid, rep.reason


def test_online_fast_input_never_queues():
    # an input already answering within f(n) keeps the queue empty
    n = 32
    w = wrap(StaticAlgorithm(ModelTree.new_tree(n, "balanced")))
    a3 = online_transform(w, f_bound=lambda n: 200.0 * math.log2(n))
    for k in (5, 1, 30, 16, 5, 9):
        a3.access(k)
    assert a3.counters.max_queue <= 1
    assert set(a3.counters.actions) <= {"B", "BC", "AB", "ABC", "AC"}
    assert a3.counters.actions.get("B", 0) >= 5


def test_online_charging_against_executed_work():
    rng = random.Random(10)
    n = 64
    raw_total = 0
    raw = SplayAlgorithm(ModelTree.new_tree(n, "balanced"))
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "balanced")))
    a3 = online_transform(w)
    total = 0
    for i in range(600):
        k = rng.randint(1, n)
        raw_total += raw.access(k).cost
        total += a3.access(k).cost
        bound = 64 * max(raw_total, 1) + 64 * n * a3.f_n
        assert total <= bound
    assert total <= 64 * raw_total


def test_online_boundary_realizes_each_access():
    rng = random.Random(12)
    n = 16
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-left")))
    a3 = online_transform(w)
    t0 = a3.tree.copy()
    full = Trace()
    seq = [rng.randint(1, n) for _ in range(120)]
    for k in seq:
        full.extend(a3.access(k))
    assert verify_trace(t0, full, seq, boundaries=full.boundaries).valid


def test_online_prefix_property_of_transforms():
    s = [3, 1, 7, 5, 2, 6]
    for make in (
        lambda: interleave_transform(wrap(SplayAlgorithm(ModelTree.new_tree(7, "balanced")))),
        lambda: online_transform(wrap(SplayAlgorithm(ModelTree.new_tree(7, "balanced")))),
    ):
        prev = []
        for i in range(1, len(s) + 1):
            alg = make()
            ops = []
            for k in s[:i]:
                ops.extend(alg.access(k).ops)
            assert ops[: len(prev)] == prev
            prev = ops
