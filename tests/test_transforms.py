import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from deamort.algorithms import (
    MoveToRootAlgorithm,
    OnlineBstAlgorithm,
    SplayAlgorithm,
    StaticAlgorithm,
)
from deamort.constants import FROZEN
from deamort.model import BstOp, ModelTree, verify_trace
from deamort.optsearch import insertion_shape
from deamort.sequences import SequenceSpec, gen_sequence
from deamort.simulation import wrap
from deamort.transforms import (
    GuaranteeViolation,
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
    a2 = interleave_transform(inner)
    for k in (1, 5, 3, 7, 2):
        assert a2.access(k) == plain.access(k)
    assert a2.trace == plain.trace
    assert a2.forced_accesses == 0


def test_interleave_hard_cap_and_factor():
    rng = random.Random(4)
    n = 64
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-right")))
    a2 = interleave_transform(w)
    t0 = a2.tree.copy()
    seq = []
    for i in range(500):
        k = rng.randint(1, n) if i % 4 else (i % n) + 1
        seq.append(k)
        a2.access(k)
    cap = 3 * FROZEN["INTERLEAVE_C"] * math.log2(n)
    assert a2.max_segment <= cap
    assert a2.total_ops <= FROZEN["INTERLEAVE_FACTOR"] * a2.original_ops
    rep = verify_trace(t0, a2.trace, seq, boundaries=a2.trace.boundaries)
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
    assert a2.max_segment <= 3 * FROZEN["INTERLEAVE_C"] * math.log2(n)


def test_interleave_guard_trips_on_false_pledge():
    # a static walk on a linear tree breaks the depth pledge: its one burst
    # to key n is n-1 = 1023 ops, over the cap 3*27*log2(1024) = 810. The
    # guard must fire rather than let the oversized segment pass silently
    a2 = interleave_transform(StaticAlgorithm(ModelTree.new_tree(1024, "linear-right")))
    with pytest.raises(GuaranteeViolation, match="segment of 1023 ops exceeds"):
        a2.access(1024)


class _MissesKey(OnlineBstAlgorithm):
    """A stream that ends without ever moving the finger to the key."""

    def access_stream(self, key):
        yield 0, True


class _NeverFinishes(OnlineBstAlgorithm):
    """A stream that steps down and back up from the root forever."""

    def access_stream(self, key):
        t = self.tree
        while True:
            t.apply_op(BstOp.LEFT)
            t.apply_op(BstOp.PARENT)
            self.trace.ops.extend((BstOp.LEFT, BstOp.PARENT))
            yield 2, False


class _DetoursFirst(StaticAlgorithm):
    """Bursts of L P round trips from the root, then the walk to the key.
    ``detours`` gives per key the ops of each round-trip burst, the last
    entry being the round trips that share the last burst with the walk. A
    round trip leaves the tree as it was, so it is appended without being
    applied."""

    def __init__(self, tree, detours):
        super().__init__(tree)
        self.detours = detours

    def _round_trips(self, ops):
        self.trace.ops.extend([BstOp.LEFT, BstOp.PARENT] * (ops // 2))
        return ops

    def access_stream(self, key):
        *bursts, last = self.detours.get(key, [0])
        for ops in bursts:
            yield self._round_trips(ops), False
        yield self._round_trips(last) + self.serve(key), True


@pytest.mark.parametrize("transform", [interleave_transform, online_transform],
                         ids=["interleave", "online"])
def test_stream_that_never_reaches_the_key_trips(transform):
    alg = transform(_MissesKey(ModelTree.new_tree(7, "balanced")))
    with pytest.raises(GuaranteeViolation, match="ended with the finger on 4, not on the key"):
        alg.access(3)


def test_online_request_over_the_cap_trips():
    # 900 burst ops, then routine C enqueues key 1 into a cell at the key,
    # written by its direct search to depth 2: 902 ops against K*log2(7) = 898.4
    trips = math.ceil(FROZEN["ONLINE_K"] * math.log2(7) / 2)  # just past the cap
    a3 = online_transform(_DetoursFirst(ModelTree.new_tree(7, "balanced"), {1: [2 * trips, 0]}))
    with pytest.raises(GuaranteeViolation, match=r"request cost 902 exceeds K\*f\(n\) = 898\.4"):
        a3.access(1)


def test_online_stream_ending_exactly_on_f_n_runs_routine_b_alone():
    # f(16) = 4: a round trip and the walk to key 2 at depth 2 spend B's
    # budget exactly with the stream's last burst, so the request is served
    # by B; no cell is queued and no direct search follows
    t0 = ModelTree.new_tree(16, "balanced")
    a3 = online_transform(_DetoursFirst(t0.copy(), {2: [2]}))
    assert a3.access(2) == 4
    assert a3.counters.actions == {"B": 1}
    assert not len(a3.queue) and a3.tree.finger == 2 and not a3._pending_up
    assert verify_trace(t0, a3.trace, [2], boundaries=a3.trace.boundaries).valid


def test_online_stream_ending_exactly_on_a_budget_is_dequeued_at_once():
    # the root's stream spends f(16) = 4 in routine B and is queued; in the
    # next request its last two bursts spend routine A's d*f(n) exactly, so
    # A dequeues it then and B serves the new key
    budget = int(FROZEN["ONLINE_D"] * math.log2(16))
    t0 = ModelTree.new_tree(16, "balanced")
    a3 = online_transform(_DetoursFirst(t0.copy(), {8: [2, 2, budget - 64, 64]}))
    a3.access(8)
    assert a3.counters.actions == {"BC": 1} and len(a3.queue) == 1
    a3.access(4)
    assert a3.counters.actions == {"BC": 1, "AB": 1}
    assert not len(a3.queue) and a3._proc is None
    assert verify_trace(t0, a3.trace, [8, 4], boundaries=a3.trace.boundaries).valid


def test_online_stream_that_never_finishes_overflows_the_queue():
    # every request enqueues its key; the request after n of them overflows
    n = 16
    a3 = online_transform(_NeverFinishes(ModelTree.new_tree(n, "balanced")))
    for k in range(1, n + 1):
        a3.access(k)
    assert len(a3.queue) == n
    with pytest.raises(GuaranteeViolation, match="queue overflow with 16 cells"):
        a3.access(1)


def test_workqueue_fifo_and_cost():
    t = ModelTree.new_tree(31, "balanced")
    q = WorkQueue(t)
    bound = FROZEN["C_QUEUE"] * (math.log2(31) + 1)
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
    q.enqueue(6)
    t.apply_op(BstOp.LEFT)
    with pytest.raises(GuaranteeViolation, match="starts at finger 2, not at the root 4"):
        q.enqueue(5)
    with pytest.raises(GuaranteeViolation, match="queue walk to 6 starts at finger 2"):
        q.dequeue()


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
    seq = []
    for i in range(800):
        k = rng.randint(1, n) if i % 3 else (i * 7 % n) + 1
        seq.append(k)
        a3.access(k)
    c = a3.counters
    assert c.max_access_ops <= a3._cap
    assert c.max_queue <= n
    assert set(c.actions) <= ACTION_TYPES
    rep = verify_trace(t0, a3.trace, seq, boundaries=a3.trace.boundaries)
    assert rep.valid, rep.reason


def test_online_fast_input_never_queues():
    # every walk is shorter than f(n) = log2(32), so routine B answers each
    # request alone and the queue stays empty
    n = 32
    a3 = online_transform(StaticAlgorithm(ModelTree.new_tree(n, "balanced")))
    for k in (16, 8, 4, 8, 16, 24, 28, 24):
        a3.access(k)
    assert a3.counters.actions == {"B": 8}
    assert a3.counters.max_queue == 0


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
        raw_total += raw.access(k)
        total += a3.access(k)
        bound = 64 * max(raw_total, 1) + 64 * n * a3.f_n
        assert total <= bound
    assert total <= 64 * raw_total


def test_online_boundary_realizes_each_access():
    rng = random.Random(12)
    n = 16
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-left")))
    a3 = online_transform(w)
    t0 = a3.tree.copy()
    seq = [rng.randint(1, n) for _ in range(120)]
    for k in seq:
        a3.access(k)
    assert verify_trace(t0, a3.trace, seq, boundaries=a3.trace.boundaries).valid


def test_online_prefix_property_of_transforms():
    s = [3, 1, 7, 5, 2, 6]
    for make in (
        lambda: interleave_transform(wrap(SplayAlgorithm(ModelTree.new_tree(7, "balanced")))),
        lambda: online_transform(wrap(SplayAlgorithm(ModelTree.new_tree(7, "balanced")))),
    ):
        prev = bytearray()
        for i in range(1, len(s) + 1):
            alg = make()
            for k in s[:i]:
                alg.access(k)
            assert alg.trace.ops[: len(prev)] == prev
            prev = alg.trace.ops


class _HostWalkQueue(WorkQueue):
    """Routine C's enqueue as a walk of its own to the new cell's host, even
    when the host is the key that C's direct search then reaches: the
    reference for writing that cell during the search. ``saved`` is the
    length of the last such walk to the key; ``elsewhere`` counts the cells
    whose host is not their key."""

    def __init__(self, tree):
        super().__init__(tree)
        self.saved = 0
        self.elsewhere = 0

    def enqueue(self, key):
        host = self._free_host(key)
        ops = bytearray()
        if self.tail:
            qk, _ = self.cells[self.tail]
            ops += self._walk(self.tail)
            self.cells[self.tail] = (qk, host)
        walk = self._walk(host)
        ops += walk
        if host == key:
            self.saved = len(walk)
        else:
            self.elsewhere += 1
        self.cells[host] = (key, 0)
        self.tail = host
        if not self.head:
            self.head = host
        return ops


def _run_both_queues(algo, n, shape, weights, lazy, keys):
    """Run ``wrap+online`` over ``algo`` twice, with the cell at the key
    written by routine C's search and with the host-walk reference. After
    every request both runs hold the same physical tree, queue and action
    counts, and the new request's ops are the reference's without the walk
    to a host that is the key. Returns the number of cells hosted
    elsewhere."""
    make = {"splay": SplayAlgorithm, "mtr": MoveToRootAlgorithm}[algo]
    new, ref = (online_transform(wrap(make(ModelTree.new_tree(n, shape)), weights, lazy))
                for _ in range(2))
    ref.queue = _HostWalkQueue(ref.tree)
    t0 = new.tree.copy()
    for k in keys:
        ref.queue.saved = 0
        a, b = len(new.trace.ops), len(ref.trace.ops)
        new.access(k)
        ref.access(k)
        # the saved walk goes down to the key and back just before C's search down
        d = ref.queue.saved // 2
        want = ref.trace.ops[b:]
        if d:
            want = want[:-3 * d] + want[-d:]
        assert new.trace.ops[a:] == want
        s, r = new.tree, ref.tree
        assert (s.left, s.right, s.parent, s.root) == (r.left, r.right, r.parent, r.root)
        q, rq = new.queue, ref.queue
        assert (q.cells, q.head, q.tail) == (rq.cells, rq.head, rq.tail)
        assert new.counters.actions == ref.counters.actions
    for alg in (new, ref):
        rep = verify_trace(t0, alg.trace, keys, boundaries=alg.trace.boundaries)
        assert rep.valid, rep.reason
    return ref.queue.elsewhere


def _repeated_keys(rng, n, m):
    keys = []
    while len(keys) < m:
        keys += [rng.randint(1, n)] * rng.randint(1, 6)
    return keys[:m]


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("kind", ["unit", "exp"])
@pytest.mark.parametrize("algo", ["splay", "mtr"])
@given(data=st.data(), n=st.integers(2, 48), seed=st.integers(0, 2**16),
       seq=st.sampled_from(["uniform", "working-set:4", "repeated"]),
       shape=st.sampled_from(["balanced", "linear-right", "insertion"]))
@settings(max_examples=12, deadline=None)
def test_cell_at_the_key_is_written_by_the_direct_search(algo, kind, lazy, data, n, seed, seq,
                                                         shape):
    """Writing routine C's new cell during its direct search changes no
    tree, queue or routine choice; each request only loses the round trip
    to a host that is the key, and both traces verify."""
    if shape == "insertion":
        shape = insertion_shape(data.draw(st.permutations(range(1, n + 1))))
    weights = None
    if kind == "exp":
        weights = data.draw(st.lists(st.floats(0, 12).map(math.exp), min_size=n, max_size=n))
    m = 40
    if seq == "repeated":
        keys = _repeated_keys(random.Random(seed), n, m)
    else:
        keys = gen_sequence(SequenceSpec(seq, n, m, seed))
    _run_both_queues(algo, n, shape, weights, lazy, keys)


@pytest.mark.parametrize("algo", ["splay", "mtr"])
def test_cell_reference_reaches_a_host_that_is_not_the_key(algo):
    """A key requested again while its first cell still waits gets a cell
    hosted elsewhere, and routine C still walks to that host."""
    keys = _repeated_keys(random.Random(3), 128, 60)
    assert _run_both_queues(algo, 128, "linear-right", None, True, keys) > 0
