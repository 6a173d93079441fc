import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from deamort.algorithms import MoveToRootAlgorithm, SplayAlgorithm, StaticAlgorithm
from deamort.constants import FROZEN
from deamort.model import BstOp, ModelTree, verify_trace
from deamort.experiments import build_chain, run_experiment
from deamort.optsearch import enumerate_shapes, insertion_shape
from deamort.poptart import ChocolatePopTart
from deamort.sequences import SequenceSpec
from deamort.simulation import (
    Simulator,
    VirtualTree,
    WrappedAlgorithm,
    decode_virtual,
    dump_state,
    wrap,
)

DEPTH_MULT, DEPTH_ADD = FROZEN["SIM_DEPTH_MULT"], FROZEN["SIM_DEPTH_ADD"]
C_RESTRUCTURE = FROZEN["C_RESTRUCTURE"]


def _vt(n, shape="balanced", weights=None):
    return VirtualTree(ModelTree.new_tree(n, shape), weights)


def test_heavy_path_linear_right_single_path():
    vt = _vt(4, "linear-right")
    path = [vt.root]
    while vt.solid(path[-1]):
        path.append(vt.solid(path[-1]))
    assert path == [1, 2, 3, 4]


def test_heavy_path_tie_goes_left():
    vt = _vt(3, "balanced")
    assert vt.solid(2) == 1


def test_heavy_path_weighted_pulls_right():
    vt = _vt(3, "balanced", weights=[1, 1, 100])
    assert vt.solid(2) == 3


@pytest.mark.parametrize("weights,reason", [
    ([1.0, 1.0], "need 3 weights, got 2"),
    ([1.0, 0.0, 1.0], "weights must be positive"),
    ([1.0, -2.0, 1.0], "weights must be positive"),
    ([1.0, math.nan, 1.0], "weights must be positive"),
    ([1.0, math.inf, 1.0], "weights must be finite"),
    # each is finite, their sum is not
    ([1e308, 1e308, 1.0], "weights must be finite"),
    # an int no float can hold
    ([1, 10**400, 1], "weights must be finite"),
], ids=["count", "zero", "negative", "nan", "inf", "overflowing-sum", "huge-int"])
def test_bad_weights_are_refused(weights, reason):
    # an infinite total weight would make the depth audit bound nothing
    with pytest.raises(ValueError, match=reason):
        wrap(StaticAlgorithm(ModelTree.new_tree(3, "balanced")), weights)


def test_simulator_needs_the_virtual_finger_on_the_root():
    t = ModelTree.new_tree(3, "balanced")
    t.apply_op(BstOp.LEFT)
    with pytest.raises(ValueError, match="initial layout needs the virtual finger on the root"):
        Simulator(VirtualTree(t))


def test_build_chain_refuses_an_unknown_chain():
    with pytest.raises(ValueError, match="unknown chain 'wrap\\+nothing'"):
        build_chain("splay", "wrap+nothing", ModelTree.new_tree(3, "balanced"))


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("chain", ["wrap", "wrap+interleave", "wrap+online"])
def test_every_layer_of_a_wrapped_chain_has_the_simulator_as_its_tree(chain, lazy):
    """The physical tree is one object: the simulator, a ``ModelTree``,
    shared as ``tree`` by the wrapped layer and any transform over it."""
    alg = build_chain("splay", chain, ModelTree.new_tree(15, "balanced"), lazy=lazy)
    sim = alg.tree
    assert isinstance(sim, Simulator) and isinstance(sim, ModelTree)
    wrapped = alg if chain == "wrap" else alg.inner
    assert isinstance(wrapped, WrappedAlgorithm)
    assert wrapped.tree is sim and wrapped.sim is sim
    assert sim.height() == sim.hgt[sim.root] and sim.copy().check_bst()


def test_a_raw_chain_tree_is_not_a_simulator():
    alg = build_chain("splay", "none", ModelTree.new_tree(15, "balanced"))
    assert not isinstance(alg.tree, Simulator)


def test_build_single_node():
    sim = Simulator(_vt(1))
    assert sim.n == 1 and sim.root == 1


def test_build_linear_right_one_heavy_path():
    n = 9
    sim = Simulator(_vt(n, "linear-right"))
    # path end n becomes the block root under the virtual root's right slot
    assert sim.root == 1
    assert sim.hgt[sim.root] <= DEPTH_MULT * math.log2(n) + DEPTH_ADD
    assert not sim.depth_bound_violations(DEPTH_MULT, DEPTH_ADD)
    assert not sim.check_state()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 10])
def test_build_all_or_random_shapes_depth(n):
    rng = random.Random(n)
    shapes = list(enumerate_shapes(n)) if n <= 6 else [
        _random_parents(n, rng) for _ in range(120)
    ]
    for parents in shapes:
        vt = VirtualTree(ModelTree.new_tree(n, parents))
        sim = Simulator(vt)
        assert not sim.depth_bound_violations(DEPTH_MULT, DEPTH_ADD)
        errs = sim.check_state()
        assert not errs, (n, parents, errs)


def _random_parents(n, rng):
    keys = list(range(1, n + 1))
    rng.shuffle(keys)
    return insertion_shape(keys)


def test_build_weighted_depth_bound():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randint(2, 12)
        parents = _random_parents(n, rng)
        weights = [math.exp(rng.uniform(0, 12)) for _ in range(n)]
        vt = VirtualTree(ModelTree.new_tree(n, parents), weights)
        sim = Simulator(vt)
        assert not sim.depth_bound_violations(DEPTH_MULT, DEPTH_ADD), (n, parents)


def test_exhaustive_small_shapes_full_audit():
    rng = random.Random(0)
    for n in range(1, 7):
        for parents in enumerate_shapes(n):
            for Alg in (SplayAlgorithm, StaticAlgorithm):
                w = wrap(Alg(ModelTree.new_tree(n, parents)))
                t0 = w.tree.copy()
                seq = [rng.randint(1, n) for _ in range(2 * n + 2)]
                for k in seq:
                    w.access(k)
                    errs = w.sim.check_state()
                    assert not errs, (n, parents, Alg.__name__, errs)
                    assert w.tree.finger == w.tree.root
                    vl, vr, _ = decode_virtual(w.sim)
                    assert vl == w.sim.vt.left and vr == w.sim.vt.right
                    assert w.sim.vt.left == w.inner.tree.left
                    assert w.sim.vt.right == w.inner.tree.right
                    assert not w.sim.depth_bound_violations(DEPTH_MULT, DEPTH_ADD)
                rep = verify_trace(t0, w.trace, seq, boundaries=w.trace.boundaries)
                assert rep.valid, rep.reason


def _assert_heights_exact(tree: ModelTree) -> None:
    """The heights kept up rotation by rotation match a fresh recompute."""
    fresh = tree.copy()
    fresh._recompute_heights()
    assert tree.hgt == fresh.hgt


def test_wrapped_mtr_random_audit():
    rng = random.Random(9)
    w = wrap(MoveToRootAlgorithm(ModelTree.new_tree(40, "linear-left")))
    t0 = w.tree.copy()
    seq = [rng.randint(1, 40) for _ in range(300)]
    for k in seq:
        w.access(k)
        _assert_heights_exact(w.tree)
    assert not w.sim.check_state()
    assert not w.sim.depth_bound_violations(DEPTH_MULT, DEPTH_ADD)
    assert verify_trace(t0, w.trace, seq, boundaries=w.trace.boundaries).valid


def test_wrap_depth_sweep_medium():
    rng = random.Random(11)
    for n in (16, 64):
        bound = DEPTH_MULT * math.log2(n) + DEPTH_ADD
        w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-right")))
        for _ in range(6 * n):
            w.access(rng.randint(1, n))
            assert w.tree.hgt[w.tree.root] <= bound


def test_wrap_single_key_world():
    w = wrap(SplayAlgorithm(ModelTree.new_tree(1)))
    for _ in range(3):
        assert w.access(1) == 0


def test_wrap_online_prefix_property():
    s = [3, 1, 7, 5, 3, 2, 6, 4]
    prev = bytearray()
    for i in range(1, len(s) + 1):
        w = wrap(SplayAlgorithm(ModelTree.new_tree(7, "balanced")))
        for k in s[:i]:
            w.access(k)
        assert w.trace.ops[: len(prev)] == prev
        prev = w.trace.ops


def test_weighted_wrap_depth_everywhere():
    rng = random.Random(3)
    n = 32
    weights = [math.exp(rng.uniform(0, 10)) for _ in range(n)]
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-right")), weights=weights)
    for _ in range(200):
        w.access(rng.randint(1, n))
        assert not w.sim.depth_bound_violations(DEPTH_MULT, DEPTH_ADD)
    assert not w.sim.check_state()


def test_cost_ratio_plateaus():
    n = 128
    ratios = []
    for m in (5 * n, 10 * n, 20 * n):
        rng2 = random.Random(7)
        w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "balanced")))
        for _ in range(m):
            w.access(rng2.randint(1, n))
        ratios.append(w.trace.cost / w.sim.counters.virtual_ops)
    assert ratios[1] <= ratios[0] * 1.1
    assert ratios[2] <= ratios[1] * 1.1


def test_cumulative_cost_invariant():
    rng = random.Random(19)
    n = 64
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "linear-right")))
    for _ in range(8 * n):
        w.access(rng.randint(1, n))
        c = w.sim.counters
        assert w.trace.cost <= FROZEN["C_SIM"] * c.virtual_ops + FROZEN["C_SIM"] * n


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "int-ties"])
@pytest.mark.parametrize("shape", ["balanced", "linear-right", "linear-left"])
def test_lazy_mode_equivalence_and_depth(shape, weighted):
    rng = random.Random(13)
    n = 24
    weights = [rng.randint(1, 3) for _ in range(n)] if weighted else None
    seq = [rng.randint(1, n) for _ in range(150)]
    eager = wrap(SplayAlgorithm(ModelTree.new_tree(n, shape)), weights)
    lazy = wrap(SplayAlgorithm(ModelTree.new_tree(n, shape)), weights, lazy=True)
    t0 = lazy.tree.copy()
    for k in seq:
        eager.access(k)
        lazy.access(k)
        assert lazy.sim.vt.left == eager.sim.vt.left
        errs = lazy.sim.check_state()
        assert not errs, errs
        vl, vr, vroot = decode_virtual(lazy.sim)
        assert (vl, vr, vroot) == (lazy.sim.vt.left, lazy.sim.vt.right, lazy.sim.vt.root)
        _assert_heights_exact(lazy.tree)
    assert verify_trace(t0, lazy.trace, seq, boundaries=lazy.trace.boundaries).valid
    # once every region is explored the depth bound applies throughout
    assert not lazy.sim.depth_bound_violations(DEPTH_MULT, DEPTH_ADD)
    assert lazy.sim.counters.restructure_ops > 0


def test_lazy_mode_starts_with_original_tree():
    t = ModelTree.new_tree(15, "balanced")
    lazy = wrap(StaticAlgorithm(t), lazy=True)
    assert lazy.tree.left[1:] == t.left[1:]
    assert lazy.tree.right[1:] == t.right[1:]


def test_lazy_restructure_memory_is_bounded_by_its_region(monkeypatch):
    # each restructure may allocate for its own region only: the heavy path
    # from the entered root and the roots hanging off it, never a snapshot
    # of whole link arrays (64 KiB apiece at this n). Its ops go to a buffer
    # of their own, appended to the run's trace afterwards, so that a
    # resize of the run-long trace is not charged to the restructure
    n = 8192
    restructure = Simulator._restructure
    calls = []

    def containers(sim):
        return sum(sys.getsizeof(c) for c in (sim.blocks, sim.next_bit, sim.raw))

    def measured(sim, c):
        vt = sim.vt
        path = [c]
        while vt.solid(path[-1]):
            path.append(vt.solid(path[-1]))
        region = len(path) + sum(1 for u in path for h in (vt.left[u], vt.right[u])
                                 if h and h != vt.solid(u))
        before = containers(sim)
        run_ops, sim.trace.ops = sim.trace.ops, bytearray()
        tracemalloc.start()
        try:
            x = restructure(sim, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            run_ops += sim.trace.ops
            sim.trace.ops = run_ops
        calls.append((c, region, peak, containers(sim) - before))
        return x

    monkeypatch.setattr(Simulator, "_restructure", measured)
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "balanced")), lazy=True)
    rng = random.Random(0)
    for _ in range(60):
        w.access(rng.randint(1, n))
    assert len(calls) > 100
    for c, region, peak, growth in calls:
        # a simulator-wide dict or set that resizes holds its old and new
        # tables at once, at most three times its growth
        assert peak <= 1024 * (region + 1) + 3 * growth, (c, region, peak, growth)


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("shape", ["linear-right", "linear-left"])
def test_lazy_linear_start_restructures_in_linear_ops(shape, n):
    # the first access restructures the whole start path of n - 1 nodes;
    # lifting each node to its target place in turn took 10.3n at n=1024
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, shape)), lazy=True)
    w.access(n // 2)
    assert 0 < w.sim.counters.restructure_ops <= 4 * n


def test_lazy_balanced_run_restructures_less_than_lifting_each_node():
    # 1,118 restructure ops when each node was lifted to its target place
    # in turn; 937 through a canonical shape
    rep = run_experiment("splay", "wrap", SequenceSpec("uniform", 1024, 64, 0),
                         shape="balanced", lazy=True)
    assert 0 < rep.restructure_ops < 1118


@pytest.mark.parametrize("chain", ["wrap", "wrap+interleave", "wrap+online"])
def test_wrapped_layer_keeps_no_virtual_ops(chain):
    # the virtual ops move from the inner trace into the wrapped stream at
    # once, even for a stream that stays suspended over later accesses
    rng = random.Random(6)
    alg = build_chain("splay", chain, ModelTree.new_tree(64, "linear-right"))
    inner = (alg.inner if chain == "wrap" else alg.inner.inner).trace
    for _ in range(100):
        alg.access(rng.randint(1, 64))
        assert not inner.ops and not inner.boundaries
    assert alg.trace.cost > 0


def test_dump_state_mentions_annotations():
    w = wrap(SplayAlgorithm(ModelTree.new_tree(7, "balanced")))
    w.access(1)
    text = dump_state(w.sim)
    assert "finger" in text
    assert "[solid]" in text or "[dotted]" in text


def test_dump_state_of_a_lazy_run_off_the_virtual_root():
    # a raw subtree has no block record until the finger enters it
    sim = Simulator(_vt(7, "balanced"), lazy=True)
    assert (sim.blocks, sim.raw) == ({}, {2, 6})
    sim.apply_virtual(BstOp.LEFT)
    assert dump_state(sim) == (
        "finger 2\n"
        "  [R] elem 4 [reg 0]\n"
        "  [R]   leaf 3 (1)\n"
        "block end 1 entry 1 [solid] (1)\n"
        "block 3 [dotted] [raw] (1)\n"
        "block 6 [dotted] [raw] (3)\n")
    assert list(sim.blocks) == [1] and sim.raw == {3, 6}


@pytest.mark.parametrize("before,illegal,reason", [
    ([BstOp.LEFT], lambda sim: sim.apply_virtual(BstOp.LEFT), "illegal L at finger 1: no child"),
    ([BstOp.RIGHT], lambda sim: sim.apply_virtual(BstOp.RIGHT), "illegal R at finger 3: no child"),
    ([], lambda sim: sim.apply_virtual(BstOp.PARENT), "illegal P at finger 2: virtual finger at root"),
    ([], lambda sim: sim.apply_virtual(BstOp.ROTATE), "illegal U at finger 2: virtual finger at root"),
    ([BstOp.LEFT], lambda sim: sim.rotate_up(sim.root), "illegal U at finger 1: rotate at the physical root"),
], ids=["L-at-leaf", "R-at-leaf", "P-at-root", "U-at-root", "rotate_up-at-physical-root"])
def test_illegal_virtual_op_raises(before, illegal, reason):
    from deamort.model import IllegalOpError

    sim = Simulator(_vt(3))
    for op in before:
        sim.apply_virtual(op)
    trace = bytes(sim.trace.ops)
    with pytest.raises(IllegalOpError, match=reason):
        illegal(sim)
    assert bytes(sim.trace.ops) == trace  # a refused op emits nothing


def test_corrupt_path_stack_raises_named_error():
    from deamort.model import BstOp
    from deamort.simulation import PathStackError

    sim = Simulator(_vt(15))
    sim.apply_virtual(BstOp.LEFT)
    sim.apply_virtual(BstOp.LEFT)
    # the path parent of the virtual finger tops the right-side stack
    zone = sim.zR
    assert zone.top_element() == sim.vt.parent[sim.vt.finger]
    zone.layers[0].regs[0] = 0
    with pytest.raises(PathStackError):
        sim.apply_virtual(BstOp.PARENT)
    with pytest.raises(PathStackError):
        sim.apply_virtual(BstOp.ROTATE)


def test_stack_audit_checks_size_and_base():
    """A finger-path stack records its base on the push into the empty stack
    and clears it on the pop that empties it; the audit counts the elements
    between the stack's top and its base against ``size``."""
    sim = Simulator(_vt(7))
    zone = sim.zR
    # 4 joins the right-side stack over the block of 6's subtree, which ends at 5
    sim.apply_virtual(BstOp.LEFT)
    assert (zone.size, zone.base, sim.check_state()) == (1, 5, [])
    zone.size = 2
    assert sim.check_state() == ["zoneR: 1 elements under the stack top, size 2"]
    zone.size = 1
    sim.apply_virtual(BstOp.PARENT)  # and leaves it empty again
    assert (zone.size, zone.base, sim.check_state()) == (0, 0, [])
    zone.base = 5
    assert sim.check_state() == ["zoneR: empty stack still records base 5"]
    zone.base, zone.size = 0, 1
    assert sim.check_state() == ["zoneR: 0 elements under the stack top, size 1"]


def test_check_state_reports_a_block_root_that_is_not_a_leaf():
    rng = random.Random(4)
    w = wrap(SplayAlgorithm(ModelTree.new_tree(63, "balanced")))
    for _ in range(5):
        w.access(rng.randint(1, 63))
    sim = w.sim
    assert not sim.check_state()
    stacks = [sim.zL, sim.zR] + [s for ctl in sim.blocks.values() for s in (ctl.L, ctl.R)
                                 if s is not None]
    slots = [s.pchild(e) for s in stacks for lay in s.layers for e in lay.regs]
    victim = next(c for c in slots if c in sim.blocks)
    # the stack holding it now sees an inner node where a payload leaf belongs
    del sim.blocks[victim]
    assert any("crumb" in e for e in sim.check_state())


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("kind", ["unit", "exp"])
def test_stacks_and_frozen_dicts_are_created_on_first_use(monkeypatch, kind, lazy):
    """A block side gets its stack on its first push, and a stack its
    ``frozen`` dict on its first frost. At construction and after a wrapped
    splay run, every block side that has a stack has held an element, a
    stack has a ``frozen`` dict exactly when it has frosted, and
    ``check_state`` stays clean."""
    pushed, frosted = {}, {}  # id -> stack; holding the stacks keeps ids unique
    push, frost = ChocolatePopTart.push_arrived, ChocolatePopTart._frost

    def recording_push(self, elem):
        pushed[id(self)] = self
        push(self, elem)

    def recording_frost(self, i):
        frosted[id(self)] = self
        frost(self, i)

    monkeypatch.setattr(ChocolatePopTart, "push_arrived", recording_push)
    monkeypatch.setattr(ChocolatePopTart, "_frost", recording_frost)

    def audit(sim):
        sides = [s for ctl in sim.blocks.values() for s in (ctl.L, ctl.R)]
        assert all(s is None or id(s) in pushed for s in sides)
        for s in [sim.zL, sim.zR, *filter(None, sides)]:
            assert (s.frozen is not None) == (id(s) in frosted)
        assert not sim.check_state()
        return sides

    n = 255
    rng = random.Random(7)
    weights = [math.exp(rng.uniform(0, 12)) for _ in range(n)] if kind == "exp" else None
    w = wrap(SplayAlgorithm(ModelTree.new_tree(n, "balanced")), weights, lazy=lazy)
    sides = audit(w.sim)
    # the eager layout builds every block, and a leaf's block has no stack
    assert (None in sides) == (not lazy) and (not sides) == lazy
    for _ in range(400):
        w.access(rng.randint(1, n))
    audit(w.sim)
    assert frosted


_END = st.one_of(st.just("root"), st.integers(1, 10_000))
# a node at most two edges from the walk's start: the short hops
_NEAR = st.tuples(st.just("near"), st.integers(0, 9))


def _within_two_edges(t, v):
    one = [u for u in (t.parent[v], t.left[v], t.right[v]) if u]
    return one + [w for u in one for w in (t.parent[u], t.left[u], t.right[u]) if w and w != v]


@given(data=st.data(), n=st.integers(1, 40), lazy=st.booleans(),
       pairs=st.lists(st.tuples(_END, st.one_of(_END, _NEAR, st.just("same"))),
                      min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_walk_to_emits_the_walk_ops_moves(data, n, lazy, pairs):
    """``Simulator.walk_to`` appends the bytes of ``model.walk_ops`` and
    leaves the finger on the target: to a child, the parent, a grandchild,
    the grandparent or a sibling, between any two nodes, from and to the
    root and from a node to itself. A lazy simulator keeps the start tree's
    shape, an eager one its block layout."""
    from deamort.model import walk_ops

    t = ModelTree.new_tree(n, insertion_shape(data.draw(st.permutations(range(1, n + 1)))))
    sim = Simulator(VirtualTree(t), lazy=lazy)
    ops = sim.trace.ops
    for a, b in pairs:
        src = sim.root if a == "root" else (a - 1) % n + 1
        near = _within_two_edges(sim, src)
        if isinstance(b, tuple):
            dst = near[b[1] % len(near)] if near else src
        else:
            dst = src if b == "same" else sim.root if b == "root" else (b - 1) % n + 1
        sim.finger = src
        start = len(ops)
        sim.walk_to(dst)
        assert bytes(ops[start:]) == bytes(walk_ops(sim.left, sim.parent, src, dst))
        assert sim.finger == dst
        sim.finger = src
        for op in ops[start:]:
            sim.apply_op(op)
        assert sim.finger == dst


# decimal weights such as {0.1, 0.2, 0.3} are left out until structural
# decisions use exact arithmetic: float ties still break the icing audit
_WEIGHTS = {"int": st.integers(1, 3), "exp": st.floats(0, 12).map(math.exp)}


class _ProbedSimulator(Simulator):
    """Records the ops and the heavy-path length of every lazy restructure."""

    def __init__(self, *args, **kwargs):
        self.restructures = []
        super().__init__(*args, **kwargs)

    def _restructure(self, c):
        k = len(self.vt.heavy_path(c))
        before = self.counters.restructure_ops
        x = super()._restructure(c)
        self.restructures.append((self.counters.restructure_ops - before, k))
        return x


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("kind", ["unit", *_WEIGHTS])
@given(data=st.data(), n=st.integers(2, 40),
       shape=st.sampled_from(["balanced", "linear-right", "linear-left", "random"]),
       picks=st.integers(0, 200).flatmap(
           lambda m: st.lists(st.integers(0, 3), min_size=m, max_size=m)))
@settings(max_examples=40, deadline=None)
def test_arbitrary_virtual_op_streams(kind, lazy, data, n, shape, picks):
    """Any legal virtual-op stream, fed straight to the simulator, keeps the
    physical world sound and encodes a plain replay of the same stream; every
    lazy restructure over a heavy path of k nodes costs at most
    C_RESTRUCTURE*k ops."""
    if shape == "random":
        shape = insertion_shape(data.draw(st.permutations(range(1, n + 1))))
    weights = None
    if kind in _WEIGHTS:
        weights = data.draw(st.lists(_WEIGHTS[kind], min_size=n, max_size=n))
    sim = _ProbedSimulator(VirtualTree(ModelTree.new_tree(n, shape), weights), lazy=lazy)
    ref = ModelTree.new_tree(n, shape)
    t0 = sim.copy()
    seq = []
    for pick in picks:
        f = ref.finger
        legal = [op for op, c in ((BstOp.LEFT, ref.left[f]), (BstOp.RIGHT, ref.right[f])) if c]
        if ref.parent[f]:
            legal += [BstOp.PARENT, BstOp.ROTATE]
        op = legal[pick % len(legal)]
        ref.apply_op(op)
        sim.apply_virtual(op)
        sim.trace.boundaries.append(sim.trace.cost)  # each burst ends on the new finger
        seq.append(ref.finger)
        errs = sim.check_state()
        assert not errs, errs
        _assert_heights_exact(sim)
        assert (sim.vt.left, sim.vt.right, sim.vt.root) == (ref.left, ref.right, ref.root)
        assert sim.vt.check_bst()
        assert sim.vt.height() == ref.height() and sim.vt.hgt == ref.hgt
        assert decode_virtual(sim) == (ref.left, ref.right, ref.root)
        assert sim.root == ref.finger
        assert not sim.depth_bound_violations(DEPTH_MULT, DEPTH_ADD)
    rep = verify_trace(t0, sim.trace, seq, boundaries=sim.trace.boundaries)
    assert rep.valid, rep.reason
    assert all(ops <= C_RESTRUCTURE * k for ops, k in sim.restructures), sim.restructures


_ALGOS = {"splay": SplayAlgorithm, "mtr": MoveToRootAlgorithm, "static": StaticAlgorithm}


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("kind", ["unit", *_WEIGHTS])
@pytest.mark.parametrize("algo", list(_ALGOS))
@given(data=st.data(), n=st.integers(2, 32), keys=st.lists(st.integers(1, 10_000), max_size=16))
@settings(max_examples=10, deadline=None)
def test_heights_exact_after_every_virtual_op(algo, kind, lazy, data, n, keys):
    """Batched lifts and sinks set heights by one pass, not a climb per
    rotation: after every virtual op of a wrapped algorithm the physical
    tree's heights match a full recompute."""
    shape = insertion_shape(data.draw(st.permutations(range(1, n + 1))))
    weights = None
    if kind in _WEIGHTS:
        weights = data.draw(st.lists(_WEIGHTS[kind], min_size=n, max_size=n))
    w = wrap(_ALGOS[algo](ModelTree.new_tree(n, shape)), weights, lazy=lazy)
    _assert_heights_exact(w.tree)
    for k in keys:
        for _ in w.access_stream((k - 1) % n + 1):
            _assert_heights_exact(w.tree)


class _LiftAndUndoSimulator(Simulator):
    """The virtual rotation as a lift and its undo, the reference for the
    in-place pop: lift the path parent p over the physical root f, pop p's
    stack with p on top, then rotate f straight back over p as the first
    rotation of p's sink."""

    def _vrotate(self):
        vt = self.vt
        f = vt.finger
        p = vt.parent[f]
        zone_p = self.zL if p < f else self.zR
        vt.apply_rotation()
        self._rotate(p)
        zone_p.pop_extracted()
        u = zone_p.top_element()
        self._sink_into_block(p, (f, u) if u else (f,))


class _BranchProbe(Simulator):
    """Notes the branches a virtual rotation reaches: a pop that empties the
    path parent's stack, so the sink has nothing to rotate over it, and a
    raw heavier side that the sink restructures."""

    def __init__(self, *args, **kwargs):
        self.reached = set()
        self._rotating = False
        super().__init__(*args, **kwargs)

    def _vrotate(self):
        self._rotating = True
        try:
            super()._vrotate()
        finally:
            self._rotating = False

    def _sink_into_block(self, x, over):
        if self._rotating and not over:
            self.reached.add("emptied stack")
        super()._sink_into_block(x, over)

    def _restructure(self, c):
        if self._rotating:
            self.reached.add("raw heavier side")
        return super()._restructure(c)


def _sim_state(sim, exact_weights):
    state = (sim.left, sim.right, sim.parent, sim.root, sim.hgt, sim.next_bit,
             {x: ctl.entry for x, ctl in sim.blocks.items()}, sim.raw, decode_virtual(sim))
    return state + (sim.wsub,) if exact_weights else state


def _run_both_schedules(algo, n, shape, weights, lazy, keys):
    """Wrap ``algo`` twice, with the in-place pop and with the lift-and-undo
    reference, and feed both the same virtual ops: after every op the two
    physical worlds agree, a rotation's burst is at least 4 ops shorter and
    any other burst equally long. Returns the branches reached."""
    inner = _ALGOS[algo](ModelTree.new_tree(n, shape))
    new = _BranchProbe(VirtualTree(inner.tree, weights), lazy=lazy)
    ref = _LiftAndUndoSimulator(VirtualTree(inner.tree, weights), lazy=lazy)
    # sums of small ints are exact floats in any order; exp weights' sums
    # may round differently as the two schedules recompute different nodes
    exact = weights is None or all(isinstance(x, int) for x in weights)
    assert _sim_state(new, exact) == _sim_state(ref, exact)
    virtual = inner.trace
    for k in keys:
        inner.access(k)
        ops = virtual.ops[:]
        del virtual.ops[:], virtual.boundaries[:]
        for op in ops:
            a, b = new.apply_virtual(op), ref.apply_virtual(op)
            if op == BstOp.ROTATE:
                assert a <= b - 4, (a, b)
            else:
                assert a == b, (op, a, b)
            assert _sim_state(new, exact) == _sim_state(ref, exact)
    assert not new.check_state()
    return new.reached


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("kind", ["unit", *_WEIGHTS])
@pytest.mark.parametrize("algo", ["splay", "mtr"])
@given(data=st.data(), n=st.integers(2, 40),
       shape=st.sampled_from(["balanced", "linear-right", "linear-left", "insertion"]),
       keys=st.lists(st.integers(1, 10_000), max_size=24))
@settings(max_examples=15, deadline=None)
def test_vrotate_pops_in_place_like_lift_and_undo(algo, kind, lazy, data, n, shape, keys):
    """Popping the path parent where it stands, under the physical root,
    leaves the physical tree, its heights, path bits, block entries and
    decoded virtual tree exactly as lifting it over the root, popping, and
    rotating the root straight back did, after every virtual op; so do the
    subtree weights where sums are exact. Only rotation bursts change, each
    at least 4 ops shorter."""
    if shape == "insertion":
        shape = insertion_shape(data.draw(st.permutations(range(1, n + 1))))
    weights = None
    if kind in _WEIGHTS:
        weights = data.draw(st.lists(_WEIGHTS[kind], min_size=n, max_size=n))
    _run_both_schedules(algo, n, shape, weights, lazy, [(k - 1) % n + 1 for k in keys])


@pytest.mark.parametrize("algo", ["splay", "mtr"])
def test_vrotate_reference_reaches_both_sink_branches(algo):
    """The schedules also agree through a rotation's two rarer branches: a
    pop that empties p's stack, so p sinks over nothing, and a lazy heavier
    side restructured inside p's sink."""
    rng = random.Random(1)
    keys = [rng.randint(1, 24) for _ in range(20)]
    reached = _run_both_schedules(algo, 24, "balanced", None, True, keys)
    assert reached == {"emptied stack", "raw heavier side"}


@pytest.mark.parametrize("chain", ["wrap", "wrap+online"])
@pytest.mark.parametrize("algo", list(_ALGOS))
def test_no_burst_undoes_its_own_rotation(algo, chain):
    """Replayed burst by burst, a wrapped run's physical trace never has a
    rotation that the next rotation of the same virtual op's burst rotates
    straight back. (Pairs that straddle two bursts remain: the transforms
    may pause between them.)"""
    n = 64
    alg = build_chain(algo, chain, ModelTree.new_tree(n, "balanced"))
    sim = alg.tree
    bursts = []
    apply_virtual = sim.apply_virtual

    def marked(op):
        start = len(sim.trace.ops)
        burst = apply_virtual(op)
        bursts.append((start, start + burst))
        return burst

    sim.apply_virtual = marked
    replay = sim.copy()
    rng = random.Random(5)
    for _ in range(150):
        alg.access(rng.randint(1, n))
    ops = sim.trace.ops
    undone = []
    done = 0
    for start, end in bursts:
        for op in ops[done:start]:
            replay.apply_op(op)
        last = None
        for i in range(start, end):
            if ops[i] == BstOp.ROTATE:
                x = replay.finger
                p = replay.parent[x]
                if last == (p, x):
                    undone.append(i)
                last = (x, p)
            replay.apply_op(ops[i])
        done = end
    for op in ops[done:]:
        replay.apply_op(op)
    assert (replay.left, replay.right, replay.root) == (sim.left, sim.right, sim.root)
    assert bursts and not undone, undone[:10]
