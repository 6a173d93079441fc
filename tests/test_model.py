import gc
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from deamort.algorithms import MoveToRootAlgorithm, SplayAlgorithm
from deamort import model
from deamort.model import (
    BstOp,
    IllegalOpError,
    MalformedTreeError,
    ModelTree,
    Trace,
    VerifyReport,
    rotate_edge,
    splay_step,
    verify_trace,
    walk_ops,
)
from deamort.optsearch import insertion_shape


def test_single_node_balanced():
    t = ModelTree.new_tree(1, "balanced")
    assert t.root == 1 and t.finger == 1
    assert t.check_bst()


def test_balanced_three():
    t = ModelTree.new_tree(3, "balanced")
    assert t.root == 2
    assert t.left[2] == 1 and t.right[2] == 3


def test_linear_right_three():
    t = ModelTree.new_tree(3, "linear-right")
    assert t.root == 1
    assert t.right[1] == 2 and t.right[2] == 3
    assert t.height() == 2


def test_linear_shapes_height():
    assert ModelTree.new_tree(4, "linear-right").height() == 3
    assert ModelTree.new_tree(4, "linear-left").height() == 3
    assert ModelTree.new_tree(4, "linear-left").root == 4


def test_balanced_depths():
    t = ModelTree.new_tree(3, "balanced")
    assert t.depth(2) == 0
    assert t.depth(1) == 1
    assert t.height() == 1


def test_explicit_parent_array():
    # root 2, 1 left of 2, 3 right of 2
    t = ModelTree.new_tree(3, [-2, 0, 2])
    assert t.root == 2 and t.left[2] == 1 and t.right[2] == 3


def test_malformed_explicit_shape_names_key():
    with pytest.raises(MalformedTreeError) as ei:
        ModelTree.new_tree(3, [-2, 0, -2])  # 3 claims to be left child of 2 too
    assert ei.value.key == 3
    with pytest.raises(MalformedTreeError):
        ModelTree.new_tree(3, [0, 0, 2])  # two roots
    with pytest.raises(MalformedTreeError):
        # links consistent but not a BST in symmetric order: 3 left of 1
        ModelTree.new_tree(3, [0, 1, -1])


@pytest.mark.parametrize("parents,key,reason", [
    ([-4, 0, 2], 1, "parent 4 out of range"),
    ([0, 1, 1], 3, "key 1 already has a right child"),
    ([-2, -3, 2], 1, "no root"),
    ([0, 1], 0, "parent array has 2 entries, expected 3"),
], ids=["out-of-range", "second-right-child", "no-root", "length"])
def test_malformed_parent_array_is_refused(parents, key, reason):
    with pytest.raises(MalformedTreeError, match=reason) as ei:
        ModelTree.new_tree(3, parents)
    assert ei.value.key == key


def test_moves_and_errors():
    t = ModelTree.new_tree(3, "balanced")
    t.apply_op(BstOp.LEFT)
    assert t.finger == 1
    with pytest.raises(IllegalOpError):
        t.apply_op(BstOp.LEFT)
    t.apply_op(BstOp.PARENT)
    assert t.finger == 2
    with pytest.raises(IllegalOpError):
        t.apply_op(BstOp.PARENT)
    with pytest.raises(IllegalOpError):
        t.apply_op(BstOp.ROTATE)  # finger at root


def test_single_rotation():
    t = ModelTree.new_tree(3, "balanced")
    t.apply_op(BstOp.LEFT)
    t.apply_op(BstOp.ROTATE)
    assert t.root == 1
    assert t.right[1] == 2 and t.right[2] == 3
    assert t.finger == 1
    assert t.check_bst()


def _random_legal_walk(t: ModelTree, rng: random.Random, steps: int) -> Trace:
    tr = Trace()
    for _ in range(steps):
        legal = []
        if t.left[t.finger]:
            legal.append(BstOp.LEFT)
        if t.right[t.finger]:
            legal.append(BstOp.RIGHT)
        if t.parent[t.finger]:
            legal.append(BstOp.PARENT)
            legal.append(BstOp.ROTATE)
        op = rng.choice(legal)
        t.apply_op(op)
        tr.ops.append(op)
    return tr


@given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_rotation_preserves_inorder(n, seed):
    t = ModelTree.new_tree(n, "balanced")
    rng = random.Random(seed)
    for _ in range(40):
        legal = []
        if t.left[t.finger]:
            legal.append(BstOp.LEFT)
        if t.right[t.finger]:
            legal.append(BstOp.RIGHT)
        if t.parent[t.finger]:
            legal.append(BstOp.PARENT)
            legal.append(BstOp.ROTATE)
        t.apply_op(rng.choice(legal))
        assert t.check_bst()


@given(data=st.data(), n=st.integers(3, 30))
@settings(max_examples=100, deadline=None)
def test_splay_step_is_two_rotations(data, n):
    """For every node x with a grandparent, splay_step(x) leaves the links
    that rotate_edge of p then of x leaves for a zig-zig, and rotate_edge of
    x twice for a zig-zag."""
    t = ModelTree.new_tree(n, insertion_shape(data.draw(st.permutations(range(1, n + 1)))))
    for x in range(1, n + 1):
        p = t.parent[x]
        g = t.parent[p]
        if not g:
            continue
        got, want = t.copy(), t.copy()
        splay_step(got.left, got.right, got.parent, x)
        zigzig = (t.left[g] == p) == (t.left[p] == x)
        rotate_edge(want.left, want.right, want.parent, p if zigzig else x)
        rotate_edge(want.left, want.right, want.parent, x)
        assert (got.left, got.right, got.parent) == (want.left, want.right, want.parent)


def _walk_ops_reference(left, parent, src, dst):
    """Finger moves from src to dst through their nearest common ancestor,
    found by comparing both full root paths."""
    spath = [src]
    while parent[src]:
        src = parent[src]
        spath.append(src)
    dpath = [dst]
    while parent[dst]:
        dst = parent[dst]
        dpath.append(dst)
    spath.reverse()
    dpath.reverse()
    c = 0
    while c < len(spath) and c < len(dpath) and spath[c] == dpath[c]:
        c += 1
    ops = [BstOp.PARENT] * (len(spath) - c)
    for i in range(c - 1, len(dpath) - 1):
        ops.append(BstOp.LEFT if left[dpath[i]] == dpath[i + 1] else BstOp.RIGHT)
    return bytes(ops)


_END = st.one_of(st.just("root"), st.integers(1, 10_000))


@given(data=st.data(), n=st.integers(1, 40),
       pairs=st.lists(st.tuples(_END, st.one_of(_END, st.just("same"))), min_size=1, max_size=20))
@settings(max_examples=150, deadline=None)
def test_walk_ops_matches_the_both_paths_walk(data, n, pairs):
    """The one finger walk, from and to the root, between any two nodes and
    from a node to itself, emits the moves of the walk through both root
    paths, and replaying them ends on the destination."""
    t = ModelTree.new_tree(n, insertion_shape(data.draw(st.permutations(range(1, n + 1)))))
    for a, b in pairs:
        src = t.root if a == "root" else (a - 1) % n + 1
        dst = src if b == "same" else t.root if b == "root" else (b - 1) % n + 1
        ops = walk_ops(t.left, t.parent, src, dst)
        assert bytes(ops) == _walk_ops_reference(t.left, t.parent, src, dst)
        t.finger = src
        for op in ops:
            t.apply_op(op)
        assert t.finger == dst


def test_walk_ops_between_two_trees_raises():
    # keys 1 <- 2 and 3 <- 4 form two trees: 2 and 4 have no common ancestor
    left, parent = [0, 0, 0, 0, 0], [0, 0, 1, 0, 3]
    with pytest.raises(MalformedTreeError):
        walk_ops(left, parent, 2, 4)


def test_replay_determinism():
    rng = random.Random(7)
    t0 = ModelTree.new_tree(9, "balanced")
    t = t0.copy()
    tr = _random_legal_walk(t, rng, 200)
    t2 = t0.copy()
    t2.apply(tr)
    assert t2.left == t.left and t2.right == t.right and t2.parent == t.parent
    assert t2.finger == t.finger and t2.root == t.root


def test_verify_empty_trace_initial_visit():
    t = ModelTree.new_tree(3, "balanced")
    rep = verify_trace(t, Trace(), [2])
    assert rep.valid


def test_verify_simple_access():
    t = ModelTree.new_tree(3, "balanced")
    rep = verify_trace(t, Trace([BstOp.LEFT]), [1])
    assert rep.valid
    assert rep.per_access_cost == [1]


def test_verify_missing_key_invalid():
    t = ModelTree.new_tree(3, "balanced")
    rep = verify_trace(t, Trace([BstOp.LEFT]), [3])
    assert not rep.valid


@pytest.mark.parametrize("ops, index, reason", [
    ([BstOp.PARENT], 0, "illegal P at finger 2: finger at root"),
    ([BstOp.LEFT, BstOp.LEFT], 1, "illegal L at finger 1: no left child"),
    ([BstOp.RIGHT, BstOp.RIGHT], 1, "illegal R at finger 3: no right child"),
    ([BstOp.LEFT, BstOp.PARENT, BstOp.ROTATE], 2, "illegal U at finger 2: finger at root"),
], ids=["P-at-root", "L-no-left-child", "R-no-right-child", "U-at-root"])
def test_verify_reports_illegal_op_index(ops, index, reason):
    t = ModelTree.new_tree(3, "balanced")
    rep = verify_trace(t, Trace(ops), [1])
    assert not rep.valid
    assert rep.failure_index == index
    assert rep.reason == reason


@given(n=st.integers(2, 10), seed=st.integers(0, 10_000), steps=st.integers(0, 60))
@settings(max_examples=80, deadline=None)
def test_verify_first_visit_matches_apply_op_replay(n, seed, steps):
    rng = random.Random(seed)
    t0 = ModelTree.new_tree(n, "balanced")
    tr = _random_legal_walk(t0.copy(), rng, steps)
    # reference: the finger after every op, replayed one op at a time
    t = t0.copy()
    visits = [t.finger]
    for op in tr.ops:
        t.apply_op(op)
        visits.append(t.finger)
    keys = [rng.randint(1, n) for _ in range(rng.randint(1, 6))]
    want = []
    pos = 0
    for k in keys:
        while pos < len(visits) and visits[pos] != k:
            pos += 1
        if pos == len(visits):
            break
        want.append(pos)
    rep = verify_trace(t0, tr, keys)
    assert rep.valid == (len(want) == len(keys))
    if rep.valid:
        assert list(rep.visited_boundaries) == want
        ends = want[:-1] + [tr.cost]
        assert rep.per_access_cost == [b - a for a, b in zip([0] + ends, ends)]


def test_verify_supplied_boundaries_cost_sums():
    t = ModelTree.new_tree(3, "balanced")
    tr = Trace([BstOp.LEFT, BstOp.PARENT, BstOp.RIGHT], boundaries=[1, 3])
    rep = verify_trace(t, tr, [1, 3])
    assert rep.valid
    assert sum(rep.per_access_cost) == tr.cost
    assert rep.per_access_cost == [1, 2]


def test_verify_rejects_a_boundary_count_that_differs_from_the_sequence():
    t = ModelTree.new_tree(3, "balanced")
    tr = Trace.from_text("L P R #")
    for rep in (verify_trace(t, tr, [1, 3]), verify_trace(t, tr, [1, 3], boundaries=[3])):
        assert not rep.valid
        assert rep.reason == "1 boundaries for 2 accesses"
    # a trace without boundaries is matched by first visits
    assert verify_trace(t, Trace.from_text("L P R"), [1, 3]).valid


def test_verify_repeated_key_zero_cost():
    t = ModelTree.new_tree(3, "balanced")
    tr = Trace([], boundaries=[0, 0])
    rep = verify_trace(t, tr, [2, 2])
    assert rep.valid
    assert rep.per_access_cost == [0, 0]


def _list_verify(t0, trace, s, boundaries=None) -> VerifyReport:
    """The verifier as it was before windowed replay: it lists the finger
    after every op of the whole trace, then matches the keys. The oracle
    the windowed replay must agree with on every input."""
    _P, _L, _R = BstOp.PARENT, BstOp.LEFT, BstOp.RIGHT

    def illegal(op, finger, why, index):
        return VerifyReport(False, index, [], array("q"), reason=str(IllegalOpError(op, finger, why)))

    def segment_costs(bounds, total):
        if not bounds:
            return []
        costs = []
        prev = 0
        for b in bounds[:-1]:
            costs.append(b - prev)
            prev = b
        costs.append(total - prev)
        return costs

    left, right, parent = t0.left[:], t0.right[:], t0.parent[:]
    f = t0.finger
    visits = [f]
    visit = visits.append
    for op in trace.ops:
        if op == _L:
            c = left[f]
            if not c:
                return illegal(op, f, "no left child", len(visits) - 1)
            f = c
        elif op == _R:
            c = right[f]
            if not c:
                return illegal(op, f, "no right child", len(visits) - 1)
            f = c
        else:
            p = parent[f]
            if not p:
                return illegal(op, f, "finger at root", len(visits) - 1)
            if op == _P:
                f = p
            else:
                rotate_edge(left, right, parent, f)
        visit(f)

    m = len(s)
    if boundaries is None and trace.boundaries:
        boundaries = trace.boundaries

    if boundaries is not None:
        if len(boundaries) != m:
            return VerifyReport(False, None, [], array("q"), reason=f"{len(boundaries)} boundaries for {m} accesses")
        prev = 0
        first_seen = []
        for i, key in enumerate(s):
            b = boundaries[i]
            if b < prev or b > len(trace.ops):
                return VerifyReport(False, None, [], array("q"), reason=f"boundary {b} out of order at access {i}")
            try:
                hit = visits.index(key, prev, b + 1)
            except ValueError:
                return VerifyReport(
                    False, None, [], array("q"), reason=f"key {key} (access {i}) not visited in ops {prev}..{b}")
            first_seen.append(hit)
            prev = b
        costs = segment_costs(list(boundaries), len(trace.ops))
        return VerifyReport(True, None, costs, array("q", first_seen))

    pos = 0
    first_seen = []
    for i, key in enumerate(s):
        try:
            pos = visits.index(key, pos)
        except ValueError:
            return VerifyReport(False, None, [], array("q"), reason=f"key {key} (access {i}) never visited")
        first_seen.append(pos)
    costs = segment_costs(first_seen, len(trace.ops))
    return VerifyReport(True, None, costs, array("q", first_seen))


@given(n=st.integers(1, 12), shape=st.sampled_from(["balanced", "linear-right", "linear-left"]),
       legal=st.booleans(), seed=st.integers(0, 10_000), step=st.integers(1, 5),
       kind=st.sampled_from(["none", "own", "sorted", "unsorted", "out-of-range", "wrong-count"]),
       data=st.data())
@settings(max_examples=400, deadline=None)
def test_windowed_verify_matches_list_verify(n, shape, legal, seed, step, kind, data):
    t0 = ModelTree.new_tree(n, shape)
    rng = random.Random(seed)
    if legal and n > 1:
        ops = list(_random_legal_walk(t0.copy(), rng, rng.randint(0, 40)).ops)
    else:
        ops = data.draw(st.lists(st.integers(0, 3), max_size=40), label="ops")
    # fingers of the legal prefix, so that many keys are found in their window
    t = t0.copy()
    visits = [t.finger]
    for op in ops:
        try:
            t.apply_op(op)
        except IllegalOpError:
            break
        visits.append(t.finger)
    cuts = sorted(rng.randint(0, len(ops)) for _ in range(rng.randint(0, 6)))
    keys = []
    prev = 0
    for b in cuts:
        window = visits[prev:b + 1]
        keys.append(rng.choice(window) if window and rng.random() < 0.7 else rng.randint(0, n + 1))
        prev = b
    bounds = {"none": None, "own": None, "sorted": cuts}.get(kind, list(cuts))
    if kind == "unsorted":
        rng.shuffle(bounds)
    elif kind == "out-of-range" and bounds:
        bounds[rng.randrange(len(bounds))] = rng.choice([-1, len(ops) + 1])
    elif kind == "wrong-count":
        bounds = bounds[1:] if bounds and rng.random() < 0.5 else bounds + [len(ops)]
    trace = Trace(ops, cuts if kind == "own" else [])
    saved = model._REPLAY_STEP
    model._REPLAY_STEP = step  # short steps: many advances, and a legality-only tail of several
    try:
        got = verify_trace(t0, trace, keys, bounds)
    finally:
        model._REPLAY_STEP = saved
    assert got == _list_verify(t0, trace, keys, bounds)


def test_verify_memory_does_not_grow_with_the_trace():
    # ~91k ops of raw splay: a per-op visit list alone would take 8 B per op
    n, m = 1024, 4000
    rng = random.Random(11)
    seq = [rng.randint(1, n) for _ in range(m)]
    splay = SplayAlgorithm(ModelTree.new_tree(n, "balanced"))
    t0 = splay.tree.copy()
    for k in seq:
        splay.access(k)
    trace = splay.trace
    assert len(trace.ops) >= 80_000
    assert sys.getsizeof(trace.ops) <= 1.25 * len(trace.ops)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = verify_trace(t0, trace, seq)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.valid
    # three link-array copies at 8 B a slot; per access an 8 B hit position
    # and a slot in the cost list, whose small costs are cached ints; 64 KiB
    # for the current window; the boundaries are read in place
    assert peak <= 24 * (n + 1) + 24 * m + 65536, peak


def _link_objects(*trees: ModelTree) -> set[int]:
    """The ids of the int objects the trees' non-zero links hold."""
    return {id(v) for t in trees for links in (t.left, t.right, t.parent) for v in links if v}


def test_links_hold_one_int_object_per_key():
    n = 4096  # keys above 256 are not cached by the interpreter
    for shape in ("balanced", "linear-left", "linear-right"):
        t = ModelTree.new_tree(n, shape)
        assert len(_link_objects(t)) <= n, shape
        assert len(_link_objects(ModelTree.from_text(t.to_text()))) <= n, shape
    t = ModelTree.new_tree(n, "balanced")
    splay = SplayAlgorithm(t)
    rng = random.Random(5)
    for _ in range(1000):
        splay.access(rng.randint(1, n))  # a fresh int object per access
    assert len(_link_objects(t, t.copy())) <= n


def test_balanced_tree_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        ModelTree.new_tree(4096, "balanced")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_trace_text_roundtrip():
    tr = Trace([BstOp.LEFT, BstOp.ROTATE, BstOp.PARENT, BstOp.RIGHT], boundaries=[2, 4])
    text = tr.to_text()
    assert text == "L U # P R #\n"
    back = Trace.from_text(text)
    assert back.ops == tr.ops and back.boundaries == tr.boundaries
    assert back.to_text() == text


def test_trace_stores_one_byte_op_codes():
    tr = Trace([BstOp.LEFT, 3, BstOp.PARENT])
    assert tr.ops == bytearray([1, 3, 0]) and tr.to_text() == "L U P\n"
    assert IllegalOpError(2, 5, "no right child").op is BstOp.RIGHT


def test_tree_text_roundtrip():
    t = ModelTree.new_tree(3, "balanced")
    text = t.to_text()
    assert text == "3\n-2 0 2\n"
    back = ModelTree.from_text(text)
    assert back.to_text() == text
    t2 = ModelTree.new_tree(7, "linear-left")
    assert ModelTree.from_text(t2.to_text()).to_text() == t2.to_text()


def _scan_height(t: ModelTree) -> int:
    """Height by a depth-first scan of the links, independent of ``hgt``."""
    best = 0
    stack = [(t.root, 0)]
    while stack:
        v, d = stack.pop()
        best = max(best, d)
        for c in (t.left[v], t.right[v]):
            if c:
                stack.append((c, d + 1))
    return best


def test_height_tracking_matches_scan():
    rng = random.Random(3)
    t = ModelTree.new_tree(17, "balanced")
    for _ in range(300):
        legal = []
        if t.left[t.finger]:
            legal.append(BstOp.LEFT)
        if t.right[t.finger]:
            legal.append(BstOp.RIGHT)
        if t.parent[t.finger]:
            legal.append(BstOp.PARENT)
            legal.append(BstOp.ROTATE)
        t.apply_op(rng.choice(legal))
        h = t.height()  # hgt is exact only after a height() read
        fresh = t.copy()
        fresh._recompute_heights()
        assert t.hgt == fresh.hgt
        assert h == t.hgt[t.root]
    assert t.height() == _scan_height(t)


_STEP = st.one_of(
    st.tuples(st.just("ops"), st.integers(1, 30)),
    st.tuples(st.sampled_from(["splay", "mtr"]), st.integers(1, 40)),
    st.tuples(st.just("read"), st.booleans()),
)


def _check_settled(t: ModelTree) -> None:
    h = t.height()
    fresh = t.copy()
    fresh._recompute_heights()
    assert t.hgt == fresh.hgt
    assert h == _scan_height(t)


@given(n=st.integers(1, 24), shape=st.sampled_from(["balanced", "linear-right", "linear-left"]),
       seed=st.integers(0, 10_000), steps=st.lists(_STEP, max_size=25))
@settings(max_examples=150, deadline=None)
def test_deferred_heights_match_full_recompute(n, shape, seed, steps):
    rng = random.Random(seed)
    t = ModelTree.new_tree(n, shape)
    for kind, arg in steps:
        if kind == "ops":
            if n > 1:
                _random_legal_walk(t, rng, arg)
        elif kind == "read":
            if arg and t._stale:
                rng.shuffle(t._stale)  # the settle is exact in any order
            _check_settled(t)
        else:
            alg = (SplayAlgorithm if kind == "splay" else MoveToRootAlgorithm)(t)
            alg.access((arg - 1) % n + 1)
    _check_settled(t)


def test_deferred_heights_overflow_drops_the_stale_list():
    n = 9
    t = ModelTree.new_tree(n, "linear-right")
    assert t.height() == n - 1
    splay = SplayAlgorithm(t)
    splay.access(n)  # the old path is all n nodes
    assert t._stale is not None and len(t._stale) == n
    splay.access(1)
    assert t._stale is None  # past n entries: heights unknown
    _check_settled(t)
    assert t._stale == []
    # a tree whose height was never read notes nothing
    u = ModelTree.new_tree(n, "linear-right")
    SplayAlgorithm(u).access(n)
    assert u._stale is None


def test_depth_unknown_key_errors():
    t = ModelTree.new_tree(3, "balanced")
    with pytest.raises(KeyError):
        t.depth(9)
