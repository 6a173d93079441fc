import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from deamort.algorithms import (
    MoveToRootAlgorithm,
    SplayAlgorithm,
    StaticAlgorithm,
    make_algorithm,
)
from deamort.model import _U, _U1, BstOp, ModelTree, descend, rotate_edge, verify_trace, walk_ops
from deamort.optsearch import insertion_shape

P, L, R, U = BstOp.PARENT, BstOp.LEFT, BstOp.RIGHT, BstOp.ROTATE


def _textbook_rotate(t: ModelTree, x: int, p: int) -> None:
    """Rotate the edge (x, p), x a child of p: x's inner subtree moves
    across to p and x takes p's place. Written apart from the model's own
    rotate so that the oracle stays independent of it."""
    g = t.parent[p]
    if t.left[p] == x:
        inner = t.right[x]
        t.left[p], t.right[x] = inner, p
    else:
        inner = t.left[x]
        t.right[p], t.left[x] = inner, p
    if inner:
        t.parent[inner] = p
    t.parent[p], t.parent[x] = x, g
    if not g:
        t.root = x
    elif t.left[g] == p:
        t.left[g] = x
    else:
        t.right[g] = x


def _classical_splay(t: ModelTree, k: int) -> None:
    """Textbook bottom-up splay by direct link surgery; the oracle the
    op-scheduled implementation must reproduce."""
    while t.parent[k]:
        p = t.parent[k]
        g = t.parent[p]
        if not g:
            _textbook_rotate(t, k, p)
        elif (t.left[g] == p) == (t.left[p] == k):
            _textbook_rotate(t, p, g)
            _textbook_rotate(t, k, p)
        else:
            _textbook_rotate(t, k, p)
            _textbook_rotate(t, k, g)


def _random_shape(n, rng):
    keys = list(range(1, n + 1))
    rng.shuffle(keys)
    return insertion_shape(keys)


def test_splay_zigzig_three_nodes():
    t = ModelTree.new_tree(3, "linear-right")
    cost = SplayAlgorithm(t).access(3)
    assert t.root == 3
    assert t.left[3] == 2 and t.left[2] == 1  # zig-zig shape, not move-to-root
    assert cost <= 2 * 2 + 2


def test_splay_single_node():
    alg = SplayAlgorithm(ModelTree.new_tree(1))
    assert alg.access(1) == 0 and list(alg.trace.boundaries) == [0]


def test_splay_access_root_no_rotation():
    assert SplayAlgorithm(ModelTree.new_tree(3, "balanced")).access(2) == 0


def test_splay_matches_classical_oracle():
    rng = random.Random(42)
    for trial in range(300):
        n = rng.randint(2, 24)
        parents = _random_shape(n, rng)
        t = ModelTree.new_tree(n, parents)
        oracle = t.copy()
        k = rng.randint(1, n)
        alg = SplayAlgorithm(t)
        d_before = t.depth(k)
        cost = alg.access(k)
        _classical_splay(oracle, k)
        assert t.left == oracle.left and t.right == oracle.right
        assert t.root == oracle.root == k
        assert cost <= 2 * d_before + 2
        assert t.check_bst()


def test_splay_sequence_matches_classical():
    rng = random.Random(9)
    t = ModelTree.new_tree(17, "linear-left")
    oracle = t.copy()
    alg = SplayAlgorithm(t)
    for _ in range(200):
        k = rng.randint(1, 17)
        alg.access(k)
        _classical_splay(oracle, k)
        assert t.left == oracle.left and t.right == oracle.right


class _OneRotationSplay(SplayAlgorithm):
    """The splay schedule done one rotate_edge at a time, the reference for
    the pair pass: each zig-zig's grandparent rotation as the finger passes
    the parent on the way down, then the remaining rotations of the key."""

    def serve(self, key):
        t = self.tree
        left, right, parent = t.left, t.right, t.parent
        ops = self.trace.ops
        start = len(ops)
        if parent[t.finger]:
            ops += walk_ops(left, parent, t.finger, t.root)
        path, dirs = descend(left, right, t.root, key)
        key = path[-1]
        d = len(dirs)
        zigzig = [False] * d
        for j in range(d - 1, 0, -2):
            zigzig[j] = dirs[j] == dirs[j - 1]
        for i in range(d):
            if zigzig[i]:
                ops.append(_U)
                rotate_edge(left, right, parent, path[i])
            ops.append(dirs[i])
        ups = d - zigzig.count(True)
        ops += _U1 * ups
        for _ in range(ups):
            rotate_edge(left, right, parent, key)
        t.root = t.finger = key
        if d:
            t.mark_stale(path)
        return len(ops) - start


@given(data=st.data(), n=st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_splay_matches_the_one_rotation_schedule(data, n):
    """Splaying in pair steps emits the bytes and boundaries, and leaves the
    links, root and heights, of the one-rotation-at-a-time schedule after
    every access."""
    shape = insertion_shape(data.draw(st.permutations(range(1, n + 1))))
    keys = data.draw(st.lists(st.integers(1, n), max_size=40))
    alg = SplayAlgorithm(ModelTree.new_tree(n, shape))
    ref = _OneRotationSplay(ModelTree.new_tree(n, shape))
    for k in keys:
        assert alg.access(k) == ref.access(k)
        assert alg.trace.ops == ref.trace.ops
        assert alg.trace.boundaries == ref.trace.boundaries
        a, b = alg.tree, ref.tree
        assert (a.left, a.right, a.parent, a.root) == (b.left, b.right, b.parent, b.root)
    assert alg.tree.height() == ref.tree.height()
    assert alg.tree.hgt == ref.tree.hgt


def test_mtr_linear_right():
    alg = MoveToRootAlgorithm(ModelTree.new_tree(3, "linear-right"))
    alg.access(3)
    assert alg.tree.root == 3
    assert list(alg.trace.ops) == [R, R, U, U]


def test_mtr_access_root():
    assert MoveToRootAlgorithm(ModelTree.new_tree(3, "balanced")).access(2) == 0


def test_mtr_repeat_access_boundary_only():
    t = ModelTree.new_tree(7, "balanced")
    alg = MoveToRootAlgorithm(t)
    alg.access(5)
    assert alg.access(5) == 0 and list(alg.trace.boundaries) == [alg.trace.cost] * 2


def test_static_balanced_seven():
    alg = StaticAlgorithm(ModelTree.new_tree(7, "balanced"))
    alg.access(1)
    assert list(alg.trace.ops) == [L, L]
    assert alg.tree.finger == 1


def test_static_current_finger_zero_cost():
    t = ModelTree.new_tree(7, "balanced")
    alg = StaticAlgorithm(t)
    alg.access(3)
    assert alg.access(3) == 0


def test_static_lca_walk():
    t = ModelTree.new_tree(3, "balanced")
    alg = StaticAlgorithm(t)
    alg.access(1)
    alg.access(3)
    assert list(alg.trace.ops) == [L, P, R]
    assert t.left[2] == 1 and t.right[2] == 3  # shape unchanged


def test_every_access_realizes_and_preserves_bst():
    rng = random.Random(5)
    for name in ("splay", "mtr", "static"):
        t = ModelTree.new_tree(15, "linear-right")
        t0 = t.copy()
        alg = make_algorithm(name, t)
        s = [rng.randint(1, 15) for _ in range(60)]
        for k in s:
            alg.access(k)
            assert t.check_bst()
        rep = verify_trace(t0, alg.trace, s)
        assert rep.valid, (name, rep.reason)


def test_online_prefix_property():
    s = [3, 1, 4, 1, 5, 2, 6]
    for name in ("splay", "mtr", "static"):
        prev = bytearray()
        for i in range(1, len(s) + 1):
            alg = make_algorithm(name, ModelTree.new_tree(7, "balanced"))
            for k in s[:i]:
                alg.access(k)
            assert alg.trace.ops[: len(prev)] == prev
            prev = alg.trace.ops


def test_splay_scanning_linear_total():
    # symmetric-order scan touches every node in O(n) total
    from deamort.constants import FROZEN

    for n in (64, 256):
        for shape in ("linear-left", "balanced"):
            alg = SplayAlgorithm(ModelTree.new_tree(n, shape))
            total = sum(map(alg.access, range(1, n + 1)))
            assert total <= FROZEN["C_SCAN"] * n


def test_splay_balance_uniform():
    from deamort.constants import FROZEN

    rng = random.Random(11)
    n, m = 128, 512
    t = ModelTree.new_tree(n, "linear-right")
    alg = SplayAlgorithm(t)
    total = sum(alg.access(rng.randint(1, n)) for _ in range(m))
    assert total <= FROZEN["C_BAL"] * m * math.log2(n)


def test_unknown_algorithm_rejected():
    with pytest.raises(KeyError):
        make_algorithm("tango", ModelTree.new_tree(3))
