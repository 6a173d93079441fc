"""Online BST algorithms expressed as unit-cost operation emitters.

Each algorithm owns a :class:`ModelTree` and serves one key at a time;
``access`` returns the operations emitted for that key, already applied to
the tree, ending with an access boundary. ``access_stream`` exposes the same
operations in bursts so transformation layers can pause between them. These
reference algorithms keep no state besides the tree itself.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .model import BstOp, ModelTree, Trace, walk_ops

_P, _L, _R, _U = BstOp.PARENT, BstOp.LEFT, BstOp.RIGHT, BstOp.ROTATE


class AlgorithmInvariantError(RuntimeError):
    """An algorithm's emitted ops did not leave the tree as it promised."""


class OnlineBstAlgorithm:
    """Behavioral contract: serve keys one by one, emitting legal ops."""

    def __init__(self, tree: ModelTree):
        self.tree = tree
        self.n = tree.n

    def access(self, key: int) -> Trace:
        ops: list[BstOp] = []
        for burst in self.access_stream(key):
            ops.extend(burst)
        return Trace(ops, [len(ops)])

    def access_stream(self, key: int) -> Iterator[list[BstOp]]:
        """Yield op bursts for one access. The tree is mutated as bursts are
        produced; the finger is at the root whenever that is structurally
        guaranteed (see each algorithm)."""
        raise NotImplementedError

    def _require_key(self, key: int) -> None:
        if not (1 <= key <= self.n):
            raise KeyError(f"key {key} outside 1..{self.n}")


class StaticAlgorithm(OnlineBstAlgorithm):
    """Walks the finger to the key and leaves the tree untouched."""

    def access_stream(self, key: int) -> Iterator[list[BstOp]]:
        self._require_key(key)
        ops = walk_ops(self.tree.left, self.tree.parent, self.tree.finger, key)
        for op in ops:
            self.tree.apply_op(op)
        yield ops


class MoveToRootAlgorithm(OnlineBstAlgorithm):
    """Walks to the key, then rotates it to the root with single rotations."""

    def access_stream(self, key: int) -> Iterator[list[BstOp]]:
        self._require_key(key)
        t = self.tree
        ops = walk_ops(t.left, t.parent, t.finger, key)
        for op in ops:
            t.apply_op(op)
        while t.parent[key]:
            t.apply_op(_U)
            ops.append(_U)
        yield ops


class SplayAlgorithm(OnlineBstAlgorithm):
    """Bottom-up splay, scheduled so the trace stays within 2*depth + 2 ops.

    The zig-zig grandparent rotations are emitted while the finger passes the
    parent on the way down; the remaining rotations keep the finger on the
    accessed key on the way up. The resulting tree is identical to the
    classical bottom-up splay because the interleaved rotations act on
    disjoint edges.
    """

    def access_stream(self, key: int) -> Iterator[list[BstOp]]:
        self._require_key(key)
        t = self.tree
        ops: list[BstOp] = []

        def do(op: BstOp) -> None:
            t.apply_op(op)
            ops.append(op)

        # splay leaves the finger at the root; walk up defensively otherwise
        while t.parent[t.finger]:
            do(_P)

        path = t.path_from_root(key)
        d = len(path) - 1
        dirs = [
            _L if path[i + 1] == t.left[path[i]] else _R for i in range(d)
        ]
        # pair ancestor indices bottom-up: (d-1, d-2), (d-3, d-4), ...
        zigzig_at = {}
        j = d - 1
        while j >= 1:
            zigzig_at[j] = dirs[j] == dirs[j - 1]
            j -= 2
        lone_zig = (d % 2) == 1

        for i in range(d):
            if zigzig_at.get(i):
                do(_U)  # parent-over-grandparent half of the zig-zig
            do(dirs[i])

        j = d - 1
        while j >= 1:
            do(_U)
            if not zigzig_at[j]:
                do(_U)
            j -= 2
        if lone_zig and d >= 1:
            do(_U)

        if t.root != key or t.finger != key:
            raise AlgorithmInvariantError(
                f"splay of {key} left root {t.root} and finger {t.finger}")
        yield ops


ALGORITHMS: dict[str, Callable[[ModelTree], OnlineBstAlgorithm]] = {
    "splay": SplayAlgorithm,
    "mtr": MoveToRootAlgorithm,
    "static": StaticAlgorithm,
}


def make_algorithm(name: str, tree: ModelTree) -> OnlineBstAlgorithm:
    try:
        ctor = ALGORITHMS[name]
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}, have {sorted(ALGORITHMS)}") from None
    return ctor(tree)
