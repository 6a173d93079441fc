"""Online BST algorithms expressed as unit-cost operation emitters.

Each algorithm owns a :class:`ModelTree` and a :class:`Trace`, and serves one
key at a time: ``access`` appends the operations for that key to
``self.trace``, already applied to the tree, then the access boundary, and
returns the number of operations it appended. ``access_stream`` yields the
same work in bursts, each burst a pair: the number of operations it appended
and whether it is the stream's last. It serves the layers that the
transforms wrap, which pause between bursts; the flag tells them that a
stream has ended without pulling one burst more. The transforms themselves
serve whole accesses only. These reference algorithms keep no state besides
the tree and the trace.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator

from .model import _U, _U1, ModelTree, Trace, descend, rotate_edge, splay_step, walk_ops


# an access's op stream: per burst, its op count and whether it is the last
Stream = Iterator[tuple[int, bool]]


class AlgorithmInvariantError(RuntimeError):
    """An algorithm's emitted ops did not leave the tree as it promised."""


class OnlineBstAlgorithm:
    """Behavioral contract: serve keys one by one, emitting legal ops."""

    def __init__(self, tree: ModelTree):
        self.tree = tree
        self.n = tree.n
        self.trace = Trace()

    def access(self, key: int) -> int:
        cost = sum(map(itemgetter(0), self.access_stream(key)))
        self.trace.boundaries.append(len(self.trace.ops))
        return cost

    def access_stream(self, key: int) -> Stream:
        """Append one access's ops to ``self.trace`` in bursts, yielding
        each burst's op count and whether it is the last burst; a stream
        yields at least one burst and ends after the one flagged last. The
        tree is mutated as bursts are produced; the finger is at the root
        whenever that is structurally guaranteed (see each algorithm)."""
        raise NotImplementedError

    def _require_key(self, key: int) -> None:
        if not (1 <= key <= self.n):
            raise KeyError(f"key {key} outside 1..{self.n}")


class _OneBurstAlgorithm(OnlineBstAlgorithm):
    """A reference algorithm: each access is one burst, computed, applied
    to the tree's link arrays and appended to the trace by :meth:`serve`."""

    def serve(self, key: int) -> int:
        """Apply the access to ``key``; return the number of ops appended."""
        raise NotImplementedError

    def access(self, key: int) -> int:
        cost = self.serve(key)
        self.trace.boundaries.append(len(self.trace.ops))
        return cost

    def access_stream(self, key: int) -> Stream:
        yield self.serve(key), True


class StaticAlgorithm(_OneBurstAlgorithm):
    """Walks the finger to the key and leaves the tree untouched."""

    def serve(self, key: int) -> int:
        self._require_key(key)
        t = self.tree
        moves = walk_ops(t.left, t.parent, t.finger, key)
        self.trace.ops += moves
        t.finger = key
        return len(moves)


class MoveToRootAlgorithm(_OneBurstAlgorithm):
    """Walks to the key, then rotates it to the root with single rotations."""

    def serve(self, key: int) -> int:
        self._require_key(key)
        t = self.tree
        left, right, parent = t.left, t.right, t.parent
        ops = self.trace.ops
        start = len(ops)
        ops += walk_ops(left, parent, t.finger, key)
        t.finger = key
        if parent[key]:
            path = [key]  # the old root-to-key path, bottom-up
            while parent[key]:
                path.append(rotate_edge(left, right, parent, key))
                ops.append(_U)
            t.root = key
            t.mark_stale(path)
        return len(ops) - start


class SplayAlgorithm(_OneBurstAlgorithm):
    """Bottom-up splay, scheduled so the trace stays within 2*depth + 2 ops.

    One bottom-up pass over the search path's edge pairs applies each splay
    step with :func:`splay_step` (a lone top edge with :func:`rotate_edge`)
    and builds the trace in reverse. A zig-zig's grandparent rotation is
    emitted while the finger passes the parent on the way down; the other
    rotations keep the finger on the key on the way up. The trace replays to
    the classical bottom-up splay because the interleaved rotations act on
    disjoint edges.
    """

    def serve(self, key: int) -> int:
        self._require_key(key)
        t = self.tree
        left, right, parent = t.left, t.right, t.parent
        ops = self.trace.ops
        start = len(ops)
        # splay leaves the finger at the root; walk up defensively otherwise
        if parent[t.finger]:
            ops += walk_ops(left, parent, t.finger, t.root)

        path, dirs = descend(left, right, t.root, key)
        key = path[-1]  # the tree's own int object for the key, which the links share
        d = len(dirs)
        # per pair, bottom-up and reversed: x's move, a zig-zig's U, p's move
        down = bytearray()
        for i in range(d, 1, -2):
            dx = dirs[i - 1]
            dp = dirs[i - 2]
            down.append(dx)
            if dx == dp:
                down.append(_U)
            down.append(dp)
            splay_step(left, right, parent, key)
        if d & 1:  # a lone zig at the top
            down.append(dirs[0])
            rotate_edge(left, right, parent, key)
        down.reverse()
        ops += down
        # every edge not rotated on the way down closes with a rotation of key
        ops += _U1 * (2 * d - len(down))
        if parent[key]:
            raise AlgorithmInvariantError(f"splay of {key} left it below {parent[key]}")
        t.root = t.finger = key
        if d:
            t.mark_stale(path)
        return len(ops) - start


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
