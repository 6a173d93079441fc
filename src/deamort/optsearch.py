"""Exact minimum-cost realization search for tiny instances.

The state space is (tree shape, finger, progress into the sequence) with
unit-cost edges, so breadth-first search from the start state returns the
length of a shortest operation list realizing the sequence. The companion
:func:`enumerate_realizations` checks optimality independently by brute
force over raw operation strings.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

from .model import BstOp, IllegalOpError, ModelTree

_OPS = (BstOp.PARENT, BstOp.LEFT, BstOp.RIGHT, BstOp.ROTATE)

OPT_MAX_N = 6
OPT_MAX_M = 6


class OptLimitError(ValueError):
    pass


def enumerate_shapes(n: int) -> Iterator[list[int]]:
    """Signed parent arrays of every BST over 1..n."""

    def gen(lo: int, hi: int, parent: int, is_left: bool) -> Iterator[dict[int, int]]:
        if lo > hi:
            yield {}
            return
        for r in range(lo, hi + 1):
            pv = 0 if parent == 0 else (-parent if is_left else parent)
            for ls in gen(lo, r - 1, r, True):
                for rs in gen(r + 1, hi, r, False):
                    d = {r: pv}
                    d.update(ls)
                    d.update(rs)
                    yield d

    for d in gen(1, n, 0, False):
        yield [d[k] for k in range(1, n + 1)]


def insertion_shape(keys: Sequence[int]) -> list[int]:
    """Signed parent array of the BST built by inserting ``keys``, a
    permutation of 1..n, in order."""
    n = len(keys)
    parents = [0] * n
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    for k in keys[1:]:
        v = keys[0]
        while True:
            links = left if k < v else right
            if not links[v]:
                links[v] = k
                parents[k - 1] = -v if k < v else v
                break
            v = links[v]
    return parents


def _advance(progress: int, finger: int, s: Sequence[int]) -> int:
    while progress < len(s) and s[progress] == finger:
        progress += 1
    return progress


def opt_bruteforce(t0: ModelTree, s: Sequence[int]) -> int:
    """Length of a shortest trace realizing ``s`` from ``t0``.

    The initial finger position counts as a visit. Refuses instances beyond
    n <= 6, m <= 6; the state space is Catalan(n) * n * (m+1).
    """
    n = t0.n
    if n > OPT_MAX_N or len(s) > OPT_MAX_M:
        raise OptLimitError(
            f"instance n={n}, m={len(s)} exceeds the exact-search limits "
            f"n<={OPT_MAX_N}, m<={OPT_MAX_M}")
    for k in s:
        if not (1 <= k <= n):
            raise OptLimitError(f"key {k} outside 1..{n}")
    m = len(s)
    start = t0.copy()
    p0 = _advance(0, start.finger, s)
    if p0 == m:
        return 0
    init = (tuple(start.left[1:]), tuple(start.right[1:]), start.finger, p0)
    seen = {init}
    frontier = deque([(start, p0, 0)])
    while frontier:
        tree, progress, dist = frontier.popleft()
        for op in _OPS:
            t = tree.copy()
            try:
                t.apply_op(op)
            except IllegalOpError:
                continue
            prog = _advance(progress, t.finger, s)
            if prog == m:
                return dist + 1
            key = (tuple(t.left[1:]), tuple(t.right[1:]), t.finger, prog)
            if key not in seen:
                seen.add(key)
                frontier.append((t, prog, dist + 1))
    raise RuntimeError("search exhausted without realizing the sequence")


def enumerate_realizations(t0: ModelTree, s: Sequence[int], max_len: int) -> int:
    """Smallest length <= max_len of an op string realizing ``s``, by
    exhaustive depth-first enumeration of legal op strings; -1 if none.

    Independent of the state-space search: no memoization, every legal
    operation string up to the cap is walked.
    """

    def dfs(tree: ModelTree, progress: int, budget: int) -> int:
        progress = _advance(progress, tree.finger, s)
        if progress == len(s):
            return 0
        if budget == 0:
            return -1
        best = -1
        for op in _OPS:
            t = tree.copy()
            try:
                t.apply_op(op)
            except IllegalOpError:
                continue
            sub = dfs(t, progress, budget - 1)
            if sub >= 0 and (best < 0 or sub + 1 < best):
                best = sub + 1
        return best

    return dfs(t0.copy(), 0, max_len)
