"""Unit-cost binary search tree machine.

A tree holds the keys 1..n in symmetric order and carries a finger, a
distinguished current node. Exactly four operations exist, each of cost 1:
move the finger to its parent, to its left child, or to its right child, or
rotate the finger's node with its parent. A trace is a recorded operation
list, one byte per operation holding its ``BstOp`` code 0-3, plus
access-boundary markers. Replaying a trace against an access sequence checks
that every requested key was under the finger inside its access window; the
replay holds the finger positions of one window at a time (plus a bounded
step of ops past it), never one entry per operation of the whole trace.

Keys are dense small integers, so the tree is an arena of parallel arrays
indexed by key. Absent links are 0. This makes operation application O(1)
and copying trivial, which the replay and search tools rely on.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Optional, Sequence, Union


class BstOp(IntEnum):
    """The four unit-cost operations."""

    PARENT = 0
    LEFT = 1
    RIGHT = 2
    ROTATE = 3

    @property
    def token(self) -> str:
        return "PLRU"[self]

    @classmethod
    def from_token(cls, tok: str) -> "BstOp":
        try:
            return _TOKEN_OPS[tok]
        except KeyError:
            raise ValueError(f"unknown op token {tok!r}") from None


_TOKEN_OPS = {op.token: op for op in BstOp}
# The op codes as plain ints, which every emitter appends: a bytearray is
# built from a list of ints about twice as fast as from BstOp members.
_P, _L, _R, _U = (int(op) for op in BstOp)
# one rotation as trace bytes; ``_U1 * k`` is k rotations in a row
_U1 = bytes([_U])

# The boundary marker used in the trace text format.
BOUNDARY_TOKEN = "#"


@dataclass(init=False, slots=True)
class Trace:
    """An operation list plus access-boundary positions.

    ``ops`` is a ``bytearray`` holding one ``BstOp`` code (0-3) per
    operation, and ``boundaries`` an ``array('q')``; the constructor copies
    any iterables of ``BstOp`` or ints into them. ``boundaries[i]`` is the
    number of operations executed at the point where the (i+1)-th access is
    declared complete. Boundaries are non-decreasing and at most
    ``len(ops)``. The cost of a trace is its length.

    Every algorithm layer appends its ops and boundaries straight into one
    such trace, so a run holds one byte per op and eight bytes per access,
    with no int object per boundary.
    """

    ops: bytearray
    boundaries: array[int]

    def __init__(self, ops: Iterable[int] = (), boundaries: Iterable[int] = ()):
        self.ops = bytearray(ops)
        self.boundaries = array("q", boundaries)

    @property
    def cost(self) -> int:
        return len(self.ops)

    def to_text(self) -> str:
        """Render as whitespace-separated tokens, `#` marking boundaries."""
        out: list[str] = []
        bi = 0
        nb = len(self.boundaries)
        for pos, op in enumerate(self.ops):
            while bi < nb and self.boundaries[bi] == pos:
                out.append(BOUNDARY_TOKEN)
                bi += 1
            out.append("PLRU"[op])
        while bi < nb:
            out.append(BOUNDARY_TOKEN)
            bi += 1
        return " ".join(out) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Trace":
        ops = bytearray()
        boundaries: list[int] = []
        for tok in text.split():
            if tok == BOUNDARY_TOKEN:
                boundaries.append(len(ops))
            else:
                ops.append(BstOp.from_token(tok))
        return cls(ops, boundaries)


class IllegalOpError(ValueError):
    """Raised when an operation is not applicable at the current finger."""

    def __init__(self, op: Union[BstOp, int], finger: int, reason: str):
        op = BstOp(op)
        self.op = op
        self.finger = finger
        super().__init__(f"illegal {op.token} at finger {finger}: {reason}")


class MalformedTreeError(ValueError):
    """Raised when an explicit shape does not encode a BST over 1..n."""

    def __init__(self, key: int, reason: str):
        self.key = key
        super().__init__(f"bad tree at key {key}: {reason}")


ShapeSpec = Union[str, Sequence[int]]


class ModelTree:
    """Arena of keyed nodes with parent/left/right links and a finger.

    Link arrays are 1-indexed by key; slot 0 is unused and 0 encodes an
    absent link. Mutation happens through :meth:`apply_op`, or through
    :func:`rotate_edge` or :func:`splay_step` by a caller that emits the same
    ops and either reports the rotated nodes to :meth:`mark_stale` or keeps
    ``hgt`` exact itself, so recorded traces replay exactly.

    Each key is one int object, shared by every link to it and by the
    tree's copies, so a tree holds its links and n int objects.

    Heights in ``hgt`` are deferred. A tree starts with unknown heights and
    ``hgt`` None, and its first :meth:`height` allocates and computes them.
    After that, rotations only note their endpoints as stale, and
    :meth:`height` settles them, in any order, by one recompute each and a
    climb while a height changes (:meth:`_settle_heights` says why any order
    works). So ``hgt`` is exact right after a :meth:`height` call and until
    the next rotation. Past n stale entries the heights are unknown again.
    ``hgt[0]`` is -1, the height of the absent node, so every node's height
    is one more than its higher child's.

    ``simulation.VirtualTree`` and ``simulation.Simulator`` (the physical
    tree, which keeps ``hgt`` exact itself) link their own arrays.
    """

    __slots__ = ("n", "left", "right", "parent", "root", "finger", "hgt", "_stale")

    def __init__(self, parents: Sequence[int]):
        """Build from a signed parent array.

        ``parents[k-1]`` is 0 for the root, ``p`` if key k is the right child
        of p and ``-p`` if it is the left child.
        """
        n = len(parents)
        if n < 1:
            raise MalformedTreeError(0, "need at least one key")
        left = [0] * (n + 1)
        right = [0] * (n + 1)
        parent = [0] * (n + 1)
        # every link to key k holds the object keys[k]
        keys = list(range(n + 1))
        root = 0
        for k in keys[1:]:
            p = parents[k - 1]
            if p == 0:
                if root:
                    raise MalformedTreeError(k, "second root")
                root = k
                continue
            side_left = p < 0
            p = abs(p)
            if not (1 <= p <= n) or p == k:
                raise MalformedTreeError(k, f"parent {p} out of range")
            if side_left:
                if left[p]:
                    raise MalformedTreeError(k, f"key {p} already has a left child")
                left[p] = k
            else:
                if right[p]:
                    raise MalformedTreeError(k, f"key {p} already has a right child")
                right[p] = k
            parent[k] = keys[p]
        if not root:
            raise MalformedTreeError(1, "no root")
        self._link(left, right, parent, root)
        self._check_structure()

    def _link(self, left: list[int], right: list[int], parent: list[int], root: int) -> None:
        self.n = len(left) - 1
        self.left = left
        self.right = right
        self.parent = parent
        self.root = root
        self.finger = root
        self.hgt: Optional[list[int]] = None
        # stale nodes since the last height(); None while the heights are unknown
        self._stale: Optional[list[int]] = None

    @classmethod
    def new_tree(cls, n: int, shape: ShapeSpec = "balanced") -> "ModelTree":
        """Build a fresh tree with the finger at the root."""
        if n < 1:
            raise MalformedTreeError(0, "n must be >= 1")
        if isinstance(shape, str):
            if shape == "balanced":
                parents = _balanced_parents(n)
            elif shape == "linear-left":
                # root n, each key's parent is its successor
                parents = [-(k + 1) for k in range(1, n)] + [0]
            elif shape == "linear-right":
                parents = [0] + [k - 1 for k in range(2, n + 1)]
            else:
                raise MalformedTreeError(0, f"unknown shape {shape!r}")
        else:
            parents = list(shape)
            if len(parents) != n:
                raise MalformedTreeError(0, f"parent array has {len(parents)} entries, expected {n}")
        return cls(parents)

    # -- structure checks ---------------------------------------------------

    def _check_structure(self) -> None:
        """Validate link consistency, reachability and symmetric order."""
        n = self.n
        seen = 0
        prev = 0
        # iterative in-order walk
        stack: list[int] = []
        v = self.root
        while stack or v:
            while v:
                stack.append(v)
                v = self.left[v]
            v = stack.pop()
            if v != prev + 1:
                raise MalformedTreeError(v, f"symmetric order broken, expected {prev + 1}")
            prev = v
            seen += 1
            if seen > n:
                raise MalformedTreeError(v, "cycle in links")
            v = self.right[v]
        if seen != n:
            raise MalformedTreeError(self.root, f"only {seen} of {n} keys reachable")

    def check_bst(self) -> bool:
        """True iff the symmetric traversal yields 1..n exactly."""
        try:
            self._check_structure()
        except MalformedTreeError:
            return False
        return True

    # -- operations ---------------------------------------------------------

    def apply_op(self, op: int) -> None:
        f = self.finger
        if op == _L:
            c = self.left[f]
            if not c:
                raise IllegalOpError(op, f, "no left child")
            self.finger = c
        elif op == _R:
            c = self.right[f]
            if not c:
                raise IllegalOpError(op, f, "no right child")
            self.finger = c
        else:
            p = self.parent[f]
            if not p:
                raise IllegalOpError(op, f, "finger at root")
            if op == _P:
                self.finger = p
                return
            rotate_edge(self.left, self.right, self.parent, f)
            if not self.parent[f]:
                self.root = f
            if self._stale is not None:
                self.mark_stale((p, f))

    def apply(self, trace: Trace) -> None:
        for op in trace.ops:
            self.apply_op(op)

    # -- deferred heights -----------------------------------------------------

    def mark_stale(self, nodes: Iterable[int]) -> None:
        """Note that the subtrees of ``nodes`` changed shape, as both ends of
        a rotated edge do; :meth:`height` settles them and their ancestors.
        While the heights are unknown nothing is noted. Past n noted entries
        the list is dropped and the next :meth:`height` recomputes
        everything, so memory stays O(n)."""
        stale = self._stale
        if stale is not None:
            stale.extend(nodes)
            if len(stale) > self.n:
                self._stale = None

    def _settle_heights(self) -> None:
        """Make ``hgt`` exact: recompute each distinct stale node, then climb
        from its parent while a height changes. Any order is exact. Only a
        stale node or the current parent of one can have new children (a
        rotation's ends are stale, and their parents are the only other
        nodes whose children it changes), so every other node changes
        height only when a child's height changes, and that change always
        climbs to it."""
        stale = self._stale
        if stale is None:
            self._recompute_heights()
            self._stale = []
            return
        hgt, left, right, parent = self.hgt, self.left, self.right, self.parent
        for v in dict.fromkeys(stale):
            a, b = hgt[left[v]], hgt[right[v]]
            hgt[v] = (a if a > b else b) + 1
            v = parent[v]
            while v:
                a, b = hgt[left[v]], hgt[right[v]]
                h = (a if a > b else b) + 1
                if hgt[v] == h:
                    break
                hgt[v] = h
                v = parent[v]
        stale.clear()

    def _postorder(self) -> list[int]:
        """Every node of the tree, children before parents."""
        left, right = self.left, self.right
        order = [self.root]
        for v in order:  # level by level, parents before children
            if left[v]:
                order.append(left[v])
            if right[v]:
                order.append(right[v])
        order.reverse()
        return order

    def _recompute_heights(self) -> None:
        if self.hgt is None:
            self.hgt = [-1] + [0] * self.n
        hgt, left, right = self.hgt, self.left, self.right
        for v in self._postorder():
            a, b = hgt[left[v]], hgt[right[v]]
            hgt[v] = (a if a > b else b) + 1

    # -- queries ------------------------------------------------------------

    def depth(self, k: int) -> int:
        if not (1 <= k <= self.n):
            raise KeyError(f"key {k} not in tree")
        d = 0
        while self.parent[k]:
            k = self.parent[k]
            d += 1
        return d

    def height(self) -> int:
        self._settle_heights()
        return self.hgt[self.root]

    def copy(self) -> "ModelTree":
        """An independent tree of the same shape and finger; its heights
        start unknown."""
        t = ModelTree.__new__(ModelTree)
        t._link(self.left[:], self.right[:], self.parent[:], self.root)
        t.finger = self.finger
        return t

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        """Two lines: n, then the signed parent array."""
        parts = []
        for k in range(1, self.n + 1):
            p = self.parent[k]
            if p == 0:
                parts.append("0")
            elif self.left[p] == k:
                parts.append(str(-p))
            else:
                parts.append(str(p))
        return f"{self.n}\n{' '.join(parts)}\n"

    @classmethod
    def from_text(cls, text: str) -> "ModelTree":
        lines = text.splitlines()
        if len(lines) < 2:
            raise MalformedTreeError(0, "tree text needs two lines")
        n = int(lines[0].strip())
        parents = [int(x) for x in lines[1].split()]
        if len(parents) != n:
            raise MalformedTreeError(0, f"expected {n} parent entries, got {len(parents)}")
        return cls(parents)


def rotate_edge(left: list[int], right: list[int], parent: list[int], x: int) -> int:
    """Rotate x over its parent p in the link arrays and return p; x takes
    p's place and symmetric order is kept. Callers check that x is not a
    root and update roots and per-node aggregates themselves."""
    p = parent[x]
    g = parent[p]
    if left[p] == x:
        b = right[x]
        right[x] = p
        left[p] = b
    else:
        b = left[x]
        left[x] = p
        right[p] = b
    if b:
        parent[b] = p
    parent[p] = x
    parent[x] = g
    if g:
        if left[g] == p:
            left[g] = x
        else:
            right[g] = x
    return p


def splay_step(left: list[int], right: list[int], parent: list[int], x: int) -> None:
    """Move x over its parent p and grandparent g in one link rewrite, one
    step of bottom-up splaying: a zig-zig (x and p children on the same side)
    equals ``rotate_edge`` of p then of x, a zig-zag ``rotate_edge`` of x
    twice. Callers check that g exists and update roots and aggregates."""
    p = parent[x]
    g = parent[p]
    gg = parent[g]
    # near is the side of g that p hangs on; subtree b moves under p, c under g
    near, far = (left, right) if left[g] == p else (right, left)
    if near[p] == x:  # zig-zig: b is x's far subtree, c is p's
        b, c = far[x], far[p]
        far[x] = p
        near[p] = b
        far[p] = g
        parent[g] = p
    else:  # zig-zag: b and c are x's near and far subtrees
        b, c = near[x], far[x]
        near[x] = p
        far[x] = g
        far[p] = b
        parent[g] = x
    near[g] = c
    if b:
        parent[b] = p
    if c:
        parent[c] = g
    parent[p] = x
    parent[x] = gg
    if gg:
        if left[gg] == g:
            left[gg] = x
        else:
            right[gg] = x


def descend(left: Sequence[int], right: Sequence[int], root: int,
            key: int) -> tuple[list[int], bytearray]:
    """The search from ``root`` down to ``key`` by key comparisons: the nodes
    passed, ``root`` and ``key`` included, and the finger moves between them,
    one op code per byte as in a trace."""
    path = [root]
    moves = bytearray()
    v = root
    while v != key:
        if key < v:
            v = left[v]
            moves.append(_L)
        else:
            v = right[v]
            moves.append(_R)
        if not v:
            raise KeyError(f"key {key} unreachable")
        path.append(v)
    return path, moves


def walk_ops(left: Sequence[int], parent: Sequence[int], src: int,
             dst: int) -> bytes | bytearray:
    """Finger moves from ``src`` to ``dst`` along tree edges, one op code per
    byte as in a trace: P moves up to their nearest common ancestor c, then
    L/R moves down to ``dst``. A tree has one simple path between two nodes,
    so the moves are the same however c is found; the climbs here cost about
    the walk's own length, not the depths of both ends.

    - ``dst`` is the root: c is ``dst``, and the walk counts the climb from
      ``src``.
    - ``src`` is the root: c is ``src``; one climb from ``dst`` gives the
      moves down, in reverse.
    - Otherwise both ends climb in turn until one reaches a node the other
      has passed. That node is c: every common ancestor below it would have
      been met first, by whichever side reached it second.
    """
    if not parent[dst]:
        up = 0
        while src := parent[src]:
            up += 1
        return bytes(up)
    down = bytearray()  # the moves down, collected bottom-up
    if not parent[src]:
        v = dst
        while p := parent[v]:
            down.append(_L if left[p] == v else _R)
            v = p
        down.reverse()
        return down
    if src == dst:
        return b""
    # each node passed -> the P moves from src to it, or the moves from it
    # down to dst
    ups = {src: 0}
    downs = {dst: 0}
    a, b = src, dst
    up = 0
    while True:
        p = parent[a]
        if p:
            up += 1
            if p in downs:
                del down[downs[p]:]
                break
            ups[p] = up
            a = p
        p = parent[b]
        if p:
            down.append(_L if left[p] == b else _R)
            if p in ups:
                up = ups[p]
                break
            downs[p] = len(down)
            b = p
        elif not parent[a]:
            raise MalformedTreeError(src, f"no common ancestor with {dst}")
    down.reverse()
    return bytes(up) + down


def _balanced_parents(n: int) -> list[int]:
    parents = [0] * n
    # (lo, hi, signed parent of the subtree over lo..hi); an explicit stack,
    # as a recursive closure is a reference cycle that outlives the call
    stack = [(1, n, 0)]
    while stack:
        lo, hi, p = stack.pop()
        if lo > hi:
            continue
        mid = (lo + hi) // 2
        parents[mid - 1] = p
        stack.append((lo, mid - 1, -mid))
        stack.append((mid + 1, hi, mid))
    return parents


@dataclass
class VerifyReport:
    """Outcome of replaying a trace against an access sequence.

    A valid report holds, per access, its cost as a list of ints (mostly
    cached small ints) and its hit position as a machine int in an
    ``array('q')``; a failed one holds neither."""

    valid: bool
    failure_index: Optional[int]
    per_access_cost: list[int] = field(default_factory=list)
    visited_boundaries: array[int] = field(default_factory=lambda: array("q"))
    reason: str = ""


def verify_trace(
    t0: ModelTree,
    trace: Trace,
    s: Sequence[int],
    boundaries: Optional[Sequence[int]] = None,
) -> VerifyReport:
    """Replay ``trace`` from a copy of ``t0`` and check it realizes ``s``.

    The finger position before any operation counts as a visit, so the empty
    trace realizes an access to the starting finger. With supplied boundaries
    (defaulting to the trace's own), access i must be visited in the window
    between boundary i-1 and boundary i; the windows share their endpoints,
    which lets a repeated key be served at zero cost; boundaries whose count
    differs from the sequence's are rejected. Only when neither is given are
    first-visit positions used. Illegality is reported, never raised, and an
    illegal op anywhere in the trace is reported ahead of any other failure.

    ``per_access_cost`` splits the trace at the internal boundaries, with the
    last access extending to the end of the trace so costs always sum to the
    trace length. ``visited_boundaries`` records where each key was first
    seen inside its window.

    With boundaries the replay goes window by window and holds only the
    finger positions of the current window and of at most a few thousand
    ops past it. Beyond the tree copy and ``s`` it then holds eight bytes
    per access for the hit positions, a cost slot per access and the
    longest window, not one entry per operation; the boundaries are read in
    place. First-visit mode holds one position per operation.
    """
    total = len(trace.ops)
    m = len(s)
    if boundaries is None and trace.boundaries:
        boundaries = trace.boundaries
    replay = _Replay(t0, trace.ops)
    first_seen = array("q")
    reason = ""
    try:
        if boundaries is None:
            # first-visit mode: greedy subsequence match, repeats may share a position
            replay.advance(total, 0)
            visits = replay.visits
            pos = 0
            for i, key in enumerate(s):
                try:
                    pos = visits.index(key, pos)
                except ValueError:
                    return VerifyReport(False, None, reason=f"key {key} (access {i}) never visited")
                first_seen.append(pos)
            return VerifyReport(True, None, _segment_costs(first_seen, total), first_seen)
        if len(boundaries) != m:
            reason = f"{len(boundaries)} boundaries for {m} accesses"
        else:
            prev = 0
            for i, key in enumerate(s):
                b = boundaries[i]
                if b < prev or b > total:
                    reason = f"boundary {b} out of order at access {i}"
                    break
                if b > replay.applied:
                    replay.advance(b, prev)
                base = replay.base
                try:
                    first_seen.append(base + replay.visits.index(key, prev - base, b - base + 1))
                except ValueError:
                    reason = f"key {key} (access {i}) not visited in ops {prev}..{b}"
                    break
                prev = b
        # an illegal op anywhere outranks every other failure
        while replay.applied < total:
            replay.advance(replay.applied, replay.applied)
    except _IllegalOp as e:
        return e.report
    if reason:
        return VerifyReport(False, None, reason=reason)
    return VerifyReport(True, None, _segment_costs(boundaries, total), first_seen)


# ops replayed ahead of the current window in one step: enough that the
# per-step cost vanishes, few enough that the finger positions held stay small
_REPLAY_STEP = 1 << 12


class _IllegalOp(Exception):
    """Ends a replay at the illegal op with index ``index``; ``report`` is
    the failure :func:`verify_trace` returns."""

    def __init__(self, op: int, finger: int, why: str, index: int):
        reason = str(IllegalOpError(op, finger, why))
        super().__init__(reason)
        self.report = VerifyReport(False, index, reason=reason)


class _Replay:
    """A copy of a start tree that applies a trace's ops in order, holding
    the finger positions from a chosen op onwards."""

    __slots__ = ("ops", "applied", "base", "visits", "left", "right", "parent")

    def __init__(self, t0: ModelTree, ops: bytearray):
        self.ops = ops
        self.applied = 0  # ops applied so far
        self.base = 0  # visits[j] is the finger after base + j ops
        self.visits = [t0.finger]
        self.left, self.right, self.parent = t0.left[:], t0.right[:], t0.parent[:]

    def advance(self, stop: int, keep: int) -> None:
        """Forget the finger positions before op ``keep``, then apply the ops
        up to position ``stop`` and a step beyond it, up to the trace's end.
        Raises :class:`_IllegalOp`."""
        visits = self.visits
        del visits[:keep - self.base]
        self.base = base = keep
        left, right, parent = self.left, self.right, self.parent
        f = visits[-1]
        visit = visits.append
        start = self.applied
        stop = min(len(self.ops), stop + _REPLAY_STEP)
        for op in self.ops[start:stop]:
            if op == _L:
                c = left[f]
                if not c:
                    raise _IllegalOp(op, f, "no left child", base + len(visits) - 1)
                f = c
            elif op == _R:
                c = right[f]
                if not c:
                    raise _IllegalOp(op, f, "no right child", base + len(visits) - 1)
                f = c
            else:
                p = parent[f]
                if not p:
                    raise _IllegalOp(op, f, "finger at root", base + len(visits) - 1)
                if op == _P:
                    f = p
                else:
                    rotate_edge(left, right, parent, f)
            visit(f)
        self.applied = stop


def _segment_costs(bounds: Sequence[int], total: int) -> list[int]:
    """Each access's cost, the last one running to the end of the trace."""
    costs = []
    prev = 0
    for b in bounds:
        costs.append(b - prev)
        prev = b
    if costs:
        costs[-1] += total - prev
    return costs
