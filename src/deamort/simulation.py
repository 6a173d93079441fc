"""Run any BST algorithm on a shadow tree while the real tree stays shallow.

The wrapped algorithm's tree is kept as a virtual shadow: links, per-node
weights, subtree weights, and a solid edge from every non-leaf to its child
with the largest subtree weight (ties go left). Maximal solid chains form
heavy paths. The physical tree represents each heavy path from y down to x
as the path end x with two chocolate stacks as its children: the path nodes
smaller than x on the left, those larger on the right, each element carrying
its off-path subtree (a recursively represented block) in its payload slot.
The path from the virtual root to the virtual finger is held the same way,
upside down, directly under the physical root, which is always the node the
virtual finger is on.

Every virtual operation then becomes a constant number of rotations next to
the physical root plus stack rebalancing, so the physical finger starts and
ends each burst at the physical root and every node's physical depth stays
logarithmic in the weight ratio. Virtual bookkeeping is free; only physical
operations are counted, appended to the simulator's one ``trace``.

Both layouts start from a copy of the original tree's links. The eager
layout builds every block over them at construction. In lazy mode each
subtree stays in its original shape until the finger first enters it; the
block builder, run silently on the live arrays, finds the region's target
shape, and counted rotations (:mod:`deamort.restructure`) take the heavy
path of k nodes there through a canonical vine-like shape in O(k) ops,
leaving its hanging subtrees raw in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterable, Optional, Sequence

from .algorithms import OnlineBstAlgorithm, Stream
from .model import _L, _P, _R, _U, _U1, IllegalOpError, ModelTree, Trace, rotate_edge, walk_ops
from .poptart import ChocolatePopTart
from .restructure import LazyRestructuring


class VirtualTree(ModelTree):
    """Shadow copy of the wrapped algorithm's tree, finger included, with
    weight bookkeeping: per-node weights ``w`` and subtree weights ``wsub``."""

    __slots__ = ("w", "wsub")

    def __init__(self, tree: ModelTree, weights: Optional[Sequence[float]] = None):
        self._link(tree.left[:], tree.right[:], tree.parent[:], tree.root)
        self.finger = tree.finger
        n = self.n
        if weights is None:
            self.w = [0.0] + [1.0] * n
        else:
            if len(weights) != n:
                raise ValueError(f"need {n} weights, got {len(weights)}")
            if any(not wt > 0 for wt in weights):
                raise ValueError("weights must be positive")
            try:
                self.w = [0.0] + [float(x) for x in weights]
            except OverflowError:  # an int past the largest float
                raise ValueError("weights must be finite, and so must their sum") from None
        self.wsub = [0.0] * (n + 1)
        for v in self._postorder():
            self.wsub[v] = self.w[v] + self.wsub[self.left[v]] + self.wsub[self.right[v]]
        if self.wsub[self.root] == inf:  # log2(W/w) would bound no depth
            raise ValueError("weights must be finite, and so must their sum")

    def solid(self, v: int) -> int:
        """v's solid child: the one with the larger subtree weight, ties
        going left; 0 for a leaf (weights are positive and ``wsub[0]`` is 0)."""
        l, r = self.left[v], self.right[v]
        return l if self.wsub[l] >= self.wsub[r] else r

    def heavy_path(self, v: int) -> list[int]:
        """The solid path from v down to the leaf that ends it."""
        path = [v]
        while s := self.solid(path[-1]):
            path.append(s)
        return path

    def apply_rotation(self) -> int:
        """Rotate the virtual finger, which must not be the root, over its
        parent; returns the old parent."""
        x = self.finger
        p = rotate_edge(self.left, self.right, self.parent, x)
        if not self.parent[x]:
            self.root = x
        self.wsub[x] = self.wsub[p]
        self.wsub[p] = self.w[p] + self.wsub[self.left[p]] + self.wsub[self.right[p]]
        if self._stale is not None:
            self.mark_stale((p, x))
        return p


@dataclass(slots=True)
class _BlockCtl:
    """A built block's record: the stacks of its path nodes smaller (``L``)
    and larger (``R``) than its end, and its entry, the top of its heavy
    path. A side's stack is None until the first push onto it creates it,
    and is kept once it has emptied again. A raw subtree has no record; it
    is a member of ``Simulator.raw``."""

    entry: int
    L: Optional[ChocolatePopTart] = None
    R: Optional[ChocolatePopTart] = None


class PathStackError(RuntimeError):
    """The virtual finger's parent is not on top of its finger-path stack."""


@dataclass
class SimCounters:
    physical_ops: int = 0
    virtual_ops: int = 0
    restructure_ops: int = 0
    max_height: int = 0


class Simulator(LazyRestructuring, ModelTree):
    """Physical world for one wrapped algorithm run: the physical tree
    itself, a :class:`ModelTree` over its own link arrays, so ``root``,
    ``finger``, ``hgt``, :meth:`check_bst` and :meth:`copy` are its own, and
    ``tree`` of every layer of a wrapped chain is this object.

    The simulator is also the engine of every chocolate stack it holds:
    the physical link arrays, ``weight``, ``wsub``, ``key``, ``is_leaf`` (a
    block root fills a payload slot) and ``rotate_up``.

    It keeps ``hgt`` exact after every counted rotation, so :meth:`height`
    is a read. :meth:`rotate_up` is :meth:`_rotate`, which does no height
    work, followed by a recompute of both ends of the rotated edge and a
    climb until a height comes out unchanged (:meth:`_climb_heights`). A
    virtual op that rotates one node several times in a row does it as one
    batch, which rotates with no height work, appends its U ops, and then
    makes one pass over the nodes it rotated, children first, climbing from
    the topmost:

    - :meth:`_lift_to_root` lifts a node over all its ancestors, and from
      the root it reads the walk down off the same climb;
    - :meth:`_sink_into_block` lifts several nodes in turn over one node,
      then the root of that node's heavier block, restructured first if it
      is still a raw subtree, and pushes the node onto that block's stack;
    - :meth:`_vrotate` rotates nothing before its sink: the path parent
      pops off its stack where it stands, under the root.

    Lazy restructuring rotates a region into shape with :meth:`_rotate` and
    makes one pass over the region afterwards.

    The finger moves by :meth:`walk_to`, which reads a hop to a child, the
    parent, a grandchild or a sibling straight off the links and leaves
    only longer walks to :func:`walk_ops`; inside a sink, every hop after
    the first, and the one to a built block's root, is two edges down.
    :meth:`apply_virtual`'s closing walk to the root is the finger's depth
    in P ops, counted in place.

    The per-node state is flat: the link, ``wsub`` and height arrays, the
    ``next_bit`` bytearray, which holds for every path node whether the
    next node down its path is smaller than the path's end, and one
    ``_BlockCtl`` per built block in ``blocks``, keyed by the block's end.
    A block side gets its stack on its first push."""

    def __init__(self, vt: VirtualTree, lazy: bool = False):
        if vt.finger != vt.root:
            raise ValueError("wrap the algorithm before its first access: the "
                             "initial layout needs the virtual finger on the root")
        self.vt = vt
        # both layouts start from the original links; _hang builds the eager
        # blocks over them below, lazy ones are built on first entry
        self._link(vt.left[:], vt.right[:], vt.parent[:], vt.root)
        n = self.n
        self.weight = vt.w
        self.key = range(n + 1)
        self._lazy = lazy
        self.wsub = vt.wsub[:]
        self.blocks: dict[int, _BlockCtl] = {}
        self.next_bit = bytearray(n + 1)
        self.raw: set[int] = set()
        self.counters = SimCounters()
        self.trace = Trace()
        self._building = True
        # the finger-path stacks: left side flipped, right side normal
        self.zL = ChocolatePopTart(mirror=True, engine=self)
        self.zR = ChocolatePopTart(mirror=False, engine=self)
        f = vt.finger
        for c in (vt.left[f], vt.right[f]):
            if c:
                x = self._hang(c)
                if c < f:
                    self.left[f] = x
                else:
                    self.right[f] = x
                self.parent[x] = f
        self.wsub[f] = self.weight[f] + self.wsub[self.left[f]] + self.wsub[self.right[f]]
        self._recompute_heights()
        self._building = False

    @property
    def pt(self) -> "Simulator":
        """The simulator itself, kept only because the benchmark harness
        (``perfbench/harness.py``) reads ``sim.pt.finger``."""
        return self

    def height(self) -> int:
        """The physical tree's height, read off ``hgt``, which every counted
        rotation keeps exact."""
        return self.hgt[self.root]

    # -- construction ---------------------------------------------------------

    def _hang(self, c: int) -> int:
        """Lay out virtual subtree c below its holder; returns its physical
        root. Eager layout builds its block form now; lazy layout leaves it
        in its original shape until the finger enters it."""
        if not self._lazy:
            return self._build_block(c)
        self.raw.add(c)
        return c

    def _build_block(self, v: int) -> int:
        """Assemble the block for virtual subtree v; returns its physical root.

        v's nodes start in v's original shape, where the heavy path ends at
        a leaf, so the links written are exact."""
        vt = self.vt
        path = vt.heavy_path(v)
        x = path[-1]
        ctl = self.blocks[x] = _BlockCtl(v)
        self.wsub[x] = self.weight[x]
        for i in range(len(path) - 2, -1, -1):
            u = path[i]
            succ = path[i + 1]
            self.next_bit[u] = succ < x
            hang = vt.left[u] if vt.right[u] == succ else vt.right[u]
            hx = self._hang(hang) if hang else 0
            if u < x:
                old = self.left[x]
                self.left[u] = hx
                self.right[u] = old
                self.left[x] = u
                side = ctl.L
                if side is None:
                    side = ctl.L = ChocolatePopTart(engine=self)
            else:
                old = self.right[x]
                self.right[u] = hx
                self.left[u] = old
                self.right[x] = u
                side = ctl.R
                if side is None:
                    side = ctl.R = ChocolatePopTart(mirror=True, engine=self)
            if hx:
                self.parent[hx] = u
            if old:
                self.parent[old] = u
            self.parent[u] = x
            self.wsub[u] = self.weight[u] + self.wsub[hx] + self.wsub[old]
            self.wsub[x] += self.weight[u] + self.wsub[hx]
            side.push_arrived(u)
        return x

    # -- physical op plumbing ---------------------------------------------------

    def is_leaf(self, v: int) -> bool:
        return v in self.blocks or v in self.raw

    def walk_to(self, v: int) -> None:
        """Walk the finger to v. A hop of one or two edges (to a child, the
        parent, a grandchild or a sibling) is read straight off the links;
        only a longer walk goes through :func:`walk_ops`."""
        f = self.finger
        if f == v:
            return
        left, parent = self.left, self.parent
        ops = self.trace.ops
        q = parent[v]
        if q == f:
            ops.append(_L if left[f] == v else _R)
        elif q and parent[q] == f:
            ops.append(_L if left[f] == q else _R)
            ops.append(_L if left[q] == v else _R)
        elif parent[f] == v:
            ops.append(_P)
        elif parent[f] == q:
            # siblings: f is not the root, or v, with no parent either, would be f
            ops.append(_P)
            ops.append(_L if left[q] == v else _R)
        else:
            ops += walk_ops(left, parent, f, v)
        self.finger = v

    def _rotate(self, v: int) -> int:
        """Rotate node v over its parent, maintaining subtree weights, but no
        height; returns the old parent. Silent while a block is built;
        otherwise the finger walks to v first, the rotation is counted and
        the physical root kept current."""
        parent = self.parent
        if not parent[v]:
            raise IllegalOpError(_U, v, "rotate at the physical root")
        counted = not self._building
        if counted and self.finger != v:
            self.walk_to(v)
        left, right, wsub = self.left, self.right, self.wsub
        p = rotate_edge(left, right, parent, v)
        wsub[v] = wsub[p]
        wsub[p] = self.weight[p] + wsub[left[p]] + wsub[right[p]]
        if counted:
            self.trace.ops.append(_U)
            if not parent[v]:
                self.root = v
        return p

    def rotate_up(self, v: int) -> None:
        """:meth:`_rotate`, then, for a counted rotation, the height climb."""
        p = self._rotate(v)
        if not self._building:
            self._climb_heights((p, v))

    def _lift_to_root(self, v: int) -> None:
        """Walk the finger to v and rotate v up to the physical root: one
        counted run of moves and rotations, as :meth:`walk_to` and many
        :meth:`rotate_up` calls would emit, with one height pass instead of
        a climb per rotation. From the root, the walk down is the path the
        lift climbs back, so its L/R moves are read off while lifting; from
        anywhere else (after a lazy restructure) :meth:`walk_to` goes first.
        Each old ancestor p of v keeps one subtree and takes over, from v, a
        subtree that is either v's own or an ancestor lifted over before p;
        so the ancestors in lifting order, then v, list children before
        parents."""
        left, right, parent, wsub, weight = self.left, self.right, self.parent, self.wsub, self.weight
        ops = self.trace.ops
        from_root = self.finger == self.root
        if not from_root:
            self.walk_to(v)
        down = bytearray()  # the walk from the root, bottom-up
        lifted = []
        while p := parent[v]:
            down.append(_L if left[p] == v else _R)
            rotate_edge(left, right, parent, v)
            wsub[v] = wsub[p]
            wsub[p] = weight[p] + wsub[left[p]] + wsub[right[p]]
            lifted.append(p)
        if from_root:
            down.reverse()
            ops += down
        ops += _U1 * len(lifted)
        self.root = self.finger = v
        lifted.append(v)
        self._climb_heights(lifted)

    def _sink_into_block(self, x: int, over: Sequence[int]) -> None:
        """Rotate each node of ``over`` in turn over x, whose child it must
        be when its turn comes, then push x onto the stack of its heavier
        side, forming the block for subtree(x). x sinks one level per
        counted rotation, the finger walked to each node first, and ends
        under the nodes of ``over`` in reverse, each hanging from the one
        before it; ``over`` is empty after a pop that emptied x's stack, and
        the root changes only if ``over[0]`` rises to it. The heavier side,
        restructured first if it is still a raw subtree, has its block root
        xT lifted over x as one more such rotation, and one height pass over
        x, xT and ``over`` in reverse, children before parents, covers both.
        A restructure's own pass may climb through the sink's stale heights;
        the final pass recomputes each of them."""
        left, right, parent, wsub, weight = self.left, self.right, self.parent, self.wsub, self.weight
        ops = self.trace.ops
        for v in over:
            self.walk_to(v)
            rotate_edge(left, right, parent, v)
            wsub[v] = wsub[x]
            wsub[x] = weight[x] + wsub[left[x]] + wsub[right[x]]
            ops.append(_U)
        if over and not parent[over[0]]:
            self.root = over[0]
        vt = self.vt
        s = vt.solid(x)
        if not s:
            self._climb_heights((x, *reversed(over)))
            self.blocks[x] = _BlockCtl(x)
            return
        on_right = s == vt.right[x]
        xT = right[x] if on_right else left[x]
        if xT in self.raw:
            xT = self._restructure(xT)
        self._rotate(xT)
        self._climb_heights((x, xT, *reversed(over)))
        ctl = self.blocks[xT]
        if on_right:
            side = ctl.L
            if side is None:
                side = ctl.L = ChocolatePopTart(engine=self)
        else:
            side = ctl.R
            if side is None:
                side = ctl.R = ChocolatePopTart(mirror=True, engine=self)
        side.push_arrived(x)
        self.next_bit[x] = ctl.entry < xT
        ctl.entry = x

    def _climb_heights(self, nodes: Iterable[int]) -> None:
        """Recompute the heights of ``nodes``, listed children before
        parents, then climb from the last one's parent until a height comes
        out unchanged. Every node whose subtree changed shape must be listed
        or lie on that climb, as both ends of a rotated edge do."""
        hgt, left, right, parent = self.hgt, self.left, self.right, self.parent
        for v in nodes:
            a, b = hgt[left[v]], hgt[right[v]]
            hgt[v] = (a if a > b else b) + 1
        v = parent[v]
        while v:
            a, b = hgt[left[v]], hgt[right[v]]
            h = (a if a > b else b) + 1
            if hgt[v] == h:
                return
            hgt[v] = h
            v = parent[v]

    # -- virtual op application --------------------------------------------------

    def apply_virtual(self, op: int) -> int:
        """Apply one virtual operation, appending its physical burst to
        ``self.trace``; returns the burst's op count. The burst starts and
        ends with the physical finger on the physical root."""
        ops = self.trace.ops
        start = len(ops)
        if op == _L:
            self._vmove_down(False)
        elif op == _R:
            self._vmove_down(True)
        elif op == _P:
            self._vmove_up()
        else:
            self._vrotate()
        # the closing walk to the root: one P per level of the finger's depth
        parent = self.parent
        v = self.finger
        depth = 0
        while v := parent[v]:
            depth += 1
        ops += bytes(depth)
        self.finger = root = self.root
        burst = len(ops) - start
        self.counters.virtual_ops += 1
        self.counters.physical_ops += burst
        h = self.hgt[root]
        if h > self.counters.max_height:
            self.counters.max_height = h
        return burst

    def _vmove_down(self, to_right: bool) -> None:
        vt = self.vt
        f = vt.finger
        g = vt.right[f] if to_right else vt.left[f]
        if not g:
            raise IllegalOpError(_R if to_right else _L, f, "no child in the virtual tree")
        move_side = self.zR if to_right else self.zL
        recv_side = self.zL if to_right else self.zR
        prev = vt.parent[f]
        if prev:
            # f joins the path; record which side its successor g lies on
            self.next_bit[prev] = f < g
        wstar = move_side.top_element()
        xB = move_side.pchild(wstar) if wstar else (self.right[f] if to_right else self.left[f])
        if xB in self.raw:
            xB = self._restructure(xB)
        self._lift_to_root(g)
        if g == xB:
            del self.blocks[g]
        else:
            ctl = self.blocks[xB]
            (ctl.L if g < xB else ctl.R).pop_extracted()
            ctl.entry = vt.solid(g)
        recv_side.push_arrived(f)
        vt.finger = g

    def _vmove_up(self) -> None:
        vt = self.vt
        f = vt.finger
        p = vt.parent[f]
        if not p:
            raise IllegalOpError(_P, f, "virtual finger at root")
        p_on_left = p < f
        zone_p = self.zL if p_on_left else self.zR
        zone_o = self.zR if p_on_left else self.zL
        if zone_p.top_element() != p:
            raise PathStackError(f"path parent {p} does not top its stack")
        wstar_o = zone_o.top_element()
        self._sink_into_block(f, (p, wstar_o) if wstar_o else (p,))
        zone_p.pop_extracted()
        vt.finger = p

    def _vrotate(self) -> None:
        vt = self.vt
        f = vt.finger
        p = vt.parent[f]
        if not p:
            raise IllegalOpError(_U, f, "virtual finger at root")
        p_on_left = p < f
        zone_p = self.zL if p_on_left else self.zR
        if zone_p.top_element() != p:
            raise PathStackError(f"path parent {p} does not top its stack")
        vt.apply_rotation()
        # p stays where it is, f's child: the pop restores only the stack
        # below p, then p sinks into the slot that already holds its own
        # hanging subtree, under the stack's new top u if the pop left one
        zone_p.pop_extracted()
        u = zone_p.top_element()
        self._sink_into_block(p, (u,) if u else ())

    # -- verification helpers ---------------------------------------------------

    def check_state(self) -> list[str]:
        """Structural audit of the whole physical world."""
        errors = []
        if not self.check_bst():
            errors.append("physical symmetric order broken")
        if self.finger != self.root:
            errors.append("physical finger away from root between accesses")
        for z, name in ((self.zL, "zoneL"), (self.zR, "zoneR")):
            rep = z.check_invariants()
            if not rep.ok:
                errors.extend(f"{name}: {e}" for e in rep.errors)
        for x, ctl in self.blocks.items():
            for side, name in ((ctl.L, "L"), (ctl.R, "R")):
                if side is None:
                    continue
                rep = side.check_invariants()
                if not rep.ok:
                    errors.extend(f"block {x}/{name}: {e}" for e in rep.errors)
        return errors

    def depth_bound_violations(self, mult: float, add: float) -> list[int]:
        """Keys whose physical depth exceeds mult*log2(W/w) + add."""
        from math import log2

        W = self.vt.wsub[self.vt.root]
        bad = []
        stack = [(self.root, 0)]
        while stack:
            v, d = stack.pop()
            if d > mult * log2(W / self.weight[v]) + add:
                bad.append(v)
            if self.left[v]:
                stack.append((self.left[v], d + 1))
            if self.right[v]:
                stack.append((self.right[v], d + 1))
        return bad


# -- public surface --------------------------------------------------------------


class WrappedAlgorithm(OnlineBstAlgorithm):
    """Runs the inner algorithm on the shadow tree, emitting physical ops
    into the simulator's trace; each access empties the inner trace. Its
    ``tree`` and ``sim`` are both the simulator, the physical tree."""

    def __init__(self, inner: OnlineBstAlgorithm, weights: Optional[Sequence[float]] = None,
                 lazy: bool = False):
        self.inner = inner
        vt = VirtualTree(inner.tree, weights)
        self.sim = Simulator(vt, lazy=lazy)
        self.tree = self.sim
        self.n = inner.n
        self.trace = self.sim.trace

    def access_stream(self, key: int) -> Stream:
        """One burst per virtual op, the last flagged; an access of no
        virtual ops is one empty last burst."""
        virtual = self.inner.trace
        self.inner.access(key)
        ops = virtual.ops[:]
        del virtual.ops[:], virtual.boundaries[:]
        last = ops.pop() if ops else None
        for op in ops:
            yield self.sim.apply_virtual(op), False
        yield (0 if last is None else self.sim.apply_virtual(last)), True


def wrap(inner: OnlineBstAlgorithm, weights: Optional[Sequence[float]] = None,
         lazy: bool = False) -> WrappedAlgorithm:
    return WrappedAlgorithm(inner, weights, lazy)


def decode_virtual(sim: Simulator) -> tuple[list[int], list[int], int]:
    """Rebuild the virtual links from the physical tree plus per-node tags.

    Uses only: the physical structure, the hanging-root markers (a raw
    subtree is its own entry), the per-node next-on-path side bits, the
    per-block entry, and the virtual root key.
    """
    n = sim.n
    vleft = [0] * (n + 1)
    vright = [0] * (n + 1)

    def region(anchor: int) -> tuple[list[int], list[int]]:
        elems: list[int] = []
        hangs: list[int] = []
        stack = [anchor] if anchor else []
        while stack:
            v = stack.pop()
            if sim.is_leaf(v):
                hangs.append(v)
                continue
            elems.append(v)
            if sim.left[v]:
                stack.append(sim.left[v])
            if sim.right[v]:
                stack.append(sim.right[v])
        return elems, hangs

    def max_key(b: int) -> int:
        while sim.right[b]:
            b = sim.right[b]
        return b

    def copy_raw(b: int) -> None:
        stack = [b]
        while stack:
            v = stack.pop()
            vleft[v], vright[v] = sim.left[v], sim.right[v]
            stack += [c for c in (vleft[v], vright[v]) if c]

    def link_region(top: int, end: int) -> None:
        """Reconstruct the path from ``top`` down to ``end`` plus hangings."""
        le, lh = region(sim.left[end])
        re_, rh = region(sim.right[end])
        lq = sorted(le)
        rq = sorted(re_, reverse=True)
        li = ri = 0
        path = []
        cur = top
        while cur != end:
            path.append(cur)
            if li < len(lq) and lq[li] == cur:
                li += 1
            elif ri < len(rq) and rq[ri] == cur:
                ri += 1
            if li == len(lq) and ri == len(rq):
                cur = end
            elif li == len(lq):
                cur = rq[ri]
            elif ri == len(rq):
                cur = lq[li]
            else:
                cur = lq[li] if sim.next_bit[cur] else rq[ri]
        path.append(end)
        for i in range(len(path) - 1):
            u, s = path[i], path[i + 1]
            if s < u:
                vleft[u] = s
            else:
                vright[u] = s
        for b in lh + rh:
            # b hangs from the path node where the path turns away from b's keys
            hi = max_key(b)
            i = 0
            while i + 1 < len(path) and (path[i + 1] < path[i]) == (hi < path[i]):
                i += 1
            holder = path[i]
            raw = b in sim.raw
            ent = b if raw else sim.blocks[b].entry
            if hi < holder:
                vleft[holder] = ent
            else:
                vright[holder] = ent
            if raw:
                copy_raw(b)
            else:
                link_region(ent, b)

    link_region(sim.vt.root, sim.root)
    return vleft, vright, sim.vt.root


def dump_state(sim: Simulator) -> str:
    """Debug rendering: the finger-path stacks, then every block with its
    entry and the kind of virtual edge it hangs from."""
    vt = sim.vt
    out = [f"finger {sim.root}"]
    for z, name in ((sim.zL, "L"), (sim.zR, "R")):
        txt = z.dump()
        for line in txt.splitlines():
            out.append(f"  [{name}] " + line)
    for x in sorted(sim.blocks.keys() | sim.raw):
        ent = x if x in sim.raw else sim.blocks[x].entry
        vp = vt.parent[ent]
        lab = "solid" if vp and vt.solid(vp) == ent else "dotted"
        if x in sim.raw:
            out.append(f"block {x} [{lab}] [raw] ({sim.wsub[x]:g})")
            continue
        out.append(f"block end {x} entry {ent} [{lab}] ({sim.wsub[x]:g})")
        ctl = sim.blocks[x]
        for side, name in ((ctl.L, "L"), (ctl.R, "R")):
            if side is None:
                continue
            for line in side.dump().splitlines():
                out.append(f"  [{name}] " + line)
    return "\n".join(out) + "\n"
