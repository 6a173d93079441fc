"""Stacks implemented inside binary search trees with bounded height.

A pop-tart is a BST region acting as a stack: elements arrive as the parent
of the current stack root (keys strictly decreasing across pushes for the
normal orientation), and after every push or pop the structure may rebalance
with rotations before parking the finger back on its root. The root's
payload-side child is always a single leaf, so the most recent element is
always exposed.

Three variants are provided:

* ``vanilla``   - no rebalancing at all; a linear spine. Keeps every leaf of
  weight w at depth <= 1 + log2(W/w) provided each pushed leaf outweighs the
  whole current stack.
* ``cherry``    - layers of 1..3 nodes along the spine whose side subtrees
  (crumbs) are perfect trees of 2^i leaves. Constant amortized work per
  operation and height O(log n) for unit weights.
* ``chocolate`` - cherry layers extended with a per-layer next node and an
  icing, a vanilla stack of frosted (frozen) former layers maintained so that
  each live successor layer weighs less than the icing beside it. Keeps every
  leaf of weight w at depth <= 6 + 7*log2(W/w) for arbitrary weights.

Each kind speaks one stack protocol, defined in its own class:
``push_arrived(elem)`` once elem is the stack root with its payload in place,
``pop_extracted()`` once the top element has been rotated out. Both keep
``size`` and rebalance; a chocolate stack also owns its ``base``, set on the
push into an empty stack and cleared by the pop that empties it.

The structure logic reaches the tree through one small engine contract: the
link and weight arrays ``left``, ``right``, ``parent``, ``weight``, ``wsub``
and ``key`` (entry 0 is the absent node and weighs 0), ``is_leaf(v)`` for the
payload slots, and ``rotate_up(v)``, which rotates v over its parent keeping
``wsub`` current. A pop-tart built without an engine owns a
``StandaloneEngine``; its ``push`` and ``pop`` create or detach an element
with synthesized keys (decreasing in the normal orientation) around the
protocol, and the engine accounts every finger move and rotation and tracks
the stack's slack. A pop-tart given an engine is embedded: the simulator
passes itself, moves the elements in its own tree and calls the protocol.

The simulator embeds up to two stacks per heavy-path block, so a stack is
kept small: every kind and ``_Layer`` has ``__slots__``, a chocolate
stack's ``frozen`` dict is created by its first frost, and the simulator
creates a block side's stack on its first push.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .model import _L, _P, _R, _U, IllegalOpError, rotate_edge, walk_ops


class PopTartError(ValueError):
    pass


class PopTartEmptyError(PopTartError):
    pass


class PopTartStructureError(PopTartError):
    """The layer bookkeeping disagrees with the tree it describes."""


@dataclass
class PopTartLeaf:
    """A pushed stack entry: an id and a positive weight."""

    id: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise PopTartError(f"leaf weight must be positive, got {self.weight}")


@dataclass
class InvariantReport:
    ok: bool
    errors: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.ok = False
        self.errors.append(msg)


class StandaloneEngine:
    """Self-contained node arena with finger tracking and op accounting.

    Node ids are small ints; id 0 is the absent link. The leaves are the
    nodes in ``leaf_rec``, each mapped to its pushed record. Every finger
    move and rotation appends its op code to the ``ops`` bytearray.

    A leaf of weight w scores ``coef*log2(w)``, any other node -inf, and
    ``aug[v]`` is the greatest score plus depth below v, so the root's is
    the stack's slack; :meth:`climb` keeps it exact after a push or rotation.
    """

    def __init__(self, coef: float):
        self.left = [0]
        self.right = [0]
        self.parent = [0]
        self.weight = [0.0]
        self.wsub = [0.0]
        self.key = [0]
        self.score = [float("-inf")]
        self.aug = [float("-inf")]
        self.leaf_rec: dict[int, PopTartLeaf] = {}
        self.root = 0
        self.finger = 0
        self.ops = bytearray()
        self.coef = coef
        self.keys_used = 0
        self.total_leaf_weight = 0.0

    def is_leaf(self, v: int) -> bool:
        return v in self.leaf_rec

    def new_node(self, key: int, weight: float, rec: Optional[PopTartLeaf] = None) -> int:
        """Append an unlinked node; a node given a record is a leaf."""
        self.left.append(0)
        self.right.append(0)
        self.parent.append(0)
        self.weight.append(weight)
        self.wsub.append(weight)
        self.key.append(key)
        score = self.coef * math.log2(weight) if rec is not None else float("-inf")
        self.score.append(score)
        self.aug.append(score)
        v = len(self.left) - 1
        if rec is not None:
            self.leaf_rec[v] = rec
        return v

    # -- op emission ---------------------------------------------------------

    def walk_to(self, v: int) -> None:
        self.ops.extend(walk_ops(self.left, self.parent, self.finger, v))
        self.finger = v

    def rotate_up(self, v: int) -> None:
        """Walk the finger to v and rotate it over its parent."""
        self.walk_to(v)
        if not self.parent[v]:
            raise IllegalOpError(_U, v, "rotate at root")
        p = rotate_edge(self.left, self.right, self.parent, v)
        if not self.parent[v]:
            self.root = v
        self.ops.append(_U)
        wsub = self.wsub
        wsub[v] = wsub[p]
        wsub[p] = self.weight[p] + wsub[self.left[p]] + wsub[self.right[p]]
        self.climb((p, v))

    def climb(self, nodes: Iterable[int]) -> None:
        """Recompute ``aug`` at ``nodes``, listed children before parents, then
        climb from the last one's parent until a value comes out unchanged."""
        aug, score, left, right, parent = self.aug, self.score, self.left, self.right, self.parent
        for v in nodes:
            aug[v] = max(score[v], aug[left[v]] + 1, aug[right[v]] + 1)
        v = parent[v]
        while v:
            a = max(score[v], aug[left[v]] + 1, aug[right[v]] + 1)
            if aug[v] == a:
                return
            aug[v] = a
            v = parent[v]

    def leaf_depth(self, lf: int) -> int:
        d = 0
        while self.parent[lf]:
            lf = self.parent[lf]
            d += 1
        return d

    def in_order_keys(self) -> list[int]:
        out: list[int] = []
        stack: list[int] = []
        v = self.root
        while stack or v:
            while v:
                stack.append(v)
                v = self.left[v]
            v = stack.pop()
            out.append(self.key[v])
            v = self.right[v]
        return out


@dataclass(slots=True)
class _Layer:
    regs: list[int]
    next_node: int = 0
    icing: list[int] = field(default_factory=list)
    icing_base: int = 0
    thaw_debt: bool = False


class _PopTartBase:
    """A stack's layer bookkeeping over an engine's tree.

    The engine contract: ``left``, ``right``, ``parent``, ``weight``, ``wsub``
    and ``key`` arrays indexed by node id, entry 0 being the absent node of
    weight 0; ``is_leaf(v)``, true for the nodes that fill payload slots; and
    ``rotate_up(v)``, which rotates v over its parent and keeps ``wsub``
    current. The orientation lives here: ``mirror`` puts the payloads on the
    right and the rest of the stack on the left, and ``pchild``/``schild``
    read the side lists chosen at construction. Each kind defines
    ``push_arrived`` and ``pop_extracted`` itself; :meth:`push` and
    :meth:`pop` only create or detach the element around them.
    """

    __slots__ = ("embedded", "engine", "mirror", "_pside", "_sside", "size")
    leaf_score_coef: float  # each kind's StandaloneEngine.coef

    def __init__(self, mirror: bool = False, engine=None):
        self.embedded = engine is not None
        if engine is None:
            engine = StandaloneEngine(self.leaf_score_coef)
        self.engine = engine
        self.mirror = mirror
        self._pside = engine.right if mirror else engine.left
        self._sside = engine.left if mirror else engine.right
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def pchild(self, v: int) -> int:
        """v's payload-side child."""
        return self._pside[v]

    def schild(self, v: int) -> int:
        """v's stack-side child: the rest of the stack below v."""
        return self._sside[v]

    def push(self, leaf: PopTartLeaf) -> int:
        """Standalone push: the element arrives as the parent of the stack
        root, its leaf in the payload slot, then the stack rebalances;
        returns the number of ops appended to the engine's ``ops``."""
        eng = self.engine
        start = len(eng.ops)
        old = eng.root
        eng.keys_used += 1
        # even element keys; payload leaves take the odd neighbor
        key = 2 * eng.keys_used if self.mirror else -2 * eng.keys_used
        e = eng.new_node(key, 1.0)
        lf = eng.new_node(key + (1 if self.mirror else -1), leaf.weight, leaf)
        self._pside[e] = lf
        eng.parent[lf] = e
        if old:
            self._sside[e] = old
            eng.parent[old] = e
            eng.ops.append(_P)  # the finger climbs onto the newly arrived parent
        eng.wsub[e] = eng.weight[e] + eng.wsub[lf] + eng.wsub[old]
        eng.climb((e,))
        eng.root = eng.finger = e
        eng.total_leaf_weight += leaf.weight
        self.push_arrived(e)
        eng.walk_to(eng.root)
        return len(eng.ops) - start

    def pop(self) -> tuple[PopTartLeaf, int]:
        """Standalone pop: detach the root element and its leaf; the finger
        moves onto the new stack root, then the stack rebalances. Returns
        the record and the op count, as :meth:`push` does."""
        if self.size == 0:
            raise PopTartEmptyError("pop from empty stack")
        eng = self.engine
        start = len(eng.ops)
        top = eng.root
        lf = self._pside[top]
        if not eng.is_leaf(lf):
            raise PopTartStructureError(f"stack root {top} has no payload leaf")
        rec = eng.leaf_rec.pop(lf)
        nxt = self._sside[top]
        if nxt:
            eng.ops.append(_L if self.mirror else _R)
            eng.parent[nxt] = 0
        eng.root = eng.finger = nxt
        eng.total_leaf_weight -= rec.weight
        self.pop_extracted()
        eng.walk_to(eng.root)
        return rec, len(eng.ops) - start

    def total_weight(self) -> float:
        return self.engine.total_leaf_weight

    def leaf_depths(self) -> list[tuple[float, int]]:
        """(weight, depth) for every live leaf."""
        eng = self.engine
        return [(eng.weight[lf], eng.leaf_depth(lf)) for lf in eng.leaf_rec]

    def max_leaf_slack(self) -> float:
        """max over leaves of depth + coef*log2(w); -inf when empty."""
        return self.engine.aug[self.engine.root]


class VanillaPopTart(_PopTartBase):
    """No rebalancing; push and pop cost O(1) each."""

    __slots__ = ("elems",)
    leaf_score_coef = 1.0

    def __init__(self, mirror: bool = False):
        super().__init__(mirror)
        self.elems: list[int] = []

    def push_arrived(self, elem: int) -> None:
        self.elems.insert(0, elem)
        self.size += 1

    def pop_extracted(self) -> None:
        self.elems.pop(0)
        self.size -= 1

    def check_invariants(self) -> InvariantReport:
        rep = InvariantReport(True)
        eng = self.engine
        _check_inorder(self, rep)
        v = eng.root
        for e in self.elems:
            if v != e:
                rep.fail(f"spine order broken at {e}")
                break
            if not eng.is_leaf(self.pchild(v)):
                rep.fail(f"element {v} payload is not a leaf")
            v = self.schild(v)
        return rep

    def dump(self) -> str:
        eng = self.engine
        out: list[str] = []
        for i, e in enumerate(self.elems):
            lf = self.pchild(e)
            out.append("  " * i + f"elem {eng.key[e]} [icing] ({eng.weight[lf]:g})")
        return "\n".join(out) + ("\n" if out else "")


class CherryPopTart(_PopTartBase):
    """Layered spine with perfect 2^i-leaf crumbs; unit-weight stack."""

    __slots__ = ("layers",)
    leaf_score_coef = 0.0

    def __init__(self, mirror: bool = False):
        super().__init__(mirror)
        self.layers: list[list[int]] = []

    def push_arrived(self, elem: int) -> None:
        if not self.layers:
            self.layers.append([])
        self.layers[0].insert(0, elem)
        self.size += 1
        eng = self.engine
        i = 0
        while i < len(self.layers) and len(self.layers[i]) == 4:
            lay = self.layers[i]
            r4 = lay[3]
            eng.rotate_up(r4)  # merges the two lowest nodes into one crumb
            del lay[2:]
            if i + 1 == len(self.layers):
                self.layers.append([])
            self.layers[i + 1].insert(0, r4)
            i += 1

    def pop_extracted(self) -> None:
        self.layers[0].pop(0)
        self.size -= 1
        eng = self.engine
        i = 0
        while i + 1 < len(self.layers) and not self.layers[i] and self.layers[i + 1]:
            v = self.layers[i + 1].pop(0)
            c = self.pchild(v)
            eng.rotate_up(c)  # splits v's crumb into two layer-i nodes
            self.layers[i] = [c, v]
            i += 1
        while self.layers and not self.layers[-1]:
            self.layers.pop()

    def height(self) -> int:
        eng = self.engine
        return int(eng.aug[eng.root]) if eng.root else 0

    def check_invariants(self) -> InvariantReport:
        rep = InvariantReport(True)
        eng = self.engine
        _check_inorder(self, rep)
        v = eng.root
        for i, lay in enumerate(self.layers):
            if not (1 <= len(lay) <= 3):
                rep.fail(f"layer {i} has {len(lay)} nodes")
            for e in lay:
                if v != e:
                    rep.fail(f"layer {i}: spine order broken at {e}")
                    return rep
                _check_crumb(eng, self.pchild(e), i, rep, f"layer {i} node {e}")
                v = self.schild(v)
        if v:
            rep.fail(f"unexpected spine node {v} after last layer")
        return rep

    def dump(self) -> str:
        eng = self.engine
        out: list[str] = []
        for i, lay in enumerate(self.layers):
            for e in lay:
                out.append("  " * i + f"elem {eng.key[e]} [reg {i}]")
                _dump_crumb(eng, self.pchild(e), i, out, "  " * i + "  ")
        return "\n".join(out) + ("\n" if out else "")


class ChocolatePopTart(_PopTartBase):
    """Layers with next nodes and icings; crazy good for arbitrary weights.

    ``base`` is the original empty-stack leaf, the stack-side child of the
    first element pushed, until the stack empties. Standalone stacks have
    none (0); an embedded stack may sit on top of an opaque subtree whose
    weight counts as the bottom of the topmost layer's icing.

    ``frozen`` maps each frosted element to the layers frozen under it. It
    is None until the first frost creates it, as most stacks never frost.
    """

    __slots__ = ("layers", "frozen", "base")
    leaf_score_coef = 7.0

    def __init__(self, mirror: bool = False, engine=None):
        super().__init__(mirror, engine)
        self.layers: list[_Layer] = []
        self.frozen: Optional[dict[int, list[_Layer]]] = None
        self.base = 0

    # -- structure bookkeeping ------------------------------------------------

    def top_element(self) -> int:
        return self.layers[0].regs[0] if self.layers else 0

    def _layer_top(self, lay: _Layer) -> int:
        if lay.regs:
            return lay.regs[0]
        if lay.next_node:
            return lay.next_node
        return self._icing_root(lay)

    def _icing_root(self, lay: _Layer) -> int:
        if lay.icing:
            return lay.icing[0]
        if lay.icing_base:
            return lay.icing_base
        return self.base if self.layers and lay is self.layers[0] else 0

    def push_arrived(self, elem: int) -> None:
        if not self.size:
            self.base = self.schild(elem)
        if not self.layers:
            self.layers.append(_Layer(regs=[]))
        self.layers[0].regs.insert(0, elem)
        self.size += 1
        eng = self.engine
        i = 0
        while i < len(self.layers) and len(self.layers[i].regs) == 4:
            lay = self.layers[i]
            r3, r4 = lay.regs[2], lay.regs[3]
            eng.rotate_up(r4)  # r3 and the two crumbs fuse into one crumb under r4
            del lay.regs[2:]
            if lay.next_node:
                eng.rotate_up(lay.next_node)  # carry r4 down into the next layer
                self.layers[i + 1].regs.insert(0, r4)
            else:
                lay.next_node = r4
                self.layers.append(_Layer(regs=[], icing_base=r3))
            # the successor layer must stay lighter than the icing beside it
            nxt = self.layers[i + 1]
            if eng.wsub[self._layer_top(nxt)] >= eng.wsub[self._icing_root(lay)]:
                self._frost(i)
                return
            lay.thaw_debt = False
            i += 1

    def _frost(self, i: int) -> None:
        """Freeze the whole suffix below layer i into layer i's icing."""
        lay = self.layers[i]
        nx = lay.next_node
        if self.frozen is None:
            self.frozen = {}
        self.frozen[nx] = self.layers[i + 1:]
        del self.layers[i + 1:]
        lay.next_node = 0
        lay.icing.insert(0, nx)
        lay.thaw_debt = False

    def pop_extracted(self) -> None:
        self.layers[0].regs.pop(0)
        self._pop_restore(0)
        self.size -= 1
        if not self.size:
            self.base = 0

    def _split_down(self, lay: _Layer, nxt: _Layer) -> None:
        """Pull layer ``nxt``'s top node v down into the empty ``lay``,
        splitting v's crumb in two around v's payload child c."""
        eng = self.engine
        v = nxt.regs.pop(0)
        eng.rotate_up(v)
        c = self.pchild(v)
        eng.rotate_up(c)
        lay.regs = [c, v]

    def _defrost(self, lay: _Layer, c: int, top: int) -> None:
        """Rotate the lone frozen crumb c over ``top``; both fill ``lay``."""
        self.engine.rotate_up(c)
        lay.regs = [c, top]

    def _pop_restore(self, start: int) -> None:
        i = start
        while i < len(self.layers) and not self.layers[i].regs:
            lay = self.layers[i]
            if lay.next_node:
                nxt = self.layers[i + 1]
                if nxt.regs:
                    self._split_down(lay, nxt)
                    i += 1
                else:
                    if nxt.next_node or nxt.icing or not nxt.icing_base:
                        raise PopTartStructureError(
                            f"layer {i + 1} has no regular nodes but is not a lone frozen crumb")
                    self._defrost(lay, nxt.icing_base, lay.next_node)
                    lay.next_node = 0
                    self.layers.pop(i + 1)
                    break
            elif lay.icing:
                self._thaw(i)
                break
            elif lay.icing_base:
                break  # legal degenerate last layer: a single bare crumb
            else:
                if i != len(self.layers) - 1:
                    raise PopTartStructureError(
                        f"empty layer {i} above {len(self.layers) - 1 - i} more")
                self.layers.pop()
                break

    def _thaw(self, i: int) -> None:
        """Pop the top frosted subtree of the last layer's icing back to life."""
        lay = self.layers[i]
        e = lay.icing.pop(0)
        suffix = self.frozen.pop(e)
        first = suffix[0]
        if first.regs:
            self._split_down(lay, first)
            lay.next_node = e
            lay.thaw_debt = True
            self.layers[i + 1:] = suffix
            if not first.regs:
                self._pop_restore(i + 1)
        else:
            # frozen at creation: e guards a single bare crumb
            if len(suffix) != 1 or not first.icing_base or first.next_node:
                raise PopTartStructureError(
                    f"frosted element {e} guards no regular nodes but is not a lone crumb")
            self._defrost(lay, first.icing_base, e)

    # -- queries ---------------------------------------------------------------

    def check_invariants(self) -> InvariantReport:
        rep = InvariantReport(True)
        eng = self.engine
        _check_inorder(self, rep)
        top = 0
        if self.layers:
            top = self._layer_top(self.layers[0])
            if not self.embedded and eng.root != top:
                rep.fail(f"stack top {top} is not the tree root {eng.root}")
            self._check_layers(self.layers, rep, top, base=0, frozen_head=False)
        if not self.size and self.base:
            rep.fail(f"empty stack still records base {self.base}")
        # each non-leaf node from the top down to the base is one element
        count, todo = 0, [top]
        while todo:
            v = todo.pop()
            if v and v != self.base and not eng.is_leaf(v):
                count += 1
                todo += eng.left[v], eng.right[v]
        if count != self.size:
            rep.fail(f"{count} elements under the stack top, size {self.size}")
        return rep

    def _check_layers(
        self, layers: list[_Layer], rep: InvariantReport, top: int, base: int, frozen_head: bool
    ) -> None:
        eng = self.engine
        v = top
        for i, lay in enumerate(layers):
            lvl = base + i
            last = i == len(layers) - 1
            hi = 4 if (frozen_head and i == 0) else 3
            if not last and not lay.next_node:
                rep.fail(f"layer {lvl}: interior layer without a next node")
            if lay.next_node and last:
                rep.fail(f"layer {lvl}: next node on last layer record")
            if lay.next_node:
                if not (1 <= len(lay.regs) <= hi):
                    rep.fail(f"layer {lvl}: {len(lay.regs)} regular nodes")
            else:
                if len(lay.regs) > hi:
                    rep.fail(f"layer {lvl}: {len(lay.regs)} regular nodes")
                if not lay.regs and (lay.icing or not lay.icing_base):
                    rep.fail(f"layer {lvl}: empty layer without a lone crumb icing")
            # spine weld: regs chain, then the next node, then the successor layer
            for e in lay.regs:
                if v != e:
                    rep.fail(f"layer {lvl}: expected reg {e} on the spine, found {v}")
                    return
                _check_crumb(eng, self.pchild(e), lvl, rep, f"layer {lvl} reg {e}",
                             allow_empty=self.embedded)
                v = self.schild(v)
            if lay.next_node:
                if v != lay.next_node:
                    rep.fail(f"layer {lvl}: next node {lay.next_node} not on the spine")
                    return
                icing_top = self.schild(lay.next_node)
                v = self.pchild(lay.next_node)
            else:
                icing_top = v
                v = 0
            # icing: vanilla stack of frosted suffixes over an optional bare
            # crumb (or, for the topmost layer, the original base leaf)
            floor = lay.icing_base
            if not floor and self.layers and lay is self.layers[0]:
                floor = self.base
            w_icing = self._icing_root(lay)
            if (icing_top or w_icing) and icing_top != w_icing:
                rep.fail(f"layer {lvl}: icing root {w_icing} not at spine position {icing_top}")
            below = eng.wsub[floor]
            for e in reversed(lay.icing):
                w = eng.wsub[self.pchild(e)]
                if w < below:
                    rep.fail(f"icing element {e} lighter than the stack below it")
                below += w + eng.weight[e]
            cur = icing_top
            for e in lay.icing:
                if cur != e:
                    rep.fail(f"layer {lvl}: icing element {e} not at position {cur}")
                    break
                self._check_layers(
                    self.frozen[e], rep, self.pchild(e), base=lvl + 1, frozen_head=True)
                cur = self.schild(e)
            else:
                if (cur or floor) and cur != floor:
                    rep.fail(f"layer {lvl}: icing floor misplaced")
            if lay.icing_base:
                _check_crumb(eng, lay.icing_base, lvl, rep, f"layer {lvl} icing crumb",
                             allow_empty=self.embedded)
            # live successor stays lighter than this icing, unless just thawed
            if lay.next_node and not lay.thaw_debt:
                nxt = layers[i + 1]
                if eng.wsub[self._layer_top(nxt)] >= eng.wsub[self._icing_root(lay)]:
                    rep.fail(f"layer {lvl}: successor outweighs the icing")

    def dump(self) -> str:
        out: list[str] = []
        self._dump_layers(self.layers, out, indent=0, base=0)
        return "\n".join(out) + ("\n" if out else "")

    def _dump_layers(self, layers: list[_Layer], out: list[str], indent: int, base: int) -> None:
        eng = self.engine
        for i, lay in enumerate(layers):
            lvl = base + i
            pad = "  " * (indent + i)
            for e in lay.regs:
                out.append(pad + f"elem {eng.key[e]} [reg {lvl}]")
                _dump_crumb(eng, self.pchild(e), lvl, out, pad + "  ")
            if lay.next_node:
                out.append(pad + f"elem {eng.key[lay.next_node]} [next {lvl}]")
            for e in lay.icing:
                out.append(pad + f"elem {eng.key[e]} [icing] ({eng.wsub[self.pchild(e)]:g})")
                self._dump_layers(self.frozen[e], out, indent + i + 1, base=lvl + 1)
            if lay.icing_base:
                out.append(pad + f"[icing]")
                _dump_crumb(eng, lay.icing_base, lvl, out, pad + "  ")


def _check_inorder(pt: _PopTartBase, rep: InvariantReport) -> None:
    if pt.embedded:
        return  # the embedding tree validates its own symmetric order
    keys = pt.engine.in_order_keys()
    if any(a >= b for a, b in zip(keys, keys[1:])):
        rep.fail("symmetric key order broken")


# the crumb helpers take any engine, standalone or the simulator
def _crumb_height(eng, v: int) -> int:
    if not v or eng.is_leaf(v):
        return 0
    hl = _crumb_height(eng, eng.left[v])
    hr = _crumb_height(eng, eng.right[v])
    if hl < 0 or hr < 0 or hl != hr:
        return -1
    return hl + 1


def _crumb_slots(eng, v: int) -> int:
    # an absent child inside a crumb is an empty payload slot
    if not v or eng.is_leaf(v):
        return 1
    return _crumb_slots(eng, eng.left[v]) + _crumb_slots(eng, eng.right[v])


def _check_crumb(
    eng, c: int, level: int, rep: InvariantReport, where: str,
    allow_empty: bool = False,
) -> None:
    if not c:
        if not (allow_empty and level == 0):
            rep.fail(f"{where}: missing crumb")
        return
    if _crumb_height(eng, c) < 0:
        rep.fail(f"{where}: crumb not perfectly balanced")
    n = _crumb_slots(eng, c)
    if n != (1 << level):
        rep.fail(f"{where}: crumb has {n} slots, expected {1 << level}")


def _dump_crumb(eng, c: int, level: int, out: list[str], pad: str) -> None:
    if not c:
        return
    if eng.is_leaf(c):
        out.append(pad + f"leaf {eng.key[c]} ({eng.weight[c]:g})")
        return
    out.append(pad + f"node {eng.key[c]} [crumb {level}]")
    _dump_crumb(eng, eng.left[c], level, out, pad + "  ")
    _dump_crumb(eng, eng.right[c], level, out, pad + "  ")


_KINDS = {"vanilla": VanillaPopTart, "cherry": CherryPopTart, "chocolate": ChocolatePopTart}


def make_poptart(kind: str, mirror: bool = False) -> _PopTartBase:
    try:
        ctor = _KINDS[kind]
    except KeyError:
        raise PopTartError(f"unknown pop-tart kind {kind!r}") from None
    return ctor(mirror=mirror)
