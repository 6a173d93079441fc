"""Lazy restructuring: rotate a still-original subtree into block form.

A region is the heavy path of k nodes from the entered root c down to its
end x, with the roots hanging off it riding along as fixed atoms. Any two
shapes of a region are linked through a canonical shape by at most k-1
rotations on each side: turning a tree into a vine, a one-sided chain, and
back takes O(k) rotations (Culik and Wood, IPL 1982; Stout and Warren,
CACM 1986). The restructure therefore rotates the original shape into a
canonical one and from there into the target block, instead of lifting each
node to its target place in turn, which costs Θ(k log k) on a long path.
From a linear start the first restructure is about 3n ops: short enough for
the interleave cap ``3*27*log2(n)`` up to n=128, too long at n=256.
"""

from __future__ import annotations

from typing import Optional


class LazyRestructuring:
    """The lazy-mode restructure of :class:`deamort.simulation.Simulator`,
    which it mixes in; it works on the simulator's link arrays, raw set,
    block builder and ``_rotate``, which leaves heights alone."""

    def _restructure(self, c: int) -> int:
        """Convert a still-original subtree into block form with counted ops;
        returns the block's root, which takes c's place.

        The block builder runs silently on the live arrays to find the
        target shape T. T is rotated silently into a canonical shape V while
        the parent of every rotated node is logged, and the region's entries
        are put back. The counted route then rotates the original shape S
        into V and replays the log backwards, each logged parent rotated back
        over its child, which ends on T. V is a right vine, a left vine, or x
        on top of a right vine of the smaller path nodes and a left vine of
        the larger ones, whichever takes the fewest rotations from S and T
        together (ties in that order). That is at most 2(k-1) rotations, and
        the finger walks between them move one way along a spine, so a
        restructure costs O(k) ops."""
        self.raw.discard(c)
        vt = self.vt
        path = vt.heavy_path(c)
        k = len(path)
        self._building = True
        if k == 1:
            # a virtual leaf is its own block; nothing moves
            self._build_block(c)
            self._building = False
            return c
        left, right, parent, wsub = self.left, self.right, self.parent, self.wsub
        # the builder writes only to c's heavy path and the roots hanging off it
        hangs = [h for u in path for h in (vt.left[u], vt.right[u]) if h and h != vt.solid(u)]
        saved = [(v, left[v], right[v], parent[v], wsub[v]) for v in path + hangs]
        x = self._build_block(c)
        # S is a chain from c down to the childless x: its spines are its runs
        # of leading right and leading left steps
        rs = ls = 1
        while rs < k and path[rs] > path[rs - 1]:
            rs += 1
        while ls < k and path[ls] < path[ls - 1]:
            ls += 1
        spine = self._spine
        costs = [
            k - rs + k - 1 - spine(right[x], right),
            k - ls + k - 1 - spine(left[x], left),
            2 * (k - 1) - spine(left[x], right) - spine(right[x], left),
        ]
        shape = costs.index(min(costs))
        parent[x] = 0  # detach T from the anchor while it is planned
        log: list[int] = []
        self._to_canonical(x, 0, x, shape, log)
        for v, l, r, p, w in saved:
            left[v], right[v], parent[v], wsub[v] = l, r, p, w
        self._building = False
        before = len(self.trace.ops)
        # one height pass over the region afterwards, not a climb per rotation
        self._to_canonical(c, parent[c], x, shape, None)
        for p in reversed(log):
            self._lift(p, None)
        order = []
        todo = [x]
        while todo:
            v = todo.pop()
            order.append(v)
            for ch in (left[v], right[v]):
                if ch and ch not in self.raw:
                    todo.append(ch)
        self._climb_heights(reversed(order))
        self.counters.restructure_ops += len(self.trace.ops) - before
        return x

    def _spine(self, v: int, links: list[int]) -> int:
        """Path nodes met from v following ``links``, stopping at a raw root."""
        raw = self.raw
        n = 0
        while v and v not in raw:
            n += 1
            v = links[v]
        return n

    def _to_canonical(self, top: int, anchor: int, x: int, shape: int,
                      log: Optional[list[int]]) -> None:
        """Rotate the region rooted at ``top`` below ``anchor`` into shape 0
        (a right vine), 1 (a left vine) or 2 (x over a right vine of the
        smaller nodes and a left vine of the larger)."""
        if shape == 2:
            while self.parent[x] != anchor:
                self._lift(x, log)
            self._vine(self.left[x], False, log)
            self._vine(self.right[x], True, log)
        else:
            self._vine(top, shape == 1, log)

    def _vine(self, v: int, to_left: bool, log: Optional[list[int]]) -> None:
        """Turn the path nodes of the subtree at v into a vine down the right
        links (the left ones if ``to_left``): walk down the vine and rotate
        every inner child met up over the node above it."""
        raw = self.raw
        inner, outer = (self.right, self.left) if to_left else (self.left, self.right)
        while v and v not in raw:
            u = inner[v]
            if u and u not in raw:
                self._lift(u, log)
                v = u
            else:
                v = outer[v]

    def _lift(self, v: int, log: Optional[list[int]]) -> None:
        """Rotate v over its parent: logged while the target is planned
        silently, walked to and counted otherwise."""
        if self._building:
            log.append(self.parent[v])
        self._rotate(v)
