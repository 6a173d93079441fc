"""Worst-case transforms over depth-bounded online BST algorithms.

Two wrappers are provided. The interleaved transform watches the wrapped op
stream and, whenever a budget of original operations elapses without the
requested key being reached, walks the finger from the root to the key and
back, so every access finishes within 3*c*log2(n) operations while the whole
run stays within three times the original cost.

The online transform bounds the work spent per request instead: each request
triggers at most a fixed multiple of f(n) operations. Unfinished per-key op
streams are suspended, and the affected keys wait in a FIFO queue threaded
through tree nodes: a cell lives inside a tree node (addressed by key, so
rotations cannot disturb it) holding the queued key and the host key of the
next cell, and every queue operation pays the finger walks needed to reach
its cells. Per request the transform runs up to three routines: drain queued
streams within d*f(n) ops (d is the frozen ``ONLINE_D``), advance the newest
key's stream within f(n) ops, and, if that stream is still unfinished, answer
the request with a direct search and enqueue the key. A new cell hosted at
the key itself is written while that search has the finger on the key, so
the search pays for it; only a cell that must live elsewhere, because the
key's node already hosts one, costs a walk of its own. A stream flags its
last burst, so a stream whose last burst spends a budget exactly counts as
finished.

Both transforms share the wrapped layer's trace and pause the wrapped layer
between the bursts of its ``access_stream``, but serve whole accesses
themselves, each ``access`` returning the number of ops it appended to the
trace: no chain puts one transform under another. Neither takes options:
the depth pledge c (``INTERLEAVE_C``), d (``ONLINE_D``) and K (``ONLINE_K``)
come from ``constants.FROZEN``, f(n) is log2(n), and each transform
computes its budget and cap once, when it is built. A stream that ends
without the finger on its key raises :class:`GuaranteeViolation` in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .algorithms import OnlineBstAlgorithm, Stream
from .constants import FROZEN
from .model import ModelTree, descend


class GuaranteeViolation(RuntimeError):
    """A hard worst-case guard tripped; the message names the promise."""


class InterleavedAlgorithm(OnlineBstAlgorithm):
    """Forces overdue accesses so no access segment exceeds 3*c*log2(n).

    The wrapped op stream runs as one continuous sequence; each access is
    answered as soon as its key is reached, naturally or by a forced round
    trip from the root, and whatever remains of the stream is carried into
    the next access's segment. The trigger counts only original stream
    operations since the last access completed, and forced walks start only
    where the stream parked the finger on the root, so a forced visit costs
    at most one tree depth each way.
    """

    def __init__(self, inner: OnlineBstAlgorithm):
        self.inner = inner
        self.tree = inner.tree
        self.n = inner.n
        self.trace = inner.trace
        log_n = math.log2(max(self.n, 2))
        self._budget = max(1, math.floor(FROZEN["INTERLEAVE_C"] * log_n))
        self._cap = 3.0 * FROZEN["INTERLEAVE_C"] * log_n
        self._since_boundary = 0
        self._segment = 0
        self._gen: Optional[Stream] = None
        self._unstarted: list[int] = []
        self.forced_accesses = 0
        self.total_ops = 0
        self.original_ops = 0
        self.max_segment = 0

    def _close_segment(self) -> None:
        if self._segment > self.max_segment:
            self.max_segment = self._segment
        if self._segment > self._cap:
            raise GuaranteeViolation(
                f"access segment of {self._segment} ops exceeds 3*c*log2(n) = {self._cap:.1f}; "
                f"the input algorithm broke its depth pledge c = {FROZEN['INTERLEAVE_C']}")
        self._segment = 0
        self._since_boundary = 0

    def access(self, key: int) -> int:
        self._require_key(key)
        t = self.tree
        self._unstarted.append(key)
        ops, boundaries = self.trace.ops, self.trace.boundaries
        start = len(ops)
        while t.finger != key:
            if t.finger == t.root and self._since_boundary >= self._budget:
                # forced round trip; the walk back up opens the next segment
                down = descend(t.left, t.right, t.root, key)[1]
                self._segment += len(down)
                self.forced_accesses += 1
                self._close_segment()
                self.total_ops += 2 * len(down)
                self._segment += len(down)
                ops += down
                boundaries.append(len(ops))
                ops += bytes(len(down))  # P moves back up
                return len(ops) - start
            if self._gen is None:
                if not self._unstarted:
                    raise GuaranteeViolation(
                        f"the input algorithm's stream for {key} ended with the "
                        f"finger on {t.finger}, not on the key")
                self._gen = self.inner.access_stream(self._unstarted.pop(0))
            burst, last = next(self._gen)
            if last:
                self._gen = None
            self.total_ops += burst
            self.original_ops += burst
            self._segment += burst
            self._since_boundary += burst
        self._close_segment()
        boundaries.append(len(ops))
        return len(ops) - start


def interleave_transform(inner: OnlineBstAlgorithm) -> InterleavedAlgorithm:
    return InterleavedAlgorithm(inner)


class WorkQueue:
    """FIFO of keys threaded through tree nodes, paid for with finger walks.

    Every cell is read or written with the finger on its host, so a queue
    operation pays a round trip from the root to each cell it touches, with
    one exception. Routine C enqueues a key only to answer its request with
    a direct search to that key, and a new cell hosted at the key is written
    while the search has the finger there: that cell is paid for by routine
    C's search, and :meth:`enqueue` walks only to the old tail and to a host
    other than the key.
    """

    def __init__(self, tree: ModelTree):
        self.tree = tree
        self.cells: dict[int, tuple[int, int]] = {}  # host -> (queued key, next host)
        self.head = 0
        self.tail = 0

    def __len__(self) -> int:
        return len(self.cells)

    def _free_host(self, want: int) -> int:
        """The first free node from ``want`` on, cyclically; ``enqueue`` made sure of one."""
        n = self.tree.n
        h = want
        while h in self.cells:
            h = h % n + 1
        return h

    def _walk(self, key: int) -> bytearray:
        """Round trip root -> key -> root; pure finger moves."""
        t = self.tree
        if t.finger != t.root:
            raise GuaranteeViolation(
                f"queue walk to {key} starts at finger {t.finger}, not at the root {t.root}")
        ops = descend(t.left, t.right, t.root, key)[1]
        ops += bytes(len(ops))  # P moves back up
        return ops

    def enqueue(self, key: int) -> bytearray:
        """Queue ``key``; the walks it pays, all from the root and back.
        The caller's direct search from the root to ``key``, which follows
        these walks in the trace, writes a cell hosted at the key."""
        t = self.tree
        if len(self.cells) >= t.n:
            raise GuaranteeViolation(
                f"queue overflow with {len(self.cells)} cells: the input algorithm "
                "broke its O(n f(n) + k f(n)) total-work guarantee")
        if t.finger != t.root:
            raise GuaranteeViolation(
                f"enqueue of {key} starts at finger {t.finger}, not at the root {t.root}")
        host = self._free_host(key)
        ops = bytearray()
        if self.tail:
            qk, _ = self.cells[self.tail]
            ops += self._walk(self.tail)  # rewrite the old tail's next pointer
            self.cells[self.tail] = (qk, host)
        if host != key:
            ops += self._walk(host)
        self.cells[host] = (key, 0)
        self.tail = host
        if not self.head:
            self.head = host
        return ops

    def front(self) -> int:
        if not self.head:
            raise GuaranteeViolation("queue underflow")
        return self.cells[self.head][0]

    def dequeue(self) -> tuple[int, bytearray]:
        if not self.head:
            raise GuaranteeViolation("queue underflow")
        ops = self._walk(self.head)
        key, nxt = self.cells.pop(self.head)
        self.head = nxt
        if not self.head:
            self.tail = 0
        return key, ops


@dataclass
class OnlineCounters:
    actions: dict[str, int] = field(default_factory=dict)
    max_queue: int = 0
    max_access_ops: int = 0
    restarts: int = 0
    total_ops: int = 0


class OnlineWorstCaseAlgorithm(OnlineBstAlgorithm):
    """Caps the work spent on every request at K*f(n), K the frozen
    ``ONLINE_K``."""

    def __init__(self, inner: OnlineBstAlgorithm):
        self.inner = inner
        self.tree = inner.tree
        self.n = inner.n
        self.trace = inner.trace
        self.f_n = math.log2(max(self.n, 2))
        self.queue = WorkQueue(self.tree)
        self.counters = OnlineCounters()
        self._proc: Optional[Stream] = None  # oldest key's suspended stream
        self._pending_up = 0
        self._cap = FROZEN["ONLINE_K"] * self.f_n

    def _pull(self, gen: Stream, budget: float) -> tuple[int, bool]:
        """Advance a suspended op stream until the budget is spent or its
        last burst has run; the ops spent and whether the stream ended."""
        done = 0
        while done < budget:
            burst, last = next(gen)
            done += burst
            if last:
                return done, True
        return done, False

    def access(self, key: int) -> int:
        self._require_key(key)
        t = self.tree
        ops = self.trace.ops
        start = len(ops)
        if self._pending_up:
            if t.depth(t.finger) != self._pending_up:
                raise GuaranteeViolation(f"the walk up from {t.finger} is not {self._pending_up} P moves")
            ops += bytes(self._pending_up)  # P moves
            t.finger = t.root
            self._pending_up = 0
        ran = ""
        q = self.queue
        if len(q):
            ran += "A"
            budget = FROZEN["ONLINE_D"] * self.f_n
            spent = 0.0
            while spent < budget and len(q):
                if self._proc is None:
                    self.counters.restarts += 1
                    self._proc = self.inner.access_stream(q.front())
                done, finished = self._pull(self._proc, budget - spent)
                spent += done
                if finished:
                    self._proc = None
                    _, walk = q.dequeue()
                    ops += walk
                    spent += len(walk)
                else:
                    break
        gen: Optional[Stream] = None
        finished = False
        if not len(q):
            ran += "B"
            gen = self.inner.access_stream(key)
            _, finished = self._pull(gen, self.f_n)
            if finished and t.finger != key:
                raise GuaranteeViolation(
                    f"the input algorithm's stream for {key} ended with the "
                    f"finger on {t.finger}, not on the key")
        if not finished:
            ran += "C"
            ops += q.enqueue(key)  # checks that the finger is at the root
            # the direct search, which writes a cell that enqueue hosted at the key
            down = descend(t.left, t.right, t.root, key)[1]
            ops += down
            t.finger = key
            self._pending_up = len(down)
            if gen is not None:
                self._proc = gen  # the request just enqueued is the oldest
        self.counters.actions[ran] = self.counters.actions.get(ran, 0) + 1
        # routine A only dequeues and routine C enqueues last: the queue is longest now
        self.counters.max_queue = max(self.counters.max_queue, len(q))
        cost = len(ops) - start
        self.counters.total_ops += cost
        if cost > self.counters.max_access_ops:
            self.counters.max_access_ops = cost
        if cost > self._cap:
            raise GuaranteeViolation(f"request cost {cost} exceeds K*f(n) = {self._cap:.1f}")
        self.trace.boundaries.append(len(ops))
        return cost


def online_transform(inner: OnlineBstAlgorithm) -> OnlineWorstCaseAlgorithm:
    return OnlineWorstCaseAlgorithm(inner)
