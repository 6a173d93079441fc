"""In-memory spans around the calls into each deamort layer.

Spans are recorded from the benchmark's side only: the layer entry points
are wrapped while a traced experiment runs and restored afterwards, so the
program itself is unchanged. A span is (name, parent, start, end); ids are
assigned when a span opens, so a parent's id is always smaller than its
children's, which is what :func:`summarize` relies on.
"""

from __future__ import annotations

import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

from deamort.poptart import ChocolatePopTart
from deamort.simulation import Simulator
from deamort.transforms import InterleavedAlgorithm, OnlineWorstCaseAlgorithm, WorkQueue

# the span that wraps each call run_experiment makes into the chain's access
LOOP_SPAN = "experiments.access"
APPLY_VIRTUAL = "simulation.apply_virtual"

# (class, method, span name) wrapped for the duration of a traced experiment
CLASS_SPANS = (
    (Simulator, "__init__", "simulation.setup"),
    (ChocolatePopTart, "push_arrived", "poptart.push"),
    (ChocolatePopTart, "pop_extracted", "poptart.pop"),
    (WorkQueue, "enqueue", "transforms.online.queue"),
    (WorkQueue, "dequeue", "transforms.online.queue"),
    (OnlineWorstCaseAlgorithm, "access", "transforms.online.access"),
    (InterleavedAlgorithm, "access", "transforms.interleave.access"),
    (Simulator, "apply_virtual", APPLY_VIRTUAL),
)


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open_ids = [-1]
        self.restructured: list[int] = []  # apply_virtual spans that restructured

    def __len__(self) -> int:
        return len(self.end)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""
        nid = self.name_id(name)
        name_add, parent_add, start_add = self.name.append, self.parent.append, self.start.append
        end, end_add, stack = self.end, self.end.append, self.open_ids

        def traced(*args, **kwargs):
            i = len(end)
            name_add(nid)
            parent_add(stack[-1])
            end_add(0.0)
            stack.append(i)
            start_add(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    def wrap_apply_virtual(self, fn):
        """Like :meth:`wrap` for ``Simulator.apply_virtual``, also flagging
        the calls during which the simulator's ``restructure_ops`` rose."""
        traced = self.wrap(APPLY_VIRTUAL, fn)
        end, flagged = self.end, self.restructured

        def apply_virtual(sim, op):
            before = sim.counters.restructure_ops
            i = len(end)  # the id traced() gives this call's span
            out = traced(sim, op)
            if sim.counters.restructure_ops != before:
                flagged.append(i)
            return out

        return apply_virtual

    def write(self, fh) -> None:
        """Header line of JSON (names, span count, the ids of the
        apply_virtual spans that restructured), then the name, parent, start
        and end arrays."""
        head = {"names": self.names, "spans": len(self), "byteorder": sys.byteorder,
                "arrays": ["name:uint16", "parent:int32", "start:float64", "end:float64"],
                "restructured": self.restructured}
        fh.write(json.dumps(head).encode() + b"\n")
        for a in (self.name, self.parent, self.start, self.end):
            a.tofile(fh)


@contextmanager
def class_spans(rec: SpanRecorder):
    """Wrap the layer classes' entry points for the duration of the block."""
    saved = []
    for cls, meth, name in CLASS_SPANS:
        orig = cls.__dict__[meth]
        saved.append((cls, meth, orig))
        wrapped = (rec.wrap_apply_virtual(orig) if name == APPLY_VIRTUAL
                   else rec.wrap(name, orig))
        setattr(cls, meth, wrapped)
    try:
        yield rec
    finally:
        for cls, meth, orig in saved:
            setattr(cls, meth, orig)


def summarize(rec: SpanRecorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and the same restricted
    to spans inside the access loop (those under a ``LOOP_SPAN``).

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap because the program is single-threaded.
    """
    n = len(rec)
    dur = [e - s for s, e in zip(rec.start, rec.end)]
    covered = [0.0] * n
    in_loop = [False] * n
    loop_id = rec.name_id(LOOP_SPAN)
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            covered[p] += dur[i]
            in_loop[i] = in_loop[p]
        elif rec.name[i] == loop_id:
            in_loop[i] = True
    out: dict[str, dict[str, float]] = {
        name: dict(calls=0, total_s=0.0, self_s=0.0, loop_calls=0, loop_self_s=0.0)
        for name in rec.names}
    for i in range(n):
        row = out[rec.names[rec.name[i]]]
        own = dur[i] - covered[i]
        row["calls"] += 1
        row["total_s"] += dur[i]
        row["self_s"] += own
        if in_loop[i]:
            row["loop_calls"] += 1
            row["loop_self_s"] += own
    out["restructure"] = dict(calls=len(rec.restructured),
                              total_s=sum(dur[i] for i in rec.restructured))
    return out
