"""Count the bytecodes the access loop executes on small fixed workloads.

Each analogue is the benchmark workload it is named after
(``perfbench/workloads.py``) shrunk to a fixed small n and m: the keyword
arguments of its first sub-experiment at seed 0, so it runs splay through
the same chain, sequence kind, start shape, lazy flag and weights. Only the
access loop is counted: ``experiments.run_accesses``, the function
``run_experiment`` calls, with one ``access`` per key plus the height probe;
building the chain and verifying the trace are left out. A count is the
number of ``opcode`` events ``sys.settrace`` delivers, so it depends on
the program and the Python version, never on the host's speed: two runs
of one checkout on one interpreter print the same line.

Beside the counts it prints two model costs of the online-uniform
analogue: its simulator's physical ops per virtual op (the measured side
of ``C_SIM``), and its trace's cost over those physical ops (the online
transform's overhead: queue walks, direct searches and walks back up).
Then it prints the simulator's O(n) state: the bytes that
``tracemalloc`` sees held by an eager ``wrap`` of splay over a balanced
tree of n=2^14 nodes (the virtual tree, the physical arrays and every
block's record and stacks), taken right after construction. That number
also depends only on the program and the Python version; the model costs
only on the program.

Usage, from the repository root::

    python3 tools/opcount.py

prints one JSON object: the Python version, per analogue its count (and
after online-uniform's, ``online-uniform-phys-per-virtual`` and
``online-uniform-overhead``), and ``wrap-state-bytes``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import sys
import tracemalloc

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "perfbench")]

from deamort.algorithms import OnlineBstAlgorithm, SplayAlgorithm  # noqa: E402
from deamort.experiments import build_chain, run_accesses  # noqa: E402
from deamort.model import ModelTree  # noqa: E402
from deamort.sequences import gen_sequence  # noqa: E402
from deamort.simulation import wrap  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name -> (n, m)
ANALOGUES = {
    "online-uniform": (256, 300),
    "weighted-interleave": (256, 300),
    "raw-zipf": (4096, 3000),
    "lazy-linear": (256, 64),
}


def count(name: str) -> tuple[int, OnlineBstAlgorithm]:
    """Bytecodes executed by the access loop of one analogue, and the chain
    it ran."""
    n, m = ANALOGUES[name]
    args = dataclasses.replace(WORKLOADS[name], n=n, m=m).experiment_args(0, 0)
    seq = gen_sequence(args["spec"])
    alg = build_chain(args["algo_id"], args["chain"], ModelTree.new_tree(n, args["shape"]),
                      args["weights"], args["lazy"])
    events = 0

    def local(frame, event, arg):
        nonlocal events
        if event == "opcode":
            events += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        run_accesses(alg, seq)
    finally:
        sys.settrace(None)
    return events, alg


def wrap_state_bytes() -> int:
    """Bytes ``tracemalloc`` sees held by an eager wrap of splay, n=2^14."""
    inner = SplayAlgorithm(ModelTree.new_tree(1 << 14, "balanced"))
    gc.collect()
    tracemalloc.start()
    try:
        wrapped = wrap(inner)  # alive while measured
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del wrapped
    return held


def main() -> None:
    out = {"python": platform.python_version()}
    for name in ANALOGUES:
        out[name], alg = count(name)
        if name == "online-uniform":
            c = alg.tree.counters
            out["online-uniform-phys-per-virtual"] = round(c.physical_ops / c.virtual_ops, 4)
            out["online-uniform-overhead"] = round(alg.trace.cost / c.physical_ops, 4)
    out["wrap-state-bytes"] = wrap_state_bytes()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
