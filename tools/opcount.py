"""Count the bytecodes the access loop executes on small fixed workloads.

Each analogue runs splay through the same chain, start shape and weight
kind as the benchmark workload it is named after, on a fixed small input
and seed. Only the access loop is counted: ``experiments.run_accesses``,
the function ``run_experiment`` calls, with one ``access`` per key plus the
height probe; building the chain and verifying the trace are left out. A
count is the number of ``opcode`` events ``sys.settrace`` delivers, so it
depends on the program and the Python version, never on the host's speed:
two runs of one checkout on one interpreter print the same line.

Usage, from the repository root::

    python3 tools/opcount.py

prints one JSON object: the Python version and, per analogue, its count.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from deamort.experiments import build_chain, run_accesses  # noqa: E402
from deamort.model import ModelTree  # noqa: E402
from deamort.sequences import SequenceSpec, gen_sequence  # noqa: E402

# name -> (chain, sequence kind, n, m, start shape, lazy, exp weights)
ANALOGUES = {
    "online-uniform": ("wrap+online", "uniform", 256, 300, "balanced", False, False),
    "weighted-interleave": ("wrap+interleave", "working-set:64", 256, 300, "balanced", False, True),
    "raw-zipf": ("none", "zipf:1.2", 4096, 3000, "balanced", False, False),
    "lazy-linear": ("wrap", "uniform", 256, 64, "linear-right", True, False),
}
SEED = 0


def _weights(n: int, seed: int) -> list[float]:
    """exp(U(0, 12)) weights, the spread of the weighted workload."""
    rng = random.Random(f"{seed}:weights")
    return [math.exp(rng.uniform(0, 12)) for _ in range(n)]


def count(name: str) -> int:
    """Bytecodes executed by the access loop of one analogue."""
    chain, kind, n, m, shape, lazy, weighted = ANALOGUES[name]
    seq = gen_sequence(SequenceSpec(kind, n, m, SEED))
    weights = _weights(n, SEED) if weighted else None
    alg = build_chain("splay", chain, ModelTree.new_tree(n, shape), weights, lazy)
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
    return events


def main() -> None:
    out = {"python": platform.python_version()}
    out.update((name, count(name)) for name in ANALOGUES)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
