"""Regression oracle: byte-identical physical traces over a fixed grid.

Every cell of algorithm x chain x start shape x eager/lazy x weight kind is
run from a fixed seed, and its trace text is compared, through its sha256,
with the value recorded in ``data/trace_grid.json``. A cell whose guard
trips must trip with the same exception after the same number of completed
accesses and the same number of physical ops, with the same trace prefix.
Each layer's op counters must also add up to the trace's length.

Re-record (only when a change to the traces is intended and explained)::

    PYTHONPATH=src python tests/test_trace_grid.py --record
"""

import hashlib
import json
import math
import random
import sys
import zlib
from pathlib import Path

import pytest

from deamort.experiments import build_chain
from deamort.model import ModelTree, Trace
from deamort.transforms import GuaranteeViolation

DATA = Path(__file__).parent / "data" / "trace_grid.json"
N, M = 128, 32
ALGOS = ("splay", "mtr", "static")
CHAINS = ("wrap", "wrap+interleave", "wrap+online")
SHAPES = ("balanced", "linear-right", "linear-left")
MODES = ("eager", "lazy")
WEIGHTS = ("unit", "int", "exp")


def _cells():
    for a in ALGOS:
        for c in CHAINS:
            for s in SHAPES:
                for mode in MODES:
                    for wk in WEIGHTS:
                        yield f"{a}/{c}/{s}/{mode}/{wk}"


def _weights(kind, rng):
    if kind == "unit":
        return None
    if kind == "int":
        return [float(rng.randint(1, 5)) for _ in range(N)]
    return [math.exp(rng.uniform(0, 12)) for _ in range(N)]


def run_cell(cell):
    """The cell's recorded row, and whether its counters match its trace."""
    algo, chain, shape, mode, wk = cell.split("/")
    rng = random.Random(zlib.crc32(cell.encode()))
    weights = _weights(wk, rng)
    keys = [rng.randint(1, N) for _ in range(M)]
    alg = build_chain(algo, chain, ModelTree.new_tree(N, shape), weights, mode == "lazy")
    sim = getattr(alg, "sim", None) or alg.inner.sim
    trip = None
    done = 0  # ops of the completed accesses
    for i, k in enumerate(keys):
        try:
            alg.access(k)
        except GuaranteeViolation as exc:
            trip = [type(exc).__name__, i, sim.counters.physical_ops]
            break
        done = alg.trace.cost
    full = Trace(alg.trace.ops[:done], alg.trace.boundaries)
    if chain == "wrap":
        counted = sim.counters.physical_ops == full.cost
    elif chain == "wrap+online":
        counted = alg.counters.total_ops == full.cost
    else:
        counted = alg.total_ops == full.cost and alg.original_ops == sim.counters.physical_ops
    return {
        "sha256": hashlib.sha256(full.to_text().encode()).hexdigest(),
        "cost": full.cost,
        "restructure_ops": sim.counters.restructure_ops,
        "trip": trip,
    }, trip is not None or counted


def _recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("chain", CHAINS)
def test_trace_grid_byte_identical(chain):
    want = _recorded()
    cells = [c for c in _cells() if c.split("/")[1] == chain]
    assert all(c in want for c in cells)
    bad = [c for c in cells if run_cell(c) != (want[c], True)]
    assert not bad, bad


def test_trace_grid_records_no_trip():
    # lazy wrap+interleave from a linear start once tripped in its first
    # access, whose restructure burst alone outran the interleave cap
    want = _recorded()
    assert not [c for c in _cells() if want[c]["trip"]]


def test_trace_grid_exercises_lazy_restructuring():
    want = _recorded()
    lazy = [c for c in _cells() if "/lazy/" in c]
    assert all(want[c]["restructure_ops"] > 0 for c in lazy)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    rows = (f"{json.dumps(c)}: {json.dumps(run_cell(c)[0], sort_keys=True)}" for c in _cells())
    DATA.write_text("{\n" + ",\n".join(rows) + "\n}\n")
