"""Regression oracle for raw (chain ``none``) runs of ``run_experiment``.

Every cell of algorithm x start shape x sequence kind runs from a fixed seed.
Its trace text is compared, through its sha256, with the value recorded in
``data/raw_grid.json``, together with the report's ``total_ops`` and
``max_depth_observed``. The trace is the one ``run_experiment`` hands to
``verify_trace``, captured on its way there.

Re-record (only when a change to the traces is intended and explained)::

    PYTHONPATH=src python tests/test_raw_grid.py --record
"""

import hashlib
import json
import sys
import zlib
from pathlib import Path

import pytest

import deamort.experiments as ex
from deamort.sequences import SequenceSpec

DATA = Path(__file__).parent / "data" / "raw_grid.json"
N, M = 300, 700
ALGOS = ("splay", "mtr", "static")
SHAPES = ("balanced", "linear-right", "linear-left")
KINDS = ("uniform", "zipf:1.2", "sequential")


def _cells():
    for a in ALGOS:
        for s in SHAPES:
            for k in KINDS:
                yield f"{a}/{s}/{k}"


def run_cell(cell):
    algo, shape, kind = cell.split("/")
    spec = SequenceSpec(kind, N, M, zlib.crc32(cell.encode()))
    traces = []
    verify = ex.verify_trace

    def capture(t0, trace, s, boundaries=None):
        traces.append(trace)
        return verify(t0, trace, s, boundaries=boundaries)

    ex.verify_trace = capture
    try:
        rep = ex.run_experiment(algo, "none", spec, shape=shape)
    finally:
        ex.verify_trace = verify
    (trace,) = traces
    return {
        "sha256": hashlib.sha256(trace.to_text().encode()).hexdigest(),
        "total_ops": rep.total_ops,
        "max_depth_observed": rep.max_depth_observed,
    }


def _recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("algo", ALGOS)
def test_raw_grid_byte_identical(algo):
    want = _recorded()
    cells = [c for c in _cells() if c.split("/")[0] == algo]
    assert all(c in want for c in cells)
    bad = [c for c in cells if run_cell(c) != want[c]]
    assert not bad, bad


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    rows = (f"{json.dumps(c)}: {json.dumps(run_cell(c), sort_keys=True)}" for c in _cells())
    DATA.write_text("{\n" + ",\n".join(rows) + "\n}\n")
