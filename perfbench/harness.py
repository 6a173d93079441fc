"""One experiment through ``deamort.experiments.run_experiment``, timed and
checked.

:class:`Hooks` replaces the module-level names ``run_experiment`` looks up
(``gen_sequence``, ``build_chain``, ``verify_trace`` and, when tracing,
``make_algorithm``) with timed wrappers, and wraps the built chain's
``access`` to time each call the experiment makes into it. The experiment
code itself runs unchanged.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Optional

import deamort.experiments as ex
from deamort.constants import FROZEN
from deamort.experiments import VerificationFailure
from deamort.transforms import GuaranteeViolation, InterleavedAlgorithm, OnlineWorstCaseAlgorithm

from tracing import LOOP_SPAN, SpanRecorder


@dataclass
class Record:
    """What the hooks saw during one experiment."""

    gen_s: float = 0.0
    build_s: float = 0.0
    build_end: float = 0.0
    verify_start: float = 0.0
    trace_ops: int = 0
    trace_bytes: int = 0
    keys: list[int] = field(default_factory=list)
    alg: object = None
    latencies: list[float] = field(default_factory=list)


@dataclass
class Outcome:
    j: int
    problems: list[str]
    wall_s: float = 0.0
    setup_s: float = 0.0
    loop_s: float = 0.0
    m: int = 0
    latencies: list[float] = field(default_factory=list)
    signature: dict = field(default_factory=dict)
    trace_ops: int = 0
    trace_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


class Hooks:
    """Timed stand-ins for the names ``run_experiment`` calls; with a
    :class:`SpanRecorder` they also record spans."""

    def __init__(self, rec: Optional[SpanRecorder] = None):
        self.rec = rec
        self.cur = Record()
        self._in_build = False
        self._saved: dict[str, object] = {}

    def __enter__(self) -> "Hooks":
        names = ["gen_sequence", "build_chain", "verify_trace"]
        if self.rec is not None:
            names.append("make_algorithm")
        for name in names:
            self._saved[name] = getattr(ex, name)
            hook = getattr(self, "_" + name)
            if self.rec is not None and name != "make_algorithm":
                hook = self.rec.wrap(_SPAN_NAMES[name], hook)
            setattr(ex, name, hook)
        return self

    def __exit__(self, *exc) -> None:
        for name, orig in self._saved.items():
            setattr(ex, name, orig)
        self._saved.clear()

    def _gen_sequence(self, spec):
        t = perf_counter()
        out = self._saved["gen_sequence"](spec)
        self.cur.gen_s += perf_counter() - t
        self.cur.keys = out
        return out

    def _build_chain(self, *args, **kwargs):
        t = perf_counter()
        self._in_build = True
        try:
            alg = self._saved["build_chain"](*args, **kwargs)
        finally:
            self._in_build = False
        access = alg.access
        if self.rec is not None:
            access = self.rec.wrap(LOOP_SPAN, access)
        lat = self.cur.latencies

        def timed_access(key):
            t0 = perf_counter()
            out = access(key)
            lat.append(perf_counter() - t0)
            return out

        alg.access = timed_access
        self.cur.alg = alg
        self.cur.build_end = perf_counter()
        self.cur.build_s += self.cur.build_end - t
        return alg

    def _verify_trace(self, t0, trace, s, boundaries=None):
        self.cur.trace_ops = len(trace.ops)
        self.cur.trace_bytes = sys.getsizeof(trace.ops)
        self.cur.verify_start = perf_counter()
        return self._saved["verify_trace"](t0, trace, s, boundaries=boundaries)

    def _make_algorithm(self, name, tree):
        alg = self._saved["make_algorithm"](name, tree)
        # inside build_chain it is the chain's inner algorithm; afterwards it
        # is the raw baseline run_experiment compares against
        span = "algorithms.access" if self._in_build else "experiments.baseline"
        alg.access = self.rec.wrap(span, alg.access)
        return alg

    def setup_only(self, args: dict) -> float:
        """Sequence generation plus ``build_chain`` for one input, as in
        ``run_experiment``; returns their time."""
        self.cur = Record()
        spec = args["spec"]
        ex.gen_sequence(spec)
        ex.build_chain(args["algo_id"], args["chain"], ex.ModelTree.new_tree(spec.n, args["shape"]),
                       args["weights"], args["lazy"])
        return self.cur.gen_s + self.cur.build_s

    def run(self, j: int, args: dict) -> Outcome:
        """One ``run_experiment`` plus the gates; a guarantee or verification
        failure is reported as a failed outcome, not raised."""
        self.cur = rec = Record()
        gc.collect()
        t = perf_counter()
        try:
            report = ex.run_experiment(**args)
        except (GuaranteeViolation, VerificationFailure) as e:
            return Outcome(j, [f"{type(e).__name__}: {e}"])
        wall = perf_counter() - t
        sim = _sim_of(rec.alg)
        problems = []
        if sim is not None:
            errors = sim.check_state()
            if isinstance(rec.alg, OnlineWorstCaseAlgorithm) and sim.pt.finger == rec.keys[-1]:
                # routine C answers a request by a direct search that leaves the
                # finger on the key; the walk back up opens the next request
                errors = [e for e in errors if e != FINGER_OFF_ROOT]
            problems += errors
            deep = sim.depth_bound_violations(FROZEN["SIM_DEPTH_MULT"], FROZEN["SIM_DEPTH_ADD"])
            if deep:
                problems.append(f"{len(deep)} keys deeper than the simulation depth bound")
        if len(rec.latencies) != report.m:
            problems.append(f"{len(rec.latencies)} access calls for m = {report.m}")
        return Outcome(
            j, problems, wall_s=wall, setup_s=rec.gen_s + rec.build_s,
            loop_s=rec.verify_start - rec.build_end, m=report.m, latencies=rec.latencies,
            signature=signature(report, rec.alg), trace_ops=rec.trace_ops,
            trace_bytes=rec.trace_bytes)


FINGER_OFF_ROOT = "physical finger away from root between accesses"
_SPAN_NAMES = {"gen_sequence": "sequences.gen", "build_chain": "experiments.build_chain",
               "verify_trace": "model.verify"}


def _sim_of(alg):
    return getattr(alg, "sim", None) or getattr(getattr(alg, "inner", None), "sim", None)


def signature(report, alg) -> dict:
    """Every model-op result and layer counter of one experiment; repeats of
    one input must reproduce it exactly, traced or not."""
    sig = {k: v for k, v in asdict(report).items()
           if k not in ("algorithm", "chain", "n", "m", "seq_kind", "seed")}
    sim = _sim_of(alg)
    if sim is not None:
        sig["sim"] = asdict(sim.counters)
    if isinstance(alg, OnlineWorstCaseAlgorithm):
        sig["online"] = asdict(alg.counters)
    if isinstance(alg, InterleavedAlgorithm):
        sig["interleave"] = dict(forced_accesses=alg.forced_accesses, total_ops=alg.total_ops,
                                 original_ops=alg.original_ops, max_segment=alg.max_segment)
    return sig
