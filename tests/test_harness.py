import hashlib
import itertools
import json
import math
import random
import tracemalloc

import pytest
from click.testing import CliRunner

from deamort import constants
from deamort.algorithms import make_algorithm
from deamort.cli import main as cli_main
from deamort.experiments import run_experiment
from deamort.model import BstOp, ModelTree
from deamort.optsearch import (
    OptLimitError,
    enumerate_realizations,
    enumerate_shapes,
    opt_bruteforce,
)
from deamort.reports import CostReport, compare, cost_histogram
from deamort.sequences import SequenceSpec, gen_sequence


def test_sequential_sequence():
    assert gen_sequence(SequenceSpec("sequential", 4, 4)) == [1, 2, 3, 4]
    assert gen_sequence(SequenceSpec("sequential", 3, 5)) == [1, 2, 3, 1, 2]


def test_bit_reversal_four():
    assert gen_sequence(SequenceSpec("bit-reversal", 4, 4)) == [1, 3, 2, 4]


def test_bit_reversal_requires_power_of_two():
    with pytest.raises(ValueError):
        SequenceSpec("bit-reversal", 6, 6)


def test_uniform_deterministic():
    a = gen_sequence(SequenceSpec("uniform", 4, 3, seed=9))
    b = gen_sequence(SequenceSpec("uniform", 4, 3, seed=9))
    assert a == b and len(a) == 3 and all(1 <= k <= 4 for k in a)


def test_zipf_and_working_set_params():
    z = gen_sequence(SequenceSpec("zipf:1.5", 16, 500, seed=1))
    assert z.count(1) > z.count(16)
    # the largest legal negative exponents still draw more than one key
    assert len(set(gen_sequence(SequenceSpec("zipf:-60", 100000, 50, seed=0)))) > 1
    w = gen_sequence(SequenceSpec("working-set:4", 64, 400, seed=2))
    assert all(1 <= k <= 64 for k in w)
    # a narrow window keeps reuse high
    reuse = sum(1 for i in range(1, 400) if w[i] in w[max(0, i - 4):i])
    assert reuse > 100


# sha256 of repr(sequence) for seed 0, recorded before accesses shared one
# int object per key: sharing them changes no value
_SEQUENCE_DIGESTS = {
    ("uniform", 1024, 2000): "e2800ff9be5d15963e89bcd9f7c41c00f0f7ae337f6b00e1c8d543948778b5a6",
    ("zipf:1.2", 65536, 50000): "c976226d5f28c998683431d4415c43ea7c0624ed237792a7ad4a251eb7d6fa08",
    ("working-set:64", 1024, 2000): "33d6713a3d987eb12a2cc177844d23f7178cc1bbc448d69450cf15311ccab848",
    ("sequential", 300, 1000): "93cbb67c7451d7fc7dfc5f73ff86fb9dada20f232ae96ade18054fb17cc8bf53",
    ("bit-reversal", 512, 1000): "bed31b4d43ab1b5323630e9c892a9a8c0f5ae51d0a114fd827ccb5185c81600a",
}


@pytest.mark.parametrize("kind,n,m", list(_SEQUENCE_DIGESTS))
def test_sequences_hold_one_int_object_per_key(kind, n, m):
    seq = gen_sequence(SequenceSpec(kind, n, m, seed=0))
    assert hashlib.sha256(repr(seq).encode()).hexdigest() == _SEQUENCE_DIGESTS[kind, n, m]
    # keys above 256 are not cached by the interpreter
    assert len({id(k) for k in seq}) == len(set(seq))


@pytest.mark.parametrize("kind", ["zipf:1.5", "working-set:4"])
def test_report_keeps_the_sequence_parameter(kind):
    spec = SequenceSpec(kind, 8, 20, seed=3)
    assert (spec.kind, spec.alpha, spec.width) == (
        (kind, 1.5, 8) if kind.startswith("zipf") else (kind, 1.0, 4))
    assert run_experiment("splay", "none", spec).seq_kind == kind


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        SequenceSpec("mystery", 4, 4)


def test_opt_single_node():
    t = ModelTree.new_tree(1)
    assert opt_bruteforce(t, [1, 1, 1]) == 0


def test_opt_two_node_example():
    t = ModelTree.new_tree(2, [0, 1])  # root 1, right child 2
    assert opt_bruteforce(t, [2]) == 1


def test_opt_three_balanced():
    t = ModelTree.new_tree(3, "balanced")
    cost = opt_bruteforce(t, [3, 1])
    assert cost == enumerate_realizations(t, [3, 1], cost)
    assert enumerate_realizations(t, [3, 1], cost - 1) == -1


def test_opt_limits_refused():
    with pytest.raises(OptLimitError):
        opt_bruteforce(ModelTree.new_tree(7, "balanced"), [1])
    with pytest.raises(OptLimitError):
        opt_bruteforce(ModelTree.new_tree(3, "balanced"), [1] * 7)


def test_opt_search_raises_a_failing_op(monkeypatch):
    # only an illegal op is skipped; any other error is a bug and surfaces
    apply_op = ModelTree.apply_op

    def broken(self, op):
        if op == BstOp.ROTATE:
            raise RuntimeError("boom")
        apply_op(self, op)

    monkeypatch.setattr(ModelTree, "apply_op", broken)
    t = ModelTree.new_tree(3, "balanced")
    with pytest.raises(RuntimeError, match="boom"):
        opt_bruteforce(t, [1, 3])
    with pytest.raises(RuntimeError, match="boom"):
        enumerate_realizations(t, [1, 3], 4)


def test_opt_matches_exhaustive_n3():
    for parents in enumerate_shapes(3):
        t = ModelTree.new_tree(3, parents)
        for s in itertools.product((1, 2, 3), repeat=2):
            cost = opt_bruteforce(t, list(s))
            assert enumerate_realizations(t, list(s), cost) == cost
            if cost:
                assert enumerate_realizations(t, list(s), cost - 1) == -1


def test_algorithms_never_beat_opt():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 4)
        shapes = list(enumerate_shapes(n))
        parents = rng.choice(shapes)
        s = [rng.randint(1, n) for _ in range(3)]
        t0 = ModelTree.new_tree(n, parents)
        best = opt_bruteforce(t0, s)
        for algo in ("splay", "mtr", "static"):
            alg = make_algorithm(algo, ModelTree.new_tree(n, parents))
            cost = sum(map(alg.access, s))
            assert cost >= best


def test_run_experiment_reports():
    spec = SequenceSpec("uniform", 32, 200, seed=5)
    rep = run_experiment("splay", "none", spec)
    assert rep.total_ops > 0
    assert rep.ratio_vs_baseline == 1.0
    assert sum(rep.per_access_histogram.values()) == 200
    rep2 = run_experiment("splay", "wrap", spec)
    assert rep2.total_ops > rep.total_ops
    assert rep2.max_depth_observed <= (constants.FROZEN["SIM_DEPTH_MULT"] * math.log2(32)
                                       + constants.FROZEN["SIM_DEPTH_ADD"])
    assert rep2.ratio_vs_baseline > 1.0


def test_raw_run_memory_per_access():
    # per access a raw run holds a key of the sequence, a trace boundary, a
    # hit position and a cost slot at about 8 B each, and its ops at a byte
    # each (about 15 per access on this sequence)
    def peak(m: int) -> int:
        tracemalloc.start()
        try:
            run_experiment("splay", "none", SequenceSpec("zipf:1.2", 4096, m, seed=0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grown = peak(8000) - peak(4000)
    assert grown <= 64 * 4000, grown / 4000


def test_run_experiment_online_chain_counters():
    spec = SequenceSpec("uniform", 64, 300, seed=6)
    rep = run_experiment("splay", "wrap+online", spec)
    assert rep.action_histogram and set(rep.action_histogram) <= {"AB", "ABC", "AC", "B", "BC"}
    assert rep.max_queue is not None and rep.max_queue <= 64


def test_report_json_roundtrip_and_determinism():
    spec = SequenceSpec("zipf", 16, 64, seed=7)
    r1 = run_experiment("mtr", "none", spec)
    r2 = run_experiment("mtr", "none", spec)
    assert r1.to_json() == r2.to_json()
    back = CostReport.from_json(r1.to_json())
    assert back == r1


def test_report_csv_columns():
    spec = SequenceSpec("uniform", 8, 16, seed=1)
    rep = run_experiment("static", "none", spec)
    lines = rep.emit("csv").splitlines()
    assert lines[0] == "algo,n,m,total,worst,maxdepth"
    assert lines[1].startswith("static,8,16,")


def test_compare_ratio_column():
    spec = SequenceSpec("uniform", 16, 64, seed=2)
    a = run_experiment("splay", "none", spec)
    b = run_experiment("splay", "wrap", spec)
    table = compare([a, b])
    last = table.strip().splitlines()[-1]
    ratio = float(last.split(",")[-1])
    assert ratio == pytest.approx(b.total_ops / a.total_ops, abs=1e-4)


def test_cost_histogram_buckets():
    h = cost_histogram([0, 1, 2, 3, 4, 9])
    assert h["0"] == 1 and h["1-1"] == 1 and h["2-3"] == 2 and h["4-7"] == 1 and h["8-15"] == 1


def _per_cost_histogram(costs):
    """The histogram labelled one cost at a time, the reference for
    cost_histogram's per-bucket labels."""
    out = {}
    for c in costs:
        lo = 1 << max(c.bit_length() - 1, 0)
        label = f"{lo}-{2 * lo - 1}" if c > 0 else "0"
        out[label] = out.get(label, 0) + 1
    return out


def test_cost_histogram_matches_per_cost_labelling():
    rng = random.Random(5)
    for _ in range(200):
        costs = [rng.choice((0, rng.randrange(1, 1 << rng.randrange(1, 40))))
                 for _ in range(rng.randrange(60))]
        assert list(cost_histogram(costs).items()) == list(_per_cost_histogram(costs).items())


def test_report_includes_opt_on_tiny_instances():
    spec = SequenceSpec("uniform", 3, 3, seed=4)
    rep = run_experiment("splay", "none", spec)
    assert rep.opt_cost is not None
    assert rep.total_ops >= rep.opt_cost
    if rep.opt_cost:
        assert rep.ratio_vs_opt == pytest.approx(rep.total_ops / rep.opt_cost)


def test_plot_data_series():
    from deamort.reports import plot_data

    reps = [run_experiment("splay", "none", SequenceSpec("uniform", n, 32, seed=1))
            for n in (16, 8)]
    text = plot_data(reps)
    lines = text.strip().splitlines()
    assert lines[0] == "n,worst"
    assert lines[1].startswith("8,") and lines[2].startswith("16,")


def test_empty_sequence_run():
    rep = run_experiment("splay", "wrap", SequenceSpec("uniform", 8, 0, seed=0))
    assert rep.total_ops == 0 and rep.per_access_max == 0


def test_cli_gen_run_opt_verify(tmp_path):
    runner = CliRunner()
    out = runner.invoke(cli_main, ["gen", "--seq", "sequential", "--n", "4", "--m", "4"])
    assert out.exit_code == 0 and out.output == "1 2 3 4\n"

    rep_path = tmp_path / "r.json"
    out = runner.invoke(cli_main, [
        "run", "--algo", "splay", "--chain", "wrap", "--seq", "uniform",
        "--n", "16", "--m", "50", "--seed", "3", "--out", str(rep_path)])
    assert out.exit_code == 0, out.output
    rep = json.loads(rep_path.read_text())
    assert rep["algorithm"] == "splay" and rep["chain"] == "wrap"

    out = runner.invoke(cli_main, ["opt", "--n", "3", "--shape", "balanced", "--keys", "3,1"])
    assert out.exit_code == 0
    assert out.output.strip().isdigit()

    tree_path = tmp_path / "t.txt"
    trace_path = tmp_path / "tr.txt"
    tree_path.write_text(ModelTree.new_tree(3, "balanced").to_text())
    trace_path.write_text("L #\n")
    out = runner.invoke(cli_main, [
        "verify", "--tree", str(tree_path), "--trace", str(trace_path), "--keys", "1"])
    assert out.exit_code == 0 and "valid" in out.output

    trace_path.write_text("R #\n")
    out = runner.invoke(cli_main, [
        "verify", "--tree", str(tree_path), "--trace", str(trace_path), "--keys", "1"])
    assert out.exit_code == 1

    # one boundary for two accesses: invalid as marked, valid by first visits
    trace_path.write_text("L P R #\n")
    args = ["verify", "--tree", str(tree_path), "--trace", str(trace_path), "--keys", "1,3"]
    assert runner.invoke(cli_main, args).exit_code == 1
    out = runner.invoke(cli_main, [*args, "--first-visit"])
    assert (out.exit_code, out.output) == (0, "valid: per-access costs [1, 2]\n")


_REPORT = {"algorithm": "splay", "chain": "none", "n": 3, "m": 1, "seq_kind": "uniform",
           "seed": 0, "total_ops": 1, "per_access_max": 1, "per_access_histogram": {"1": 1},
           "max_depth_observed": 1, "ratio_vs_baseline": 1.0, "baseline_total": 1}


@pytest.mark.parametrize("args,bad", [
    (["run", "--algo", "nope", "--n", "8", "--m", "4"], "--algo"),
    (["run", "--shape", "nope", "--n", "8", "--m", "4"], "--shape"),
    (["opt", "--n", "9", "--keys", "1,2"], "exact-search limits"),
    (["opt", "--n", "3", "--keys", "1,x"], "--keys"),
    (["verify", "--tree", "{tree}", "--trace", "{bad_trace}", "--keys", "1"], "--trace"),
    (["verify", "--tree", "{bad_tree}", "--trace", "{trace}", "--keys", "1"], "--tree"),
    (["verify", "--tree", "{tree}", "--trace", "{trace}", "--keys", "one"], "--keys"),
    (["verify", "--tree", "{missing}", "--trace", "{trace}", "--keys", "1"], "does not exist"),
    (["verify", "--tree", "{tree}", "--trace", "{missing}", "--keys", "1"], "does not exist"),
    (["compare", "{report}", "{missing}"], "does not exist"),
    (["compare", "{report}", "{trace}"], "Expecting value"),
    (["compare", "{report}", "{not_object}"], "a report is a JSON object"),
    (["compare", "{report}", "{missing_field}"], "missing fields algorithm"),
    (["compare", "--plot-data", "{unknown_field}"], "unknown fields colour"),
    (["compare", "{report}", "{mistyped_total}"], "mistyped fields total_ops"),
    (["compare", "--plot-data", "{report}", "{null_n}"], "mistyped fields n"),
    (["compare", "{report}", "{negative_n}"], "invalid fields n"),
    (["compare", "{report}", "{nan_ratio}"], "invalid fields ratio_vs_baseline"),
    (["gen", "--seq", "zipf:nan", "--n", "8", "--m", "4"], "zipf exponent nan"),
    (["gen", "--seq", "zipf:inf", "--n", "8", "--m", "4"], "zipf exponent inf"),
    (["gen", "--seq", "zipf:1e6", "--n", "8", "--m", "4"], "zipf exponent 1000000.0"),
    (["gen", "--seq", "zipf:-1e6", "--n", "8", "--m", "4"], "zipf exponent -1000000.0"),
    (["gen", "--seq", "zipf:-61.5", "--n", "100000", "--m", "5"], "or whose total could overflow"),
], ids=["algo", "shape", "opt-n", "opt-keys", "trace-token", "tree-file", "verify-keys",
        "verify-missing-tree", "verify-missing-trace", "compare-missing-file",
        "compare-not-json", "compare-not-object", "compare-missing-field",
        "compare-unknown-field", "compare-mistyped-field", "plot-data-null-field",
        "compare-negative-n", "compare-nan-ratio", "zipf-nan", "zipf-inf",
        "zipf-overflow", "zipf-underflow", "zipf-total-overflow"])
def test_cli_malformed_input_is_a_usage_error(tmp_path, args, bad):
    """Malformed input exits 2 with a usage message, never with a traceback
    and never with exit 1, which ``verify`` keeps for an invalid trace."""
    files = {"tree": ModelTree.new_tree(3, "balanced").to_text(), "trace": "L #\n",
             "bad_tree": "3\n0 1\n", "bad_trace": "L X #\n",
             "report": json.dumps(_REPORT), "not_object": "[1, 2]",
             "missing_field": json.dumps({k: v for k, v in _REPORT.items() if k != "algorithm"}),
             "unknown_field": json.dumps({**_REPORT, "colour": "blue"}),
             "mistyped_total": json.dumps({**_REPORT, "total_ops": "x"}),
             "null_n": json.dumps({**_REPORT, "n": None}),
             "negative_n": json.dumps({**_REPORT, "n": -5}),
             "nan_ratio": json.dumps({**_REPORT, "ratio_vs_baseline": math.nan})}
    paths = {"missing": tmp_path / "missing"}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    out = CliRunner().invoke(cli_main, [a.format(**paths) for a in args])
    assert out.exit_code == 2, out.output
    assert isinstance(out.exception, SystemExit)
    assert bad in out.output


@pytest.mark.parametrize("args,message", [
    (["--chain", "wrap+interleave", "--shape", "linear-left", "--n", "256", "--m", "20"],
     "GuaranteeViolation: access segment of 774 ops exceeds 3*c*log2(n) = 648.0"),
    (["--chain", "wrap+online", "--shape", "linear-right", "--n", "2048", "--m", "1"],
     "GuaranteeViolation: request cost 6195 exceeds K*f(n) = 3520.0"),
], ids=["interleave", "online"])
def test_cli_run_reports_a_tripped_guarantee_in_one_line(args, message):
    """A lazy restructure of a long start path trips the transform's cap;
    ``run`` names the exception and its message on one line and exits 1,
    with no traceback."""
    out = CliRunner().invoke(cli_main, ["run", "--lazy", *args])
    assert out.exit_code == 1, out.output
    assert isinstance(out.exception, SystemExit)
    assert out.output.startswith(message) and out.output.count("\n") == 1
    assert "Traceback" not in out.output


def test_cli_compare(tmp_path):
    runner = CliRunner()
    paths = []
    for i, chain in enumerate(("none", "wrap")):
        p = tmp_path / f"r{i}.json"
        runner.invoke(cli_main, [
            "run", "--algo", "splay", "--chain", chain, "--seq", "uniform",
            "--n", "16", "--m", "40", "--out", str(p)])
        paths.append(str(p))
    out = runner.invoke(cli_main, ["compare", *paths])
    assert out.exit_code == 0
    assert out.output.splitlines()[0].endswith("ratio_vs_first")


def test_recalibration_stays_under_the_frozen_ceilings():
    """``python -m deamort.constants`` measures every calibrated constant;
    each measurement must sit at or below the ceiling it was frozen from."""
    ceiling = {"C_SCAN": "C_SCAN", "C_BAL": "C_BAL", "C_SIM": "C_SIM",
               "C_AM[cherry]": "C_AM", "C_AM[chocolate]": "C_AM",
               "C_WC[cherry]": "C_WC", "C_WC[chocolate]": "C_WC",
               "SIM_MAX_DEPTH_RATIO": "INTERLEAVE_C", "C_RESTRUCTURE": "C_RESTRUCTURE"}
    measured = constants.calibrate()
    assert set(measured) == set(ceiling)
    for name, value in measured.items():
        assert 0 < value <= constants.FROZEN[ceiling[name]], (name, value)
