"""Command-line interface: gen, run, opt, compare, verify."""

from __future__ import annotations

import sys
from contextlib import contextmanager

import click

from .algorithms import ALGORITHMS
from .experiments import CHAINS, run_experiment
from .model import ModelTree, Trace, verify_trace
from .optsearch import opt_bruteforce
from .reports import CostReport, compare as compare_reports, plot_data
from .sequences import SequenceSpec, gen_sequence


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
def main() -> None:
    """Self-adjusting BST lab: sequence generation, experiments, exact
    optimum search, and trace verification."""


_SHAPES = ("balanced", "linear-left", "linear-right")
_FILE = click.Path(exists=True, dir_okay=False)


@contextmanager
def _usage(param: str | None = None):
    """Report a ValueError raised inside as a usage error (exit 2)."""
    try:
        yield
    except ValueError as e:
        raise click.BadParameter(str(e), param_hint=param) from None


def _spec(seq: str, n: int, m: int, seed: int) -> SequenceSpec:
    with _usage():
        return SequenceSpec(seq, n, m, seed)


def _keys(keys: str) -> list[int]:
    with _usage("--keys"):
        return [int(k) for k in keys.split(",") if k]


@main.command()
@click.option("--seq", default="uniform", help="sequential | uniform | zipf[:a] | working-set[:w] | bit-reversal")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
def gen(seq, n, m, seed, out):
    """Generate an access sequence (space-separated keys)."""
    keys = gen_sequence(_spec(seq, n, m, seed))
    _write(" ".join(map(str, keys)) + "\n", out)


@main.command()
@click.option("--algo", default="splay", type=click.Choice(sorted(ALGORITHMS)))
@click.option("--chain", default="none", type=click.Choice(CHAINS))
@click.option("--seq", default="uniform")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--shape", default="balanced", type=click.Choice(_SHAPES))
@click.option("--lazy", is_flag=True, help="keep the start tree; restructure on first descent")
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
@click.option("--out", default=None)
def run(algo, chain, seq, n, m, seed, shape, lazy, fmt, out):
    """Run one experiment; the trace is verified before reporting."""
    spec = _spec(seq, n, m, seed)
    report = run_experiment(algo, chain, spec, shape=shape, lazy=lazy)
    _write(report.emit(fmt), out)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--shape", default="balanced", type=click.Choice(_SHAPES))
@click.option("--keys", required=True, help="comma-separated access sequence")
@click.option("--out", default=None)
def opt(n, shape, keys, out):
    """Exact minimum realization cost (n <= 6, m <= 6)."""
    seq = _keys(keys)
    with _usage():
        cost = opt_bruteforce(ModelTree.new_tree(n, shape), seq)
    _write(f"{cost}\n", out)


@main.command()
@click.argument("reports", nargs=-1, required=True, type=_FILE)
@click.option("--plot-data", "plot", is_flag=True, help="emit (n, worst) series instead")
@click.option("--out", default=None)
def compare(reports, plot, out):
    """Tabulate json reports with ratios against the first."""
    loaded = []
    for path in reports:
        with open(path) as fh, _usage(path):
            loaded.append(CostReport.from_json(fh.read()))
    _write(plot_data(loaded) if plot else compare_reports(loaded), out)


@main.command()
@click.option("--tree", "tree_path", required=True, type=_FILE, help="tree file (n + signed parent array)")
@click.option("--trace", "trace_path", required=True, type=_FILE, help="trace file (P/L/R/U tokens, # boundaries)")
@click.option("--keys", required=True, help="comma-separated access sequence")
@click.option("--first-visit", is_flag=True, help="ignore # markers; use first visits")
def verify(tree_path, trace_path, keys, first_visit):
    """Replay a trace against a start tree and an access sequence."""
    with open(tree_path) as fh, _usage("--tree"):
        t0 = ModelTree.from_text(fh.read())
    with open(trace_path) as fh, _usage("--trace"):
        tr = Trace.from_text(fh.read())
    seq = _keys(keys)
    if first_visit:
        tr = Trace(tr.ops)
    rep = verify_trace(t0, tr, seq)
    if rep.valid:
        click.echo(f"valid: per-access costs {rep.per_access_cost}")
    else:
        click.echo(f"INVALID: {rep.reason}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
