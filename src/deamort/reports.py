"""Cost reports and their serialization."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields
from math import inf
from typing import Optional, Union, get_args, get_origin, get_type_hints

CSV_COLUMNS = ("algo", "n", "m", "total", "worst", "maxdepth")


@dataclass
class CostReport:
    algorithm: str
    chain: str
    n: int
    m: int
    seq_kind: str
    seed: int
    total_ops: int
    per_access_max: int
    per_access_histogram: dict[str, int]
    max_depth_observed: int
    ratio_vs_baseline: float
    baseline_total: int
    ratio_vs_opt: Optional[float] = None
    opt_cost: Optional[int] = None
    action_histogram: Optional[dict[str, int]] = None
    max_queue: Optional[int] = None
    restructure_ops: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CostReport":
        """Parse a report written by :meth:`to_json`. Raises ValueError for
        text that is not a JSON object, that misses or adds a field, or whose
        value for a field does not match its annotation or is out of range."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a report is a JSON object")
        known = {f.name: f for f in fields(cls)}
        missing = [k for k, f in known.items() if f.default is MISSING and k not in data]
        unknown = sorted(data.keys() - known.keys())
        hints = get_type_hints(cls)
        mistyped = sorted(k for k in data.keys() & known.keys() if not _fits(data[k], hints[k]))
        problems = [f"{what} fields {', '.join(keys)}" for what, keys in (
            ("missing", missing), ("unknown", unknown), ("mistyped", mistyped)) if keys]
        if problems:
            raise ValueError("not a cost report: " + "; ".join(problems))
        invalid = sorted(k for k, v in data.items()
                         if k != "seed" and _out_of_range(v, 1 if k == "n" else 0))
        if invalid:
            raise ValueError(f"not a cost report: invalid fields {', '.join(invalid)}")
        return cls(**data)

    def csv_row(self) -> str:
        algo = self.algorithm if self.chain == "none" else f"{self.algorithm}+{self.chain}"
        vals = (algo, self.n, self.m, self.total_ops, self.per_access_max,
                self.max_depth_observed)
        return ",".join(str(v) for v in vals)

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return ",".join(CSV_COLUMNS) + "\n" + self.csv_row() + "\n"
        raise ValueError(f"unknown format {fmt!r}")


def _fits(value, tp) -> bool:
    """Whether a JSON value fits a report field's annotation: no bool is a
    number, an int may stand for a float, and a dict's items fit too."""
    args = get_args(tp)
    if get_origin(tp) is Union:
        return any(_fits(value, a) for a in args)
    if get_origin(tp) is dict:
        return isinstance(value, dict) and all(
            _fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def _out_of_range(value, low: int) -> bool:
    """Whether a report's number, or any value of its histogram, lies below
    ``low`` or is not finite; a string or None is never out of range."""
    if isinstance(value, dict):
        return any(_out_of_range(v, 0) for v in value.values())
    return isinstance(value, (int, float)) and not low <= value < inf


def cost_histogram(costs: list[int]) -> dict[str, int]:
    """Power-of-two bucketed per-access cost counts, buckets in the order
    their first cost appears."""
    return {f"{1 << (b - 1)}-{(1 << b) - 1}" if b else "0": k
            for b, k in Counter(map(int.bit_length, costs)).items()}


def compare(reports: list[CostReport]) -> str:
    """Fixed-order csv with a ratio column against the first report."""
    base = reports[0].total_ops or 1
    lines = [",".join(CSV_COLUMNS) + ",ratio_vs_first"]
    for r in reports:
        lines.append(r.csv_row() + f",{r.total_ops / base:.4f}")
    return "\n".join(lines) + "\n"


def plot_data(reports: list[CostReport]) -> str:
    """(n, worst per-access cost) series for external plotting."""
    lines = ["n,worst"]
    for r in sorted(reports, key=lambda r: r.n):
        lines.append(f"{r.n},{r.per_access_max}")
    return "\n".join(lines) + "\n"
