"""Deterministic access-sequence generators for experiments."""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

KINDS = ("sequential", "uniform", "zipf", "working-set", "bit-reversal")


@dataclass
class SequenceSpec:
    kind: str  # one of KINDS, as given: zipf:a and working-set:w keep their parameter
    n: int
    m: int
    seed: int = 0
    alpha: float = field(init=False, default=1.0)  # zipf skew
    width: int = field(init=False, default=8)  # working-set window

    def __post_init__(self) -> None:
        base, sep, arg = self.kind.partition(":")
        if base not in KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}, have {KINDS}")
        if sep:
            if base == "zipf":
                self.alpha = float(arg)
            elif base == "working-set":
                self.width = int(arg)
            else:
                raise ValueError(f"kind {base} takes no parameter")
        if self.n < 1 or self.m < 0:
            raise ValueError("need n >= 1 and m >= 0")
        if base == "bit-reversal" and self.n & (self.n - 1):
            raise ValueError("bit-reversal needs n to be a power of two")
        if base == "working-set" and self.width < 1:
            raise ValueError("working-set width must be positive")
        if base == "zipf":
            # 1/k**a is 1.0 at k = 1 and monotone in k, so k = n decides
            try:
                w = 1.0 / (self.n ** self.alpha)
            except (OverflowError, ZeroDivisionError):
                w = 0.0
            if not 0.0 < w < math.inf:
                raise ValueError(f"zipf exponent {self.alpha} gives weights 1/k**a that are "
                                 f"not all finite and positive for k = 1..{self.n}")


def _bit_reverse(i: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def gen_sequence(spec: SequenceSpec) -> list[int]:
    """Generate the access sequence; identical spec and seed give identical
    output. Every access to a key holds the same int object."""
    n, m = spec.n, spec.m
    rng = random.Random(spec.seed)
    keys = list(range(n + 1))
    kind = spec.kind.partition(":")[0]
    if kind == "sequential":
        return [keys[i % n + 1] for i in range(m)]
    if kind == "uniform":
        return [keys[rng.randint(1, n)] for _ in range(m)]
    if kind == "zipf":
        cum = list(accumulate(1.0 / (k ** spec.alpha) for k in range(1, n + 1)))
        total = cum[-1]
        # the leftmost key whose cumulative weight reaches x <= total
        return [keys[bisect_left(cum, rng.random() * total) + 1] for _ in range(m)]
    if kind == "working-set":
        window: list[int] = []
        out = []
        for _ in range(m):
            if window and rng.random() < 0.75:
                # geometric recency preference inside the window
                idx = 0
                while idx < len(window) - 1 and rng.random() < 0.5:
                    idx += 1
                k = window[idx]
            else:
                k = keys[rng.randint(1, n)]
            out.append(k)
            if k in window:
                window.remove(k)
            window.insert(0, k)
            del window[spec.width:]
        return out
    # bit-reversal
    bits = max(1, n.bit_length() - 1)
    perm = [_bit_reverse(i, bits) + 1 for i in range(n)]
    return [perm[i % n] for i in range(m)]
