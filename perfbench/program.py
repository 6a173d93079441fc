"""Locates the deamort sources of the checkout the benchmark runs in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Import deamort from ``src/`` next to the benchmark, never from an
    installed copy; exit nonzero when the sources are not there."""
    if not (SRC / "deamort" / "__init__.py").is_file():
        sys.exit(f"perfbench: no deamort sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deamort

    if Path(deamort.__file__).resolve().parent != SRC / "deamort":
        sys.exit(f"perfbench: deamort was imported from {deamort.__file__}, not {SRC}")
