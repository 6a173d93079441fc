"""Unit-cost BST machine, stack-shaped balanced trees, and worst-case
transforms for self-adjusting search trees."""

from .algorithms import ALGORITHMS, OnlineBstAlgorithm, make_algorithm
from .model import BstOp, IllegalOpError, ModelTree, Trace, VerifyReport, verify_trace
from .poptart import PopTartLeaf, make_poptart
from .simulation import VirtualTree, wrap
from .transforms import (
    GuaranteeViolation,
    WorkQueue,
    interleave_transform,
    online_transform,
)

__all__ = [
    "ALGORITHMS",
    "BstOp",
    "GuaranteeViolation",
    "IllegalOpError",
    "ModelTree",
    "OnlineBstAlgorithm",
    "PopTartLeaf",
    "Trace",
    "VerifyReport",
    "VirtualTree",
    "WorkQueue",
    "interleave_transform",
    "make_algorithm",
    "make_poptart",
    "online_transform",
    "verify_trace",
    "wrap",
]
