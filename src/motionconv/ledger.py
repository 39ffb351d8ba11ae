"""Exact operation counting shared by every stage of the pipeline.

Counters are plain Python integers, so totals stay exact at any scale.
The four categories follow the cost decomposition used throughout:
dense key-frame convolution, block-matching search, sparse residual
compensation, and the dense fallback for unmatched positions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

CATEGORIES = ("key", "me", "res", "unmatched")


def _count(value, what: str) -> int:
    """``value`` as a Python int; ``ValueError`` unless it is a
    non-negative integer (Python or numpy, not a bool or a float)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    return int(value)


@dataclass
class FlopsLedger:
    """Mutable counter set; ``merge`` folds per-worker sub-ledgers together."""

    key_flops: int = 0
    me_flops: int = 0
    res_flops: int = 0
    unmatched_flops: int = 0
    # Prediction copies are free in the FLOPs model; their memory traffic is
    # tracked separately and never enters `total`.
    pred_bytes_moved: int = 0

    @property
    def total(self) -> int:
        return self.key_flops + self.me_flops + self.res_flops + self.unmatched_flops

    def charge(self, category: str, amount: int) -> None:
        """Add ``amount`` FLOPs to one category. Counters never decrease."""
        if category not in CATEGORIES:
            raise ValueError(f"unknown FLOPs category {category!r}")
        field = f"{category}_flops"
        setattr(self, field, getattr(self, field) + _count(amount, "FLOPs charge"))

    def add_pred_bytes(self, nbytes: int) -> None:
        self.pred_bytes_moved += _count(nbytes, "byte count")

    def merge(self, other: "FlopsLedger") -> None:
        """Counter-wise addition; associative and commutative."""
        self.key_flops += other.key_flops
        self.me_flops += other.me_flops
        self.res_flops += other.res_flops
        self.unmatched_flops += other.unmatched_flops
        self.pred_bytes_moved += other.pred_bytes_moved

    def counts(self) -> dict[str, int]:
        return {
            "key": self.key_flops,
            "me": self.me_flops,
            "res": self.res_flops,
            "unmatched": self.unmatched_flops,
            "total": self.total,
        }
