"""Scalar clamping for the simulator's per-run model code.

The component models clamp plain Python floats a few dozen times per
simulated run.  ``min(max(x, lo), hi)`` returns the same float as
``float(np.clip(x, lo, hi))`` for every float input (NaN and signed zeros
included) at a fraction of the cost, which matters because the Table-4
ground truth re-simulates whole core-count sweeps.
"""

from __future__ import annotations

__all__ = ["clamp"]


def clamp(x: float, lo: float, hi: float) -> float:
    """``x`` limited to ``[lo, hi]``."""
    return min(max(x, lo), hi)
