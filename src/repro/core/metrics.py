"""Error and correlation metrics used throughout ESTIMA.

The paper reports three kinds of numbers that these helpers compute:

* prediction error (absolute relative error, in percent) — Tables 4 and 7,
* Pearson correlation between stalled cycles per core and execution time —
  Tables 5 and 6, Figure 2,
* RMSE at the checkpoints — the model-selection criterion of Section 3.1.2.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "rmse",
    "relative_errors",
    "max_relative_error",
    "mean_relative_error",
    "pearson_correlation",
    "error_table_row",
]


def rmse(predicted: Sequence[float] | np.ndarray, actual: Sequence[float] | np.ndarray) -> float:
    """Root mean square error between two equally long series."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {a.shape}")
    if p.size == 0:
        raise ValueError("cannot compute RMSE of empty series")
    return float(np.sqrt(np.mean((p - a) ** 2)))


def relative_errors(
    predicted: Sequence[float] | np.ndarray, actual: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Per-point absolute relative error ``|pred - actual| / actual`` (fraction)."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {a.shape}")
    if np.any(a == 0.0):
        raise ValueError("actual values must be non-zero for relative error")
    return np.abs(p - a) / np.abs(a)


def max_relative_error(
    predicted: Sequence[float] | np.ndarray, actual: Sequence[float] | np.ndarray
) -> float:
    """Maximum absolute relative error in percent (the paper's headline metric)."""
    return float(np.max(relative_errors(predicted, actual)) * 100.0)


def mean_relative_error(
    predicted: Sequence[float] | np.ndarray, actual: Sequence[float] | np.ndarray
) -> float:
    """Mean absolute relative error in percent."""
    return float(np.mean(relative_errors(predicted, actual)) * 100.0)


def pearson_correlation(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray
) -> float:
    """Pearson correlation coefficient, with degenerate series handled.

    Constant series have zero variance; the paper's correlation tables never
    hit this case but the simulator can produce it for trivially small runs,
    so it is defined as 0.0 rather than raising. Constancy is tested on the
    range, not on ``np.std``: the mean of equal values can round away from
    them, which leaves a tiny nonzero std and a spurious correlation of 1.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("correlation requires at least two points")
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def error_table_row(
    name: str, errors_by_target: Mapping[str, float], *, decimals: int = 1
) -> str:
    """Format one row of a Table-4 style error summary."""
    cells = "  ".join(f"{errors_by_target[key]:.{decimals}f}" for key in errors_by_target)
    return f"{name:<18s} {cells}"
