"""Checkpoint-based regression of stalled-cycle series (Section 3.1.2, Fig. 4).

Given measurements of one stall category at core counts ``1..m``, ESTIMA:

1. designates the ``c`` highest-core-count points as *checkpoints*;
2. for every kernel of Table 1 and every training prefix of length
   ``i = min_prefix..n`` (``n = m - c``), fits the kernel to the prefix;
3. discards fits that are "not realistic" (poles, NaN, explosion, negative
   stall counts);
4. scores each surviving fit by its RMSE at the checkpoints only;
5. keeps the fit with the lowest checkpoint RMSE and uses it to extrapolate
   the category to the target core count.

The prefix sweep is the paper's guard against over-fitting: a small deviation
at high measured counts sometimes steers the full-data fit the wrong way, and
a shorter prefix wins at the checkpoints instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine.cache import EXTRAPOLATION_CACHE, extrapolation_key

from . import fastfit
from .config import EstimaConfig
from .fitting import SCORE_TIE_REL, FittedFunction
from .kernels import Kernel

__all__ = ["CandidateFit", "ExtrapolationResult", "extrapolate_series", "candidate_fits"]


@dataclass(frozen=True)
class CandidateFit:
    """One (kernel, training prefix) fit scored at the checkpoints."""

    fitted: FittedFunction
    prefix_length: int
    checkpoint_rmse: float

    @property
    def kernel_name(self) -> str:
        return self.fitted.name


@dataclass(frozen=True)
class ExtrapolationResult:
    """The chosen extrapolation of one stall category (or of any series).

    ``predict`` evaluates the winning function at arbitrary core counts;
    ``candidates`` records every scored alternative for diagnostics.
    """

    category: str
    cores: np.ndarray
    values: np.ndarray
    chosen: CandidateFit
    candidates: tuple[CandidateFit, ...]
    checkpoint_cores: tuple[int, ...]

    def predict(self, n: np.ndarray | Sequence[int] | int | float) -> np.ndarray:
        """Extrapolated values at core counts ``n`` (clamped to be non-negative)."""
        predicted = self.chosen.fitted(np.asarray(n, dtype=float))
        return np.maximum(predicted, 0.0)

    @property
    def kernel_name(self) -> str:
        return self.chosen.kernel_name


def _split_checkpoints(
    cores: np.ndarray, values: np.ndarray, checkpoints: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a series into (training, checkpoint) parts.

    When there are too few points to hold out the requested number of
    checkpoints while keeping at least two training points, the number of
    checkpoints shrinks accordingly (down to one).
    """
    m = cores.size
    c = min(checkpoints, max(1, m - 2))
    n = m - c
    return cores[:n], values[:n], cores[n:], values[n:]


@dataclass(frozen=True)
class _Sweep:
    """Precomputed inputs of one prefix sweep."""

    train_x: np.ndarray
    train_y: np.ndarray
    check_x: np.ndarray
    check_y: np.ndarray
    eval_range: np.ndarray
    scale_bound: float
    prefixes: list[int]
    grid: list[tuple[int, Kernel]]

    @property
    def checkpoint_cores(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.check_x)


def _prepare_sweep(
    x: np.ndarray, y: np.ndarray, config: EstimaConfig, target_cores: int
) -> _Sweep:
    """Validate a series and lay out the (prefix, kernel) grid to fit."""
    if x.size != y.size:
        raise ValueError("cores and values must have the same length")
    if x.size < 3:
        raise ValueError("need at least 3 measurements to extrapolate")

    train_x, train_y, check_x, check_y = _split_checkpoints(x, y, config.checkpoints)
    n = train_x.size
    eval_range = np.arange(1.0, float(max(target_cores, int(x.max()))) + 1.0)
    scale_bound = config.max_extrapolation_factor * max(float(np.max(np.abs(y))), 1e-30)

    min_prefix = max(config.min_prefix, 2)
    if n < min_prefix:
        # Very short series (e.g. three-point desktop measurements): no prefix
        # sweep is possible, train on everything that is not a checkpoint.
        prefixes = [n]
    else:
        prefixes = list(range(min_prefix, n + 1))
    grid = [(prefix, kernel) for prefix in prefixes for kernel in config.kernels]
    return _Sweep(
        train_x=train_x,
        train_y=train_y,
        check_x=check_x,
        check_y=check_y,
        eval_range=eval_range,
        scale_bound=scale_bound,
        prefixes=prefixes,
        grid=grid,
    )


def _screen_fits(
    sweep: _Sweep,
    fitted_grid: list[FittedFunction | None],
    *,
    allow_negative: bool,
) -> list[CandidateFit]:
    """Realism-screen and checkpoint-score a fitted grid (Section 3.1.2)."""
    survivors = fastfit.screen_candidates(
        fitted_grid,
        sweep.eval_range,
        sweep.check_x,
        sweep.check_y,
        allow_negative=allow_negative,
        max_factor=sweep.scale_bound,
    )
    return [
        CandidateFit(
            fitted=fitted_grid[index],
            prefix_length=sweep.grid[index][0],
            checkpoint_rmse=score,
        )
        for index, score in survivors
    ]


def candidate_fits(
    cores: Sequence[int] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    config: EstimaConfig,
    *,
    target_cores: int,
    allow_negative: bool = False,
) -> tuple[list[CandidateFit], tuple[int, ...]]:
    """Fit every (kernel, prefix) combination and score it at the checkpoints.

    Returns the surviving candidates (realistic, finite checkpoint RMSE) and
    the checkpoint core counts used for scoring.
    """
    x = np.asarray(cores, dtype=float)
    y = np.asarray(values, dtype=float)
    sweep = _prepare_sweep(x, y, config, target_cores)
    fitted_grid = fastfit.fit_grid(
        list(config.kernels), sweep.train_x, sweep.train_y, sweep.prefixes
    )
    results = _screen_fits(sweep, fitted_grid, allow_negative=allow_negative)
    return results, sweep.checkpoint_cores


def extrapolate_series(
    cores: Sequence[int] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    config: EstimaConfig,
    *,
    target_cores: int,
    category: str = "",
    allow_negative: bool = False,
) -> ExtrapolationResult:
    """Run the full Section-3.1.2 procedure on one series.

    Raises ``RuntimeError`` when no kernel produces a realistic fit, which in
    practice only happens on degenerate inputs (constant zero series are
    handled by the caller).

    When the engine's extrapolation cache is enabled the chosen fit is
    memoized on the series content, ``target_cores`` and the config fields
    that influence it — every input the selection depends on, so a cached
    result is always bit-identical to a recomputed one.
    """
    x = np.asarray(cores, dtype=float)
    y = np.asarray(values, dtype=float)
    if not EXTRAPOLATION_CACHE.enabled:
        return _extrapolate_series_impl(
            x, y, config, target_cores=target_cores, category=category,
            allow_negative=allow_negative,
        )
    key = extrapolation_key(
        x, y, config, target_cores=target_cores, category=category,
        allow_negative=allow_negative,
    )
    return EXTRAPOLATION_CACHE.get_or_compute(
        key,
        lambda: _extrapolate_series_impl(
            x, y, config, target_cores=target_cores, category=category,
            allow_negative=allow_negative,
        ),
    )


def _extrapolate_series_impl(
    x: np.ndarray,
    y: np.ndarray,
    config: EstimaConfig,
    *,
    target_cores: int,
    category: str,
    allow_negative: bool,
) -> ExtrapolationResult:
    # Steeply decreasing series can drive every kernel negative somewhere on
    # the extrapolation range.  Rather than fail the whole prediction, fall
    # back to the unconstrained fits — ``predict`` clamps the final values at
    # zero anyway.  Fits are deterministic, so re-screening the same grid
    # yields exactly what refitting would.
    sweep = _prepare_sweep(x, y, config, target_cores)
    fitted_grid = fastfit.fit_grid(
        list(config.kernels), sweep.train_x, sweep.train_y, sweep.prefixes
    )
    candidates = _screen_fits(sweep, fitted_grid, allow_negative=allow_negative)
    if not candidates and not allow_negative:
        candidates = _screen_fits(sweep, fitted_grid, allow_negative=True)
    if not candidates:
        raise RuntimeError(
            f"no realistic kernel fit found for category {category!r} "
            f"({x.size} measurements, kernels={config.kernel_names})"
        )
    # Epsilon-min over checkpoint RMSE: near-ties (within SCORE_TIE_REL)
    # resolve to the earlier candidate of the deterministic (prefix, kernel)
    # grid order, so last-ULP score noise cannot flip the selection.
    chosen = candidates[0]
    for candidate in candidates[1:]:
        if candidate.checkpoint_rmse < chosen.checkpoint_rmse * (1.0 - SCORE_TIE_REL):
            chosen = candidate
    return ExtrapolationResult(
        category=category,
        cores=np.asarray(x, dtype=int),
        values=y.copy(),
        chosen=chosen,
        candidates=tuple(sorted(candidates, key=lambda c: c.checkpoint_rmse)),
        checkpoint_cores=sweep.checkpoint_cores,
    )
