"""Non-linear least-squares fitting of a single kernel to measurements.

This module is the numerical workhorse under :mod:`repro.core.regression`.
It fits one :class:`~repro.core.kernels.Kernel` to a series of
(core count, value) points with multi-start non-linear least squares and
returns a :class:`FittedFunction` that the regression layer scores at the
checkpoints.

Values are normalised to their mean before fitting so that the generic
initial guesses work for series spanning very different magnitudes
(raw cycle counts are ~1e9-1e12, scaling factors are ~1e-9).

Both public entry points (:func:`fit_kernel`, :func:`fit_all_starts`) share
one multi-start helper, so under-determined series — fewer points than kernel
parameters, e.g. the 3-point memcached desktop runs of Section 4.3 — take the
same trust-region path everywhere instead of failing in one of them.

When the engine's fit cache is enabled (``EstimaConfig(use_fit_cache=True)``
or ``ESTIMA_FIT_CACHE=1``), :func:`fit_kernel` results are memoized
content-addressed on (kernel name, core counts, value bytes, ``max_nfev``);
see :mod:`repro.engine.cache`.  Fits are deterministic, so a cached result is
bit-identical to a recomputed one.

The single-solve primitives (``_solve_start``, ``_linear_fit``,
``_finish_nonlinear``) are deliberately free-standing: the vectorized grid
engine (:mod:`repro.core.fastfit`) builds its cells from exactly these
pieces (its lean driver reproduces ``_solve_start`` bit for bit and falls
back to it when scipy's private entry points are unavailable), so a grid
cell and a ``fit_kernel`` call choose identical fits.  The solvers are
wrapped in the engine
profiler's ``design_solve`` / ``nonlinear_solve`` stages (see
:mod:`repro.engine.profiling`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from repro.engine.cache import FIT_CACHE, fit_key
from repro.engine.profiling import PROFILER

from .kernels import Kernel

__all__ = ["FittedFunction", "fit_kernel", "fit_all_starts"]

# SciPy's Levenberg-Marquardt backend (MINPACK) is not reentrant: concurrent
# calls interfere and return slightly different (timing-dependent) solutions.
# A served predict batch and a served campaign can fit on two threads of one
# process at once, so LM solves take this lock; the trust-region path and the
# linear least-squares short-circuit are reproducible under concurrency and
# run unlocked.
_LM_LOCK = threading.Lock()

#: Relative margin below which two candidate scores are treated as tied and
#: the earlier (deterministically ordered) candidate wins.  Scores are not
#: bit-stable across allocation contexts: numpy's SIMD reductions take
#: alignment-dependent code paths, and the iterative LM solver amplifies the
#: resulting last-ULP input differences into ~1e-7-relative score jitter.  A
#: strict ``<`` lets that noise flip near-tied selections, making "identical"
#: pipelines disagree at the 1e-8 level; genuine score differences between
#: distinct fits are far larger than this margin.
SCORE_TIE_REL = 1e-6


@dataclass(frozen=True)
class FittedFunction:
    """A kernel with concrete fitted parameters.

    The fit is performed on values normalised by ``scale`` (the mean of the
    training values); :meth:`__call__` undoes the normalisation so callers
    always see original units.
    """

    kernel: Kernel
    params: tuple[float, ...]
    scale: float
    train_cores: tuple[int, ...]
    train_rmse: float

    def __call__(self, n: np.ndarray | float | Sequence[float]) -> np.ndarray:
        values = self.kernel(np.asarray(n, dtype=float), self.params) * self.scale
        return np.asarray(values, dtype=float)

    @property
    def name(self) -> str:
        return self.kernel.name

    def is_realistic(
        self, n_eval: np.ndarray, *, allow_negative: bool = False, max_factor: float = 1e30
    ) -> bool:
        """Check the Section 3.1.2 realism criteria over ``n_eval``.

        ``max_factor`` bounds (in original units) how large an extrapolated
        value may grow before the fit is considered exploded.
        """
        n_eval = np.asarray(n_eval, dtype=float)
        if self.kernel.has_pole(self.params, n_eval):
            return False
        values = self(n_eval)
        if not np.all(np.isfinite(values)):
            return False
        if np.any(np.abs(values) > max_factor):
            return False
        if not allow_negative and np.any(values < 0.0):
            return False
        return True


def _residuals(kernel: Kernel, x: np.ndarray, y: np.ndarray):
    def fun(params: np.ndarray) -> np.ndarray:
        pred = kernel.func(x, *params)
        res = pred - y
        return np.where(np.isfinite(res), res, 1e6)

    return fun


def _linear_design(kernel_name: str, x: np.ndarray) -> np.ndarray | None:
    """Design matrix for kernels that are linear in their parameters.

    ``CubicLn`` and ``Poly25`` are plain linear models; solving them directly
    with ordinary least squares is both faster and more robust than iterating
    a non-linear solver, so :func:`fit_kernel` short-circuits to this path.
    """
    if kernel_name == "CubicLn":
        ln = np.log(np.maximum(x, 1e-9))
        return np.column_stack([np.ones_like(x), ln, ln**2, ln**3])
    if kernel_name == "Poly25":
        return np.column_stack([np.ones_like(x), x, x**2, x**2.5])
    return None


def _norm_scale(y: np.ndarray) -> float:
    """Normalisation scale of a training slice (mean |y|, guarded)."""
    scale = float(np.mean(np.abs(y)))
    if scale == 0.0 or not np.isfinite(scale):
        scale = 1.0
    return scale


def _linear_fit(
    kernel: Kernel, design: np.ndarray, x: np.ndarray, y_norm: np.ndarray, scale: float
) -> FittedFunction | None:
    """Exact least-squares solve of a linear-in-parameters kernel.

    ``design`` must be the design matrix of ``x`` (callers may slice a
    precomputed full-series matrix; the rows are built elementwise, so a
    slice is bit-identical to building the matrix on the prefix directly).
    """
    with PROFILER.stage("design_solve"):
        params, *_ = np.linalg.lstsq(design, y_norm, rcond=None)
    if not np.all(np.isfinite(params)):
        return None
    pred = design @ params
    rmse = float(np.sqrt(np.mean((pred - y_norm) ** 2))) * scale
    return FittedFunction(
        kernel=kernel,
        params=tuple(float(p) for p in params),
        scale=scale,
        train_cores=tuple(int(c) for c in x),
        train_rmse=rmse,
    )


def _solve_start(
    kernel: Kernel,
    x: np.ndarray,
    y_norm: np.ndarray,
    guess: Sequence[float],
    *,
    underdetermined: bool,
    max_nfev: int,
) -> np.ndarray | None:
    """One iterative solve from one starting point — THE reference solver call.

    Every non-linear solve in the system goes through this function (the
    scalar multi-start loop and the vectorized engine's surviving starts
    alike), so two paths that solve the same (kernel, series, guess) get
    bit-identical parameters.  Returns ``None`` when the solver raises or
    lands on non-finite parameters.
    """
    try:
        with PROFILER.stage("nonlinear_solve"):
            if underdetermined:
                result = optimize.least_squares(
                    _residuals(kernel, x, y_norm),
                    x0=np.asarray(guess, dtype=float),
                    method="trf",
                    max_nfev=max_nfev,
                )
            else:
                with _LM_LOCK:
                    result = optimize.least_squares(
                        _residuals(kernel, x, y_norm),
                        x0=np.asarray(guess, dtype=float),
                        method="lm",
                        max_nfev=max_nfev,
                    )
    except (ValueError, FloatingPointError):
        return None
    if not np.all(np.isfinite(result.x)):
        return None
    return result.x


def _finish_nonlinear(
    kernel: Kernel, x: np.ndarray, y_norm: np.ndarray, scale: float, params: np.ndarray
) -> FittedFunction | None:
    """Wrap solved parameters into a FittedFunction (None when pred blows up)."""
    pred = kernel.func(x, *params)
    if not np.all(np.isfinite(pred)):
        return None
    rmse = float(np.sqrt(np.mean((pred - y_norm) ** 2))) * scale
    return FittedFunction(
        kernel=kernel,
        params=tuple(float(p) for p in params),
        scale=scale,
        train_cores=tuple(int(c) for c in x),
        train_rmse=rmse,
    )


def _multi_start_fits(
    kernel: Kernel,
    x: np.ndarray,
    y: np.ndarray,
    *,
    max_nfev: int,
    design: np.ndarray | None = None,
) -> list[FittedFunction]:
    """Every converged fit of ``kernel`` to a validated, finite series.

    Kernels that are linear in their parameters are solved directly by
    ordinary least squares (one exact solution, no multi-start).  Otherwise
    each initial guess is tried with non-linear least squares.  With fewer
    points than parameters the problem is under-determined; Levenberg-
    Marquardt cannot be used, but a trust-region solve from each starting
    point still yields a usable (if weakly constrained) fit — this matters
    for very short measurement series such as the 3-point memcached desktop
    runs of Section 4.3.

    ``design`` optionally supplies a precomputed design matrix for the
    linear kernels (the prefix sweep slices one full-series matrix instead
    of rebuilding identical rows per prefix); it must match ``x``.
    """
    scale = _norm_scale(y)
    y_norm = y / scale

    if design is None:
        design = _linear_design(kernel.name, x)
    if design is not None:
        fit = _linear_fit(kernel, design, x, y_norm, scale)
        return [fit] if fit is not None else []

    underdetermined = x.size < kernel.n_params
    fits: list[FittedFunction] = []
    for guess in kernel.initial_guesses:
        params = _solve_start(
            kernel, x, y_norm, guess, underdetermined=underdetermined, max_nfev=max_nfev
        )
        if params is None:
            continue
        fit = _finish_nonlinear(kernel, x, y_norm, scale, params)
        if fit is not None:
            fits.append(fit)
    return fits


def _validate_series(
    cores: Sequence[int] | np.ndarray, values: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Shared input validation; ``None`` marks an unfittable series.

    Core counts must be finite and strictly positive: a NaN/inf or
    non-positive count would flow into the ``log`` and rational kernels as
    a silent NaN fit (the ``log`` design clamps at 1e-9, turning a zero
    count into a wildly wrong but finite row), so such series are rejected
    here like non-finite values always were.
    """
    x = np.asarray(cores, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError("cores and values must be 1-D arrays of equal length")
    if x.size < 2:
        return None
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        return None
    if np.any(~np.isfinite(y)):
        return None
    return x, y


def fit_kernel(
    kernel: Kernel,
    cores: Sequence[int] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    *,
    max_nfev: int = 600,
    design: np.ndarray | None = None,
) -> FittedFunction | None:
    """Fit ``kernel`` to ``(cores, values)``; return None when nothing converges.

    Multi-start: each initial guess from the kernel is tried and the converged
    solution with the lowest training RMSE wins.  Returns ``None`` when the
    series has fewer than two points or when no start converges to a finite
    solution.

    ``design`` optionally passes a precomputed linear design matrix for
    ``cores`` (see :func:`_multi_start_fits`); it does not take part in the
    cache key because it is derived from ``cores``.
    """
    validated = _validate_series(cores, values)
    if validated is None:
        return None
    x, y = validated

    def compute() -> FittedFunction | None:
        best: FittedFunction | None = None
        # Diverging starts hit poles and overflow; the residuals map
        # non-finite values to 1e6 by design, so numpy's warnings report
        # nothing wrong.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fits = _multi_start_fits(kernel, x, y, max_nfev=max_nfev, design=design)
        for candidate in fits:
            if best is None or candidate.train_rmse < best.train_rmse * (1.0 - SCORE_TIE_REL):
                best = candidate
        return best

    if not FIT_CACHE.enabled:
        return compute()
    return FIT_CACHE.get_or_compute(fit_key(kernel.name, x, y, max_nfev), compute)


def fit_all_starts(
    kernel: Kernel,
    cores: Sequence[int] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    *,
    max_nfev: int = 2000,
) -> list[FittedFunction]:
    """Return every converged multi-start fit (mainly for diagnostics/tests).

    Shares the multi-start helper with :func:`fit_kernel`, so under-determined
    series fall back to the trust-region solver instead of silently producing
    no fits (kernels linear in their parameters yield their single exact
    least-squares solution).
    """
    validated = _validate_series(cores, values)
    if validated is None:
        return []
    x, y = validated
    return _multi_start_fits(kernel, x, y, max_nfev=max_nfev)
