"""Vectorized fit-grid engine for the Section-3.1.2 prefix sweep.

The prefix sweep of :mod:`repro.core.regression` fits every (kernel,
training-prefix) pair of Table 1 from every initial guess.  Almost all of a
cold campaign is spent in those non-linear solves, on arrays of at most a
dozen points, where per-call Python and numpy overhead costs more than the
arithmetic.  This module restructures the work while keeping every float
bit-identical to the scalar reference path in :mod:`repro.core.fitting`:

1. **prefix-shared linear solves** — for the linear-in-parameters kernels
   (``CubicLn``/``Poly25``) the design matrix of prefix ``p`` is the first
   ``p`` rows of the full-series matrix, so the sweep builds one matrix and
   slices it per prefix; each slice is still solved with the reference
   ``lstsq`` call.
2. **a lean non-linear driver** — it runs the iteration
   ``scipy.optimize.least_squares`` would run, without the wrapper's
   validation and ``VectorFunction`` plumbing:

   * *one stacked kernel call per parameter point*: the residual and the
     ``K`` forward-difference rows of the wrapper's 2-point Jacobian are one
     ``(K+1, m)`` broadcast of the kernel formula over a power table built
     once per solve (:meth:`repro.core.kernels.Rational.over`); the solver's
     Jacobian request then reuses the stack of the point it just evaluated;
   * *determined cells* go to MINPACK through ``scipy.optimize._minpack._lmder``
     with the wrapper's tolerances, factor and ``diag`` — the one private
     scipy entry point left;
   * *under-determined cells* (prefix shorter than the parameter count) run
     :func:`_trf`, a copy of scipy's ``trf_no_bounds`` specialised to linear
     loss, the ``exact`` trust-region solver and unit ``x_scale``.  It makes
     the same ``scipy.linalg.svd``, dot-product norm and ``np.add.reduce``
     calls in the same order.

   The contract is bit-identity with :func:`repro.core.fitting._solve_start`:
   the same floats from the same operations in the same order, the same
   solves, none skipped.  (On a few diverging starts the installed MINPACK
   itself answers differently from run to run, depending on the process's
   memory layout; there the lean answer is one of the reference's answers,
   which is what the identity tests check.)  A one-time self-check on the
   first solve (:data:`LEAN_CHECK`) verifies it against ``least_squares``
   and otherwise routes every solve to the reference call, with one
   ``RuntimeWarning``.
3. **batched candidate screening** — the realism predicate and the
   checkpoint-RMSE scoring evaluate all surviving candidates over the
   evaluation range / checkpoints as one stacked ``(candidates, points)``
   kernel broadcast instead of a per-candidate Python loop (kernel
   evaluation is elementwise, so the stacked values are bit-identical to
   the per-candidate ones).

The grid probes and fills the engine's fit cache under the same per-cell
keys (and hit/miss accounting) as the scalar :func:`repro.core.fitting.fit_kernel`,
so the two share entries in both directions.
"""

from __future__ import annotations

import threading
import warnings
from typing import Callable, Sequence

import numpy as np
from scipy import optimize
from scipy.linalg import svd

from repro.engine.cache import FIT_CACHE, fit_key
from repro.engine.profiling import PROFILER

from .fitting import (
    SCORE_TIE_REL,
    FittedFunction,
    _LM_LOCK,
    _finish_nonlinear,
    _linear_design,
    _linear_fit,
    _norm_scale,
    _residuals,
    _solve_start,
    _validate_series,
)
from .kernels import _DENOM_EPS, Kernel, Rational, get_kernel, power_table
from .metrics import rmse

try:  # the one private scipy entry point; guarded by LEAN_CHECK
    from scipy.optimize._minpack import _lmder
except ImportError:  # pragma: no cover - depends on the installed scipy
    _lmder = None

__all__ = [
    "LEAN_CHECK",
    "fit_grid",
    "screen_candidates",
]

# least_squares' defaults, which the reference solve uses.
_TOL = 1e-8

# scipy's relative 2-point finite-difference step for float64 data.
_FD_STEP = np.finfo(np.float64).eps ** 0.5


# --------------------------------------------------------------------------- #
# Fused residual + Jacobian evaluation
# --------------------------------------------------------------------------- #

Point = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _stacked_residuals(
    kernel: Kernel, x: np.ndarray, y_norm: np.ndarray
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``stack(params) -> (res, bumped)``: one kernel call per point.

    ``res[0]`` is the residual of :func:`repro.core.fitting._residuals`;
    ``res[1:]`` are the residuals at the ``K`` points ``least_squares``'
    default 2-point rule bumps (``h = ±sqrt(eps)·max(1, |p|)``, one
    parameter per row), and the Jacobian is ``(res[1:] - res[0]) / dx`` with
    ``dx = bumped - params``.  The base point and the bumped points are one
    ``(K+1, m)`` broadcast of the kernel formula; kernel evaluation is
    elementwise, so every row is bit-identical to evaluating its parameter
    vector alone.

    Residuals are finite by construction (non-finite values become ``1e6``),
    so ``least_squares``' initial-residual check and ``trf``'s non-finite
    step branch can never fire on these problems.
    """
    over = kernel.func.over
    powers = power_table(x)
    # Column j of the stack holds params[j] in every row but row j + 1, which
    # holds the bumped value.
    bump = np.eye(kernel.n_params, kernel.n_params + 1, 1, dtype=bool)[..., None]

    def stack(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bumped = params + np.where(params >= 0, _FD_STEP, -_FD_STEP) * np.maximum(
            1.0, np.abs(params)
        )
        columns = np.where(bump, bumped[:, None, None], params[:, None, None])
        res = over(powers, *columns) - y_norm
        return np.where(np.isfinite(res), res, 1e6), bumped

    return stack


def _point_evaluator(kernel: Kernel, x: np.ndarray, y_norm: np.ndarray) -> Point:
    """``point(params) -> (f, J)`` with the reference solver's exact values."""
    stack = _stacked_residuals(kernel, x, y_norm)

    def point(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        res, bumped = stack(params)
        f = res[0]
        return f, ((res[1:] - f) / (bumped - params)[:, None]).T

    return point


def _lm_callbacks(
    kernel: Kernel, x: np.ndarray, y_norm: np.ndarray
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """MINPACK's ``(fun, jac)`` pair over one stacked evaluation per point.

    MINPACK asks for the Jacobian only at the point it evaluated last, so
    ``fun`` keeps its stacked evaluation and ``jac`` divides it out.  The
    callbacks allocate like scipy's wrapper does: ``fun`` returns a fresh
    residual array and ``jac`` builds the Jacobian when asked.  On diverging
    starts the installed MINPACK can land on different answers for the same
    inputs depending on the process's memory layout; handing it views of a
    precomputed stack measurably changed which of those starts flip, so
    keep this allocation pattern.
    """
    stack = _stacked_residuals(kernel, x, y_norm)
    state: dict[str, object] = {}

    def evaluate(params: np.ndarray) -> dict[str, object]:
        key = params.tobytes()
        if state.get("key") != key:
            res, bumped = stack(params)
            state.clear()
            state.update(key=key, res=res, dx=bumped - params)
        return state

    def fun(params: np.ndarray) -> np.ndarray:
        return evaluate(params)["res"][0].copy()

    def jac(params: np.ndarray) -> np.ndarray:
        current = evaluate(params)
        res = current["res"]
        return ((res[1:] - res[0]) / current["dx"][:, None]).T

    return fun, jac


# --------------------------------------------------------------------------- #
# Solvers
# --------------------------------------------------------------------------- #


def _lmder_solve(
    fun: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_nfev: int,
) -> np.ndarray:
    """MINPACK ``lmder`` with ``least_squares(method="lm")``'s arguments."""
    with _LM_LOCK:
        solved, _info, _status = _lmder(
            fun,
            jac,
            x0.astype(x0.dtype),
            (),
            True,
            False,
            _TOL,
            _TOL,
            _TOL,
            max_nfev,
            100.0,
            None,
        )
    return solved


def _norm(v: np.ndarray) -> float:
    """``numpy.linalg.norm`` of a contiguous 1-D float vector, same operations."""
    return np.sqrt(v.dot(v))


def _trust_region_solver(
    uf: np.ndarray, s: np.ndarray, V: np.ndarray
) -> Callable[[float, float], tuple[np.ndarray, float]]:
    """scipy's ``solve_lsq_trust_region`` (rtol 0.01, 10 iterations) for one SVD.

    Only under-determined problems (fewer residuals than parameters) reach
    it, where scipy never takes the Gauss-Newton shortcut, so that branch is
    left out.  Returns ``step(Delta, alpha) -> (p, alpha)``.  What does not
    depend on ``Delta`` or ``alpha`` is computed once per SVD rather than
    once per call, which leaves every value unchanged.
    """
    suf = s * uf
    s2 = s**2
    suf2 = suf**2
    suf_norm = _norm(suf)

    def phi_and_derivative(alpha, Delta):
        denom = s2 + alpha
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -np.add.reduce(suf2 / denom**3) / p_norm

    def step(Delta: float, alpha: float) -> tuple[np.ndarray, float]:
        alpha_upper = suf_norm / Delta
        alpha_lower = 0.0
        if alpha == 0:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)

        for _ in range(10):
            if alpha < alpha_lower or alpha > alpha_upper:
                alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
            phi, phi_prime = phi_and_derivative(alpha, Delta)
            if phi < 0:
                alpha_upper = alpha
            ratio = phi / phi_prime
            alpha_lower = max(alpha_lower, alpha - ratio)
            alpha -= (phi + Delta) * ratio / Delta
            if np.abs(phi) < 0.01 * Delta:
                break

        p = -V.dot(suf / (s2 + alpha))
        p *= Delta / _norm(p)
        return p, alpha

    return step


def _trf(point: Point, x0: np.ndarray, max_nfev: int) -> np.ndarray:
    """scipy's ``trf_no_bounds`` for ``least_squares(method="trf")``'s defaults.

    Specialised to under-determined problems, linear loss,
    ``tr_solver="exact"`` and unit ``x_scale`` (every multiplication by the
    unit scale is exact, so it is left out).  Each accepted point's Jacobian
    comes from the same stacked evaluation as its residual.
    """
    x = x0
    f, J = point(x0)
    nfev = 1
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    Delta = _norm(x0)
    if Delta == 0:
        Delta = 1.0
    alpha = 0.0
    done = False

    while not done and not np.abs(g).max() < _TOL and nfev != max_nfev:
        U, s, V = svd(J, full_matrices=False)
        trust_region_step = _trust_region_solver(U.T.dot(f), s, V.T)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            step, alpha = trust_region_step(Delta, alpha)
            Js = J.dot(step)
            predicted_reduction = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            x_new = x + step
            f_new, J_new = point(x_new)
            nfev += 1

            step_norm = _norm(step)
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new

            # update_tr_radius
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * Delta:
                Delta_new *= 2.0

            # check_termination (ftol or xtol)
            if (actual_reduction < _TOL * cost and ratio > 0.25) or (
                step_norm < _TOL * (_TOL + _norm(x))
            ):
                done = True
                break

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, J, cost = x_new, f_new, J_new, cost_new
            g = J.T.dot(f)
    return x


def _lean_solve(
    kernel: Kernel,
    x: np.ndarray,
    y_norm: np.ndarray,
    guess: Sequence[float],
    *,
    underdetermined: bool,
    max_nfev: int,
) -> np.ndarray:
    """The lean driver's raw answer (raises like the solvers it drives)."""
    if underdetermined:
        point = _point_evaluator(kernel, x, y_norm)
        return _trf(point, np.asarray(guess, dtype=float), max_nfev)
    fun, jac = _lm_callbacks(kernel, x, y_norm)
    x0 = np.asarray(guess, dtype=float)
    # least_squares evaluates the start before it calls MINPACK, and so does
    # this driver: MINPACK's first call then reuses the stack, and the heap
    # MINPACK starts from allocates like the reference's (see _lm_callbacks).
    fun(x0)
    return _lmder_solve(fun, jac, x0, max_nfev)


def _lean_solve_start(
    kernel: Kernel,
    x: np.ndarray,
    y_norm: np.ndarray,
    guess: Sequence[float],
    *,
    underdetermined: bool,
    max_nfev: int,
) -> np.ndarray | None:
    """Bit-identical twin of :func:`repro.core.fitting._solve_start`."""
    try:
        with PROFILER.stage("nonlinear_solve"):
            solved = _lean_solve(
                kernel, x, y_norm, guess, underdetermined=underdetermined, max_nfev=max_nfev
            )
    except (ValueError, FloatingPointError):
        return None
    if not np.all(np.isfinite(solved)):
        return None
    return solved


# --------------------------------------------------------------------------- #
# Self-check of the lean driver
# --------------------------------------------------------------------------- #


def _self_check_failure() -> str | None:
    """Why the lean driver cannot stand in for ``least_squares``, or None.

    Solves one fixed ``lm`` problem and one fixed under-determined ``trf``
    problem both ways and compares the parameters bit for bit.  Runs no
    profiled stage, so it leaves the ``nonlinear_solve`` counts untouched.
    """
    if _lmder is None:
        return "scipy.optimize._minpack._lmder is unavailable"
    x = np.arange(1.0, 9.0)
    y = x / (1.0 + 0.05 * x) + 0.02 * np.sin(3.0 * x)
    problems = (("Rat22", x, "lm"), ("Rat33", x[:4], "trf"))
    for name, xs, method in problems:
        kernel = get_kernel(name)
        y_norm = y[: xs.size] / _norm_scale(y[: xs.size])
        guess = kernel.initial_guesses[0]
        try:
            with np.errstate(all="ignore"):
                lean = _lean_solve(
                    kernel, xs, y_norm, guess,
                    underdetermined=method == "trf", max_nfev=600,
                )
                with _LM_LOCK:
                    ref = optimize.least_squares(
                        _residuals(kernel, xs, y_norm),
                        x0=np.asarray(guess, dtype=float),
                        method=method,
                        max_nfev=600,
                    ).x
        except (TypeError, ValueError, FloatingPointError) as exc:
            return f"{method} problem raised {type(exc).__name__}: {exc}"
        if lean.tobytes() != ref.tobytes():
            return f"{method} problem differs from least_squares"
    return None


class _LeanCheck:
    """Runs :func:`_self_check_failure` once, on first use (not at import)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._passed: bool | None = None

    def passed(self) -> bool:
        """Whether the lean driver may serve solves in this process."""
        if self._passed is None:
            with self._lock:
                if self._passed is None:
                    failure = _self_check_failure()
                    if failure is not None:
                        warnings.warn(
                            f"lean solver self-check failed ({failure}); every "
                            "solve uses scipy.optimize.least_squares instead",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                    self._passed = failure is None
        return self._passed


#: The process-wide self-check gate of the lean driver.
LEAN_CHECK = _LeanCheck()


def _nonlinear_solve(
    kernel: Kernel,
    x: np.ndarray,
    y_norm: np.ndarray,
    guess: Sequence[float],
    *,
    underdetermined: bool,
    max_nfev: int,
) -> np.ndarray | None:
    """One start through the lean driver, or the reference call as fallback.

    The lean driver evaluates the Table-1 rational family; any other
    non-linear kernel takes the reference call.
    """
    lean = isinstance(kernel.func, Rational) and LEAN_CHECK.passed()
    solve = _lean_solve_start if lean else _solve_start
    return solve(kernel, x, y_norm, guess, underdetermined=underdetermined, max_nfev=max_nfev)


# --------------------------------------------------------------------------- #
# Batched kernel evaluation
# --------------------------------------------------------------------------- #


def _eval_rows(kernel: Kernel, n: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Evaluate ``kernel`` at ``n`` for a stack of parameter rows.

    ``params`` has shape ``(..., n_params)``; each parameter becomes a
    broadcast column, so the result has shape ``(..., len(n))``.  Kernel
    functions are plain elementwise numpy expressions, so every output
    element is bit-identical to a scalar-parameter evaluation with the same
    parameter values.
    """
    cols = [params[..., j][..., None] for j in range(params.shape[-1])]
    return np.asarray(kernel.func(n, *cols), dtype=float)


# --------------------------------------------------------------------------- #
# The grid
# --------------------------------------------------------------------------- #


def _exact_cell(
    kernel: Kernel,
    xp: np.ndarray,
    yp: np.ndarray,
    scale: float,
    max_nfev: int,
) -> FittedFunction | None:
    """Solve one (kernel, prefix) cell exactly — every start, lean driver.

    Mirrors the scalar path's multi-start loop and epsilon selection
    (:func:`repro.core.fitting._multi_start_fits` followed by the
    best-of-starts rule of ``fit_kernel``); the only difference is the
    solver invocation, which is bit-identical by construction.
    """
    y_norm = yp / scale
    underdetermined = xp.size < kernel.n_params
    best: FittedFunction | None = None
    for guess in kernel.initial_guesses:
        solved = _nonlinear_solve(
            kernel, xp, y_norm, guess, underdetermined=underdetermined, max_nfev=max_nfev
        )
        if solved is None:
            continue
        fit = _finish_nonlinear(kernel, xp, y_norm, scale, solved)
        if fit is None:
            continue
        if best is None or fit.train_rmse < best.train_rmse * (1.0 - SCORE_TIE_REL):
            best = fit
    return best


def fit_grid(
    kernels: Sequence[Kernel],
    cores: np.ndarray,
    values: np.ndarray,
    prefixes: Sequence[int],
    *,
    max_nfev: int = 600,
) -> list[FittedFunction | None]:
    """Fit every (prefix, kernel) cell; returns fits in the sweep's grid order.

    The result list matches ``[(p, k) for p in prefixes for k in kernels]``
    positionally — the cell each :func:`repro.core.fitting.fit_kernel`
    call on that prefix would return.  When the engine's fit cache is
    enabled, every cell is probed and filled under the same content key (and
    with the same per-cell hit/miss accounting) as ``fit_kernel``, so warm
    entries are shared with it in both directions.
    """
    validated = _validate_series(cores, values)
    if validated is None:
        return [None] * (len(prefixes) * len(kernels))
    x, y = validated
    prefixes = [int(p) for p in prefixes]
    scales = {p: _norm_scale(y[:p]) for p in prefixes}

    fits: dict[tuple[int, str], FittedFunction | None] = {}
    cached: set[tuple[int, str]] = set()
    if FIT_CACHE.enabled:
        for p in prefixes:
            for kernel in kernels:
                hit, value = FIT_CACHE.get(fit_key(kernel.name, x[:p], y[:p], max_nfev))
                if hit:
                    fits[(p, kernel.name)] = value
                    cached.add((p, kernel.name))

    # Diverging starts hit poles and overflow; the residuals map non-finite
    # values to 1e6 by design, so numpy's warnings report nothing wrong.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for kernel in kernels:
            todo = [p for p in prefixes if (p, kernel.name) not in fits]
            if not todo:
                continue
            design_full = _linear_design(kernel.name, x)
            if design_full is not None:
                for p in todo:
                    fits[(p, kernel.name)] = _linear_fit(
                        kernel, design_full[:p], x[:p], y[:p] / scales[p], scales[p]
                    )
                continue
            for p in todo:
                fits[(p, kernel.name)] = _exact_cell(kernel, x[:p], y[:p], scales[p], max_nfev)

    if FIT_CACHE.enabled:
        for (p, name), fit in fits.items():
            if (p, name) not in cached:
                FIT_CACHE.put(fit_key(name, x[:p], y[:p], max_nfev), fit)

    return [fits[(p, kernel.name)] for p in prefixes for kernel in kernels]


# --------------------------------------------------------------------------- #
# Batched realism screening + checkpoint scoring
# --------------------------------------------------------------------------- #


def screen_candidates(
    fitted_grid: Sequence[FittedFunction | None],
    eval_range: np.ndarray,
    check_x: np.ndarray,
    check_y: np.ndarray,
    *,
    allow_negative: bool,
    max_factor: float,
) -> list[tuple[int, float]]:
    """Batched Section-3.1.2 screening of a fitted grid.

    Returns ``(grid_index, checkpoint_rmse)`` for every candidate that
    passes the realism predicate and scores finitely at the checkpoints, in
    grid order — the same pairs a per-candidate screen
    (:meth:`~repro.core.fitting.FittedFunction.is_realistic`, then
    :func:`repro.core.metrics.rmse` at the checkpoints) produces, because
    the stacked kernel evaluation is elementwise-identical to the
    per-candidate one and the per-row RMSE reduces each row exactly like
    the scalar ``rmse``.
    """
    present: dict[str, list[tuple[int, FittedFunction]]] = {}
    for index, fitted in enumerate(fitted_grid):
        if fitted is not None:
            present.setdefault(fitted.name, []).append((index, fitted))

    scores: dict[int, float] = {}
    for name, members in present.items():
        kernel = members[0][1].kernel
        params = np.asarray([fit.params for _, fit in members], dtype=float)
        scale_col = np.asarray([fit.scale for _, fit in members], dtype=float)[:, None]

        with PROFILER.stage("realism_screen"), np.errstate(all="ignore"):
            if kernel.rational:
                cols = params.T[:, :, None]
                den = kernel.func.denominator(power_table(eval_range), *cols)
                pole = np.any(np.abs(den) < _DENOM_EPS, axis=-1) | np.any(
                    den[..., :-1] * den[..., 1:] < 0.0, axis=-1
                )
            else:
                pole = np.zeros(len(members), dtype=bool)
            values = _eval_rows(kernel, eval_range, params) * scale_col
            finite = np.all(np.isfinite(values), axis=-1)
            realistic = ~pole & finite & ~np.any(np.abs(values) > max_factor, axis=-1)
            if not allow_negative:
                realistic &= ~np.any(values < 0.0, axis=-1)

        kept = [member for member, ok in zip(members, realistic) if ok]
        if not kept:
            continue
        with PROFILER.stage("checkpoint_score"):
            kept_params = np.asarray([fit.params for _, fit in kept], dtype=float)
            kept_scales = np.asarray([fit.scale for _, fit in kept], dtype=float)[:, None]
            predicted = _eval_rows(kernel, check_x, kept_params) * kept_scales
            for (index, _fit), row in zip(kept, predicted):
                if not np.all(np.isfinite(row)):
                    continue
                score = rmse(row, check_y)
                if np.isfinite(score):
                    scores[index] = score

    return [(index, scores[index]) for index in sorted(scores)]
