"""Tests for the vectorized fit-grid engine (:mod:`repro.core.fastfit`).

The engine's contract is *bit-identity*: whatever the scalar reference path
would choose — kernels, parameters, predicted rows — the vectorized path
must choose too.  The tests here pin that contract at three levels: single
solver calls (lean driver vs ``least_squares``), whole fit grids, and full
``extrapolate_series`` results over a seeded fuzz corpus.

One caveat the fuzz tests must respect: the reference solver itself is not
perfectly reproducible across processes (BLAS/SIMD kernels can round
differently depending on allocation alignment), and on rare perfect-fit
series that noise flips the multi-start winner between two equally-good
fits.  A mismatch therefore only counts against the vectorized engine when
the serial path agrees with *itself* on that series; self-unstable series
are skipped (and counted, so a systematically unstable environment fails
loudly rather than silently skipping everything).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import fastfit
from repro.core.config import EstimaConfig
from repro.core.fastfit import (
    DEFAULT_FIT_STRATEGY,
    ENV_FIT_STRATEGY,
    FIT_STRATEGIES,
    fit_grid,
    fit_strategy_from_env,
    parse_fit_strategy,
    resolve_fit_strategy,
)
from repro.core.fitting import (
    _linear_design,
    _norm_scale,
    _residuals,
    _solve_start,
    _validate_series,
    fit_kernel,
)
from repro.core.kernels import KERNELS, get_kernel, power_table
from repro.core.regression import _prepare_sweep, extrapolate_series
from repro.engine.cache import EXTRAPOLATION_CACHE, FIT_CACHE, caches_enabled, fit_key
from repro.engine.profiling import PROFILER, profile_delta

NONLINEAR = ("Rat22", "Rat23", "Rat33", "ExpRat")
LINEAR = ("CubicLn", "Poly25")


@pytest.fixture(autouse=True)
def _no_fit_strategy_env(monkeypatch):
    """Strategy comes from explicit config in these tests, never the host env."""
    monkeypatch.delenv(ENV_FIT_STRATEGY, raising=False)


# --------------------------------------------------------------------------- #
# Strategy selection
# --------------------------------------------------------------------------- #


class TestStrategySelection:
    def test_parse_accepts_known_tokens(self):
        assert parse_fit_strategy("serial") == "serial"
        assert parse_fit_strategy(" Vectorized ") == "vectorized"

    def test_parse_rejects_unknown_tokens(self):
        with pytest.raises(ValueError, match="fit_strategy"):
            parse_fit_strategy("turbo")

    def test_parse_names_its_source(self):
        with pytest.raises(ValueError, match=ENV_FIT_STRATEGY):
            parse_fit_strategy("turbo", source=ENV_FIT_STRATEGY)

    def test_env_unset_or_blank_is_none(self, monkeypatch):
        assert fit_strategy_from_env() is None
        monkeypatch.setenv(ENV_FIT_STRATEGY, "   ")
        assert fit_strategy_from_env() is None

    def test_env_value_is_validated(self, monkeypatch):
        monkeypatch.setenv(ENV_FIT_STRATEGY, "serial")
        assert fit_strategy_from_env() == "serial"
        monkeypatch.setenv(ENV_FIT_STRATEGY, "bogus")
        with pytest.raises(ValueError, match=ENV_FIT_STRATEGY):
            fit_strategy_from_env()

    def test_resolution_precedence(self, monkeypatch):
        assert resolve_fit_strategy(EstimaConfig()) == DEFAULT_FIT_STRATEGY
        monkeypatch.setenv(ENV_FIT_STRATEGY, "serial")
        assert resolve_fit_strategy(EstimaConfig()) == "serial"
        assert resolve_fit_strategy(EstimaConfig(fit_strategy="vectorized")) == "vectorized"

    def test_config_validates_field(self):
        with pytest.raises(ValueError, match="fit_strategy"):
            EstimaConfig(fit_strategy="bogus")
        for strategy in FIT_STRATEGIES:
            assert EstimaConfig(fit_strategy=strategy).fit_strategy == strategy

    def test_config_validates_env(self, monkeypatch):
        monkeypatch.setenv(ENV_FIT_STRATEGY, "bogus")
        with pytest.raises(ValueError, match=ENV_FIT_STRATEGY):
            EstimaConfig()


# --------------------------------------------------------------------------- #
# Series validation (shared with the scalar path)
# --------------------------------------------------------------------------- #


class TestValidateSeriesCores:
    def test_non_finite_cores_rejected(self):
        assert _validate_series([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]) is None
        assert _validate_series([1.0, np.inf, 3.0], [1.0, 2.0, 3.0]) is None

    def test_non_positive_cores_rejected(self):
        assert _validate_series([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]) is None
        assert _validate_series([-1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) is None

    def test_fit_kernel_returns_none_on_bad_cores(self):
        kernel = get_kernel("CubicLn")
        assert fit_kernel(kernel, [0.0, 1.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0]) is None
        assert fit_kernel(kernel, [1.0, np.nan, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0]) is None

    def test_fit_grid_returns_all_none_on_bad_cores(self):
        kernels = [get_kernel(name) for name in ("CubicLn", "Rat22")]
        grid = fit_grid(kernels, np.array([0.0, 1.0, 2.0]), np.ones(3), [2, 3])
        assert grid == [None] * 4

    def test_valid_series_passes(self):
        validated = _validate_series([1, 2, 4], [1.0, 1.8, 3.1])
        assert validated is not None
        x, y = validated
        np.testing.assert_array_equal(x, [1.0, 2.0, 4.0])


# --------------------------------------------------------------------------- #
# Lean non-linear driver: bitwise identity with the reference solver
# --------------------------------------------------------------------------- #


@pytest.mark.skipif(not fastfit.LEAN_CHECK.passed(), reason="lean solver self-check failed")
class TestLeanSolverIdentity:
    def _series(self, rng, n):
        x = np.arange(1.0, n + 1)
        family = rng.integers(0, 3)
        if family == 0:
            y = x / (1.0 + 0.05 * x) + rng.normal(0, 0.01, n)
        elif family == 1:
            y = 1.0 + 0.5 * x + 0.01 * x * x
        else:
            y = np.abs(rng.normal(1, 1, n)) + 0.1
        return x, y

    def test_bitwise_identical_to_reference_across_seeded_matrix(self):
        rng = np.random.default_rng(1234)
        checked = 0
        for name in NONLINEAR:
            kernel = get_kernel(name)
            for n in (3, 5, 8, 13):
                x, y = self._series(rng, n)
                y_norm = y / _norm_scale(y)
                underdetermined = x.size < kernel.n_params
                for guess in kernel.initial_guesses:
                    with np.errstate(all="ignore"):
                        ref = _solve_start(
                            kernel, x, y_norm, guess,
                            underdetermined=underdetermined, max_nfev=600,
                        )
                        lean = fastfit._lean_solve_start(
                            kernel, x, y_norm, guess,
                            underdetermined=underdetermined, max_nfev=600,
                        )
                    if ref is None:
                        assert lean is None
                    else:
                        assert lean is not None
                        assert lean.tobytes() == ref.tobytes(), (
                            f"{name} n={n} guess={guess}: lean {lean} != ref {ref}"
                        )
                    checked += 1
        assert checked >= len(NONLINEAR) * 4 * 2


def _same(a, b):
    return (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())


def _repeated_runs(solve, attempts=8):
    """Outcomes of repeated solves under varied heap states.

    MINPACK and LAPACK pick alignment-dependent code paths, so the reference
    can round differently from one call to the next; small allocations
    between the calls vary the alignment its work arrays get.
    """
    outcomes, ballast = [], []
    for i in range(attempts):
        ballast.append(np.empty(3 + 5 * i))
        outcomes.append(solve())
    return outcomes


@pytest.mark.skipif(not fastfit.LEAN_CHECK.passed(), reason="lean solver self-check failed")
class TestRealTrafficIdentity:
    """Lean vs reference on every solve of one Table-4 workload's cold grid."""

    def test_every_recorded_solve_matches_the_reference(self, monkeypatch):
        from repro.core.predictor import EstimaPredictor
        from repro.machine import get_machine
        from repro.simulation.simulator import MachineSimulator
        from repro.workloads import get_workload

        truth = MachineSimulator(get_machine("opteron48")).sweep(
            get_workload("swaptions"), core_counts=[1, 2, 3, 4, 6, 8, 10, 12]
        )
        solves = []
        real = fastfit._nonlinear_solve

        def record(kernel, x, y_norm, guess, **kwargs):
            solves.append((kernel, x.copy(), y_norm.copy(), guess, kwargs))
            return real(kernel, x, y_norm, guess, **kwargs)

        monkeypatch.setattr(fastfit, "_nonlinear_solve", record)
        with caches_enabled(False):
            EstimaPredictor(EstimaConfig(fit_strategy="vectorized")).extrapolate_categories(
                truth.restrict_to(12), target_cores=48
            )
        assert any(kwargs["underdetermined"] for *_, kwargs in solves), "no trf cells"
        assert any(not kwargs["underdetermined"] for *_, kwargs in solves), "no lm cells"

        mismatched, unstable = [], []
        for i, (kernel, x, y_norm, guess, kwargs) in enumerate(solves):
            with np.errstate(all="ignore"):
                lean = fastfit._lean_solve_start(kernel, x, y_norm, guess, **kwargs)
                ref = _solve_start(kernel, x, y_norm, guess, **kwargs)
                if _same(lean, ref):
                    continue
                runs = _repeated_runs(lambda: _solve_start(kernel, x, y_norm, guess, **kwargs))
            if any(_same(lean, run) for run in runs):
                continue  # the reference disagreed with itself and lean is one of its answers
            if any(not _same(ref, run) for run in runs):
                unstable.append(i)
                continue
            mismatched.append((i, kernel.name, x.size, guess))
        assert not mismatched, f"lean diverged from a self-consistent reference: {mismatched}"
        assert len(unstable) <= len(solves) // 20, f"reference unstable on {unstable}"


# --------------------------------------------------------------------------- #
# Stacked kernel evaluation
# --------------------------------------------------------------------------- #


def _closed_form(name, n, p):
    """Table 1 written out literally: the values the kernels must reproduce."""
    if name == "Rat22":
        return (p[0] + p[1] * n + p[2] * n**2) / (1.0 + p[3] * n + p[4] * n**2)
    if name == "Rat23":
        return (p[0] + p[1] * n + p[2] * n**2) / (1.0 + p[3] * n + p[4] * n**2 + p[5] * n**3)
    if name == "Rat33":
        return (p[0] + p[1] * n + p[2] * n**2 + p[3] * n**3) / (
            1.0 + p[4] * n + p[5] * n**2 + p[6] * n**3
        )
    if name == "ExpRat":
        den = p[2] + p[3] * n
        return np.exp(np.clip((p[0] + p[1] * n) / np.where(np.abs(den) < 1e-9, 1e-9, den), -60.0, 60.0))
    if name == "CubicLn":
        ln = np.log(np.maximum(n, 1e-9))
        return p[0] + p[1] * ln + p[2] * ln**2 + p[3] * ln**3
    return p[0] + p[1] * n + p[2] * n**2 + p[3] * n**2.5


def _param_rows(kernel, rng):
    """Ordinary, pole, overflow and zero-sign parameter rows for one kernel."""
    k = kernel.n_params
    rows = [rng.normal(0.0, 1.0, k) * 10.0 ** rng.uniform(-3, 3, k) for _ in range(6)]
    rows.append(np.full(k, 1e200))  # overflows to inf
    rows.append(np.full(k, -1e300))
    rows.append(np.zeros(k))
    rows.append(-np.zeros(k))
    if kernel.rational:
        pole = np.zeros(k)
        pole[0] = 1.0
        if kernel.name == "ExpRat":
            pole[2:] = (-2.0, 1.0)  # denominator -2 + n vanishes at n = 2
        else:
            b1 = {"Rat22": 3, "Rat23": 3, "Rat33": 4}[kernel.name]
            pole[b1] = -0.5  # denominator 1 - 0.5 n vanishes at n = 2
        rows.append(pole)
    return np.asarray(rows)


class TestStackedEvaluation:
    N = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 48.0])

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_func_is_the_closed_form_bit_for_bit(self, name):
        kernel = get_kernel(name)
        for row in _param_rows(kernel, np.random.default_rng(7)):
            with np.errstate(all="ignore"):
                assert kernel.func(self.N, *row).tobytes() == _closed_form(name, self.N, row).tobytes()

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_stacked_rows_equal_per_row_func(self, name):
        kernel = get_kernel(name)
        rows = _param_rows(kernel, np.random.default_rng(11))
        with np.errstate(all="ignore"):
            stacked = fastfit._eval_rows(kernel, self.N, rows)
            for row, values in zip(rows, stacked):
                assert values.tobytes() == kernel.func(self.N, *row).tobytes()
            if kernel.rational:
                cols = rows.T[:, :, None]
                dens = kernel.func.denominator(power_table(self.N), *cols)
                for row, den in zip(rows, dens):
                    single = kernel.func.denominator(power_table(self.N), *row)
                    assert den.tobytes() == single.tobytes()

    @pytest.mark.parametrize("name", NONLINEAR)
    def test_fused_point_matches_residual_and_column_loop_jacobian(self, name):
        """The fused evaluator against the wrapper's per-column 2-point loop."""
        kernel = get_kernel(name)
        x = self.N[:6]
        y_norm = np.linspace(0.5, 1.5, x.size)
        point = fastfit._point_evaluator(kernel, x, y_norm)
        lm_fun, lm_jac = fastfit._lm_callbacks(kernel, x, y_norm)
        resid = _residuals(kernel, x, y_norm)
        eps = np.finfo(np.float64).eps
        for p in _param_rows(kernel, np.random.default_rng(3)):
            with np.errstate(all="ignore"):
                f, jac = point(p)
                assert lm_fun(p).tobytes() == f.tobytes()
                assert np.ascontiguousarray(lm_jac(p)).tobytes() == np.ascontiguousarray(jac).tobytes()
                f0 = resid(p)
                sign = (p >= 0).astype(float) * 2 - 1
                h = eps**0.5 * sign * np.maximum(1.0, np.abs(p))
                columns = []
                for i in range(p.size):
                    x1 = np.copy(p)
                    x1[i] = p[i] + h[i]
                    columns.append((resid(x1) - f0) / ((p[i] + h[i]) - p[i]))
            assert f.tobytes() == f0.tobytes()
            assert jac.tobytes() == np.asarray(columns).T.tobytes()


# --------------------------------------------------------------------------- #
# Self-check and fallback of the lean driver
# --------------------------------------------------------------------------- #


def _raising_lmder(*args):
    raise TypeError("_lmder() takes 11 positional arguments but 12 were given")


def _drifting_lmder(*args):
    solved, info, status = _REAL_LMDER(*args)
    return solved * (1.0 + 1e-12), info, status


_REAL_LMDER = fastfit._lmder


class TestLeanSelfCheck:
    def test_self_check_passes_here(self):
        assert fastfit._self_check_failure() is None

    @pytest.mark.parametrize("broken", [_raising_lmder, _drifting_lmder, None])
    def test_broken_lmder_falls_back_to_reference_with_one_warning(self, monkeypatch, broken):
        monkeypatch.setattr(fastfit, "_lmder", broken)
        monkeypatch.setattr(fastfit, "LEAN_CHECK", fastfit._LeanCheck())
        x = np.arange(1.0, 9.0)
        y = x / (1.0 + 0.06 * x) + 0.03 * np.cos(x)
        kernels = [get_kernel(name) for name in NONLINEAR]
        with pytest.warns(RuntimeWarning, match="self-check failed") as record:
            with np.errstate(all="ignore"), caches_enabled(False):
                grid = fit_grid(kernels, x, y, [3, 5, 8])
                again = fit_grid(kernels, x, y, [3, 5, 8])
        assert len([w for w in record if "self-check" in str(w.message)]) == 1
        assert not fastfit.LEAN_CHECK.passed()
        expected = []
        with np.errstate(all="ignore"), caches_enabled(False):
            for p in (3, 5, 8):
                expected += [fit_kernel(kernel, x[:p], y[:p]) for kernel in kernels]
        assert grid == expected
        assert again == expected

    def test_self_check_adds_no_profiled_solves(self, monkeypatch):
        monkeypatch.setattr(fastfit, "LEAN_CHECK", fastfit._LeanCheck())
        before = PROFILER.snapshot()
        assert fastfit.LEAN_CHECK.passed()
        assert "nonlinear_solve" not in profile_delta(before, PROFILER.snapshot())

    @pytest.mark.parametrize("strategy", FIT_STRATEGIES)
    def test_cold_extrapolation_solves_each_start_once(self, monkeypatch, strategy):
        # A fresh gate, so the first solve (and the self-check) falls inside
        # the measured window.
        monkeypatch.setattr(fastfit, "LEAN_CHECK", fastfit._LeanCheck())
        x = np.arange(1.0, 11.0)
        y = x / (1.0 + 0.07 * x) + 0.05 * np.sin(x)
        config = EstimaConfig(fit_strategy=strategy)
        prefixes = _prepare_sweep(x, y, config, 32).prefixes
        starts = sum(
            len(kernel.initial_guesses)
            for kernel in config.kernels
            if _linear_design(kernel.name, x) is None
        )
        before = PROFILER.snapshot()
        with caches_enabled(False):
            extrapolate_series(x, y, config, target_cores=32)
        delta = profile_delta(before, PROFILER.snapshot())
        assert delta["nonlinear_solve"]["calls"] == len(prefixes) * starts


# --------------------------------------------------------------------------- #
# Grid + extrapolation identity (the fuzz contract)
# --------------------------------------------------------------------------- #


def _result_signature(result):
    return (
        result.kernel_name,
        result.chosen.prefix_length,
        tuple(result.chosen.fitted.params),
        result.predict(np.arange(1.0, 33.0)).tobytes(),
        len(result.candidates),
    )


def _extrapolate(x, y, strategy):
    try:
        result = extrapolate_series(
            x, y, EstimaConfig(fit_strategy=strategy), target_cores=32
        )
    except RuntimeError as exc:  # no realistic fit — must agree across strategies
        return ("unfittable", str(exc))
    return _result_signature(result)


class TestSerialVectorizedFuzz:
    def test_three_point_underdetermined_series(self):
        x = np.array([1.0, 2.0, 4.0])
        y = np.array([1.0, 1.9, 3.4])
        assert _extrapolate(x, y, "serial") == _extrapolate(x, y, "vectorized")

    def test_seeded_fuzz_corpus_matches_serial(self):
        rng = np.random.default_rng(20260808)
        series = []
        for _ in range(180):
            n = int(rng.integers(4, 8))
            x = np.sort(rng.uniform(1.0, 32.0, n)) if rng.integers(2) else np.arange(1.0, n + 1)
            scale = 10.0 ** float(rng.uniform(-9.0, 12.0))
            y = (np.abs(rng.normal(1.0, 1.0, n)) + 0.1) * scale
            series.append((x, y))
        for n in (4, 5, 6, 7):
            x = np.arange(1.0, n + 1)
            series.append((x, 1.0 + 0.5 * x + 0.01 * x * x))
            series.append((x, x / (1.0 + 0.05 * x)))
            series.append((x, 3.0 * np.log(x + 1.0) + 1.0))
            series.append((x, 10.0 / (1.0 + np.exp(-0.5 * (x - n / 2.0)))))
        for n in (5, 6, 7):
            x = np.arange(1.0, n + 1)
            series.append((x, 100.0 / x**1.5))  # steeply decreasing: negative fallback
        for n in (5, 7):
            series.append((np.arange(1.0, n + 1), np.full(n, 3.25)))  # flat

        assert len(series) >= 200
        mismatched, unstable = [], []
        for i, (x, y) in enumerate(series):
            vec = _extrapolate(x, y, "vectorized")
            ser = _extrapolate(x, y, "serial")
            if vec == ser:
                continue
            # Only hold the mismatch against the engine when the reference
            # agrees with itself (see the module docstring).
            if _extrapolate(x, y, "serial") != ser:
                unstable.append(i)
                continue
            mismatched.append(i)
        assert not mismatched, f"vectorized diverged from stable serial on {mismatched}"
        # The reference path is expected to be stable on virtually every
        # series; tolerate only isolated perfect-fit flips.
        assert len(unstable) <= 2, f"serial reference unstable on {unstable}"


# --------------------------------------------------------------------------- #
# Cache interoperability
# --------------------------------------------------------------------------- #


class TestCacheInterop:
    def _run(self, strategy):
        x = np.arange(1.0, 9.0)
        y = x / (1.0 + 0.08 * x)
        return _extrapolate(x, y, strategy)

    def test_vectorized_hits_entries_warmed_by_serial(self):
        with caches_enabled(True):
            FIT_CACHE.clear()
            EXTRAPOLATION_CACHE.clear()
            first = self._run("serial")
            # Clear the outer extrapolation memo so the second strategy
            # reaches the fit grid instead of short-circuiting above it.
            EXTRAPOLATION_CACHE.clear()
            before = FIT_CACHE.stats.hits
            second = self._run("vectorized")
            assert second == first
            assert FIT_CACHE.stats.hits > before

    def test_serial_hits_entries_warmed_by_vectorized(self):
        with caches_enabled(True):
            FIT_CACHE.clear()
            EXTRAPOLATION_CACHE.clear()
            first = self._run("vectorized")
            EXTRAPOLATION_CACHE.clear()
            before = FIT_CACHE.stats.hits
            second = self._run("serial")
            assert second == first
            assert FIT_CACHE.stats.hits > before

    def test_fit_grid_fills_per_cell_keys(self):
        x = np.arange(1.0, 7.0)
        y = 1.0 + 0.3 * x
        kernels = [get_kernel(name) for name in ("CubicLn", "Rat22")]
        with caches_enabled(True):
            FIT_CACHE.clear()
            fit_grid(kernels, x, y, [3, 4], max_nfev=600)
            validated = _validate_series(x, y)
            assert validated is not None
            vx, vy = validated
            for p in (3, 4):
                for kernel in kernels:
                    hit, _ = FIT_CACHE.get(fit_key(kernel.name, vx[:p], vy[:p], 600))
                    assert hit, f"cell ({p}, {kernel.name}) not cached"


# --------------------------------------------------------------------------- #
# Profiling stages
# --------------------------------------------------------------------------- #


class TestGridProfiling:
    @pytest.mark.parametrize("strategy", FIT_STRATEGIES)
    def test_stages_recorded(self, strategy):
        x = np.arange(1.0, 9.0)
        y = 2.0 + 0.4 * x
        before = PROFILER.snapshot()
        extrapolate_series(x, y, EstimaConfig(fit_strategy=strategy), target_cores=16)
        delta = profile_delta(before, PROFILER.snapshot())
        for stage in ("design_solve", "nonlinear_solve", "realism_screen", "checkpoint_score"):
            assert delta.get(stage, {}).get("calls", 0) > 0, f"{strategy}: {stage} missing"
