"""Tests for error and correlation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    error_table_row,
    max_relative_error,
    mean_relative_error,
    pearson_correlation,
    relative_errors,
    rmse,
)


class TestRmse:
    def test_zero_for_identical_series(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_known_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            rmse([], [])


class TestRelativeErrors:
    def test_percent_conversion(self):
        assert max_relative_error([110.0], [100.0]) == pytest.approx(10.0)
        assert mean_relative_error([110.0, 100.0], [100.0, 100.0]) == pytest.approx(5.0)

    def test_symmetric_in_direction(self):
        # Under- and over-prediction of the same magnitude give the same error.
        assert max_relative_error([90.0], [100.0]) == pytest.approx(10.0)

    def test_zero_actual_raises(self):
        with pytest.raises(ValueError):
            relative_errors([1.0], [0.0])

    def test_elementwise_values(self):
        errors = relative_errors([1.0, 3.0], [2.0, 2.0])
        np.testing.assert_allclose(errors, [0.5, 0.5])


class TestPearsonCorrelation:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 3.0 * x + 1.0) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_series_defined_as_zero(self):
        assert pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_series_with_inexact_mean_is_zero(self):
        # The float mean of these equal values differs from them, so np.std
        # of the series is a tiny nonzero number.
        x = np.full(3, 699051.1812673935)
        assert pearson_correlation(x, x * 2.0 + 5.0) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0], [1.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


class TestMetricProperties:
    @given(
        values=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=20),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_correlation_invariant_under_positive_scaling(self, values, scale):
        x = np.asarray(values)
        y = x * 2.0 + 5.0
        assert pearson_correlation(x, y) == pytest.approx(
            pearson_correlation(x * scale, y), abs=1e-9
        )

    @given(
        predicted=st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1, max_size=20),
        actual=st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_max_error_bounds_mean_error(self, predicted, actual):
        size = min(len(predicted), len(actual))
        p, a = predicted[:size], actual[:size]
        assert max_relative_error(p, a) >= mean_relative_error(p, a) - 1e-9

    @given(data=st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_rmse_zero_iff_equal(self, data):
        assert rmse(data, data) == pytest.approx(0.0)


class TestFormatting:
    def test_error_table_row_contains_all_cells(self):
        row = error_table_row("intruder", {"2 CPUs": 9.2, "4 CPUs": 31.9})
        assert "intruder" in row
        assert "9.2" in row and "31.9" in row
