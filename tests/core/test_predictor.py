"""Integration tests for the end-to-end ESTIMA pipeline and its baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EstimaConfig,
    EstimaPredictor,
    MeasurementSet,
    ScalabilityPrediction,
    TimeExtrapolation,
)


class TestPredictionObject:
    def test_prediction_covers_every_core_count(self, intruder_prediction):
        assert list(intruder_prediction.prediction_cores) == list(range(1, 49))
        assert intruder_prediction.predicted_times.shape == (48,)
        assert np.all(intruder_prediction.predicted_times > 0.0)

    def test_category_extrapolations_cover_measured_categories(
        self, intruder_prediction, intruder_opteron_sweep
    ):
        measured_names = set(intruder_opteron_sweep.restrict_to(12).category_names())
        assert set(intruder_prediction.category_extrapolations) <= measured_names
        assert "stm_aborted_tx_cycles" in intruder_prediction.category_extrapolations

    def test_predicted_time_at_matches_array(self, intruder_prediction):
        assert intruder_prediction.predicted_time_at(24) == pytest.approx(
            float(intruder_prediction.predicted_times[23])
        )
        with pytest.raises(KeyError):
            intruder_prediction.predicted_time_at(100)

    def test_speedup_normalised_to_single_core(self, blackscholes_prediction):
        speedup = blackscholes_prediction.predicted_speedup()
        assert speedup[0] == pytest.approx(1.0)
        assert speedup[-1] > 20.0  # blackscholes keeps scaling

    def test_peak_cores_for_scalable_workload_is_near_full_machine(self, blackscholes_prediction):
        assert blackscholes_prediction.predicted_peak_cores() >= 40

    def test_peak_cores_for_contended_workload_is_mid_machine(self, intruder_prediction):
        assert 12 < intruder_prediction.predicted_peak_cores() < 40

    def test_predicts_scaling_beyond_helper(self, blackscholes_prediction, intruder_prediction):
        assert blackscholes_prediction.predicts_scaling_beyond(12)
        assert not intruder_prediction.predicts_scaling_beyond(36)

    def test_dominant_categories_sum_to_at_most_one(self, intruder_prediction):
        shares = intruder_prediction.dominant_categories(48, top=10)
        assert shares
        assert sum(fraction for _, fraction in shares) == pytest.approx(1.0, abs=1e-6)
        assert all(0.0 <= fraction <= 1.0 for _, fraction in shares)

    def test_evaluate_scores_only_extrapolated_core_counts(
        self, intruder_prediction, intruder_opteron_sweep
    ):
        error = intruder_prediction.evaluate(intruder_opteron_sweep)
        assert np.all(error.cores > 12)
        assert error.max_error_pct >= error.mean_error_pct

    def test_error_at_specific_core_count(self, intruder_prediction, intruder_opteron_sweep):
        error = intruder_prediction.evaluate(intruder_opteron_sweep)
        cores = int(error.cores[0])
        assert error.error_at(cores) >= 0.0
        with pytest.raises(KeyError):
            error.error_at(7)

    def test_summary_mentions_workload_and_kernels(self, intruder_prediction):
        text = intruder_prediction.summary()
        assert "intruder" in text
        assert "scaling-factor kernel" in text


class TestColdPredictIsWarningFree:
    def test_no_runtime_warning_under_error_filter(self, intruder_opteron_sweep):
        """Diverging solver starts are expected; they must not warn."""
        import warnings

        from repro.engine.cache import caches_enabled

        with caches_enabled(False), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            prediction = EstimaPredictor().predict(
                intruder_opteron_sweep.restrict_to(12), target_cores=48
            )
        assert np.all(np.isfinite(prediction.predicted_times))


class TestPredictorValidation:
    def test_requires_enough_measurements(self, intruder_opteron_sweep):
        tiny = intruder_opteron_sweep.restrict_to(2)
        with pytest.raises(ValueError):
            EstimaPredictor().predict(tiny, target_cores=48)

    def test_target_below_measured_rejected(self, intruder_opteron_sweep):
        with pytest.raises(ValueError):
            EstimaPredictor().predict(intruder_opteron_sweep.restrict_to(12), target_cores=8)

    def test_measurement_cores_argument_restricts(self, intruder_opteron_sweep):
        prediction = EstimaPredictor().predict(
            intruder_opteron_sweep, target_cores=48, measurement_cores=12
        )
        assert prediction.measured.max_cores == 12

    def test_measurements_without_stalls_rejected(self):
        measurements = MeasurementSet.from_arrays(
            cores=[1, 2, 4, 6, 8], times=[8.0, 4.0, 2.0, 1.4, 1.1]
        )
        with pytest.raises(ValueError, match="no non-zero stall categories"):
            EstimaPredictor().predict(measurements, target_cores=16)

    def test_hardware_only_mode(self, intruder_opteron_sweep):
        config = EstimaConfig(use_software_stalls=False)
        prediction = EstimaPredictor(config).predict(
            intruder_opteron_sweep.restrict_to(12), target_cores=48
        )
        assert "stm_aborted_tx_cycles" not in prediction.category_extrapolations

    def test_frequency_ratio_rescales_times(self, blackscholes_opteron_sweep):
        measured = blackscholes_opteron_sweep.restrict_to(12)
        base = EstimaPredictor(EstimaConfig()).predict(measured, target_cores=24)
        scaled = EstimaPredictor(EstimaConfig(frequency_ratio=0.5)).predict(
            measured, target_cores=24
        )
        assert scaled.predicted_time_at(24) == pytest.approx(
            0.5 * base.predicted_time_at(24), rel=0.05
        )

    def test_weak_scaling_ratio_increases_predicted_times(self, blackscholes_opteron_sweep):
        measured = blackscholes_opteron_sweep.restrict_to(12)
        strong = EstimaPredictor(EstimaConfig()).predict(measured, target_cores=24)
        weak = EstimaPredictor(EstimaConfig(dataset_ratio=2.0)).predict(measured, target_cores=24)
        assert weak.predicted_time_at(24) > strong.predicted_time_at(24)

    def test_result_is_scalability_prediction(self, intruder_prediction):
        assert isinstance(intruder_prediction, ScalabilityPrediction)


class TestTimeExtrapolationBaseline:
    def test_baseline_runs_and_covers_range(self, intruder_opteron_sweep):
        baseline = TimeExtrapolation().predict(
            intruder_opteron_sweep.restrict_to(12), target_cores=48
        )
        assert baseline.prediction_cores.shape == (48,)
        assert np.all(baseline.predicted_times > 0.0)

    def test_baseline_misses_intruder_collapse(self, intruder_opteron_sweep):
        """The Figure-1/Section-2.4 failure mode: no trend in time, no warning."""
        baseline = TimeExtrapolation().predict(
            intruder_opteron_sweep.restrict_to(12), target_cores=48
        )
        assert baseline.predicted_peak_cores() >= 40

    def test_baseline_evaluation_contract_matches_estima(self, intruder_opteron_sweep):
        baseline = TimeExtrapolation().predict(
            intruder_opteron_sweep.restrict_to(12), target_cores=48
        )
        error = baseline.evaluate(intruder_opteron_sweep)
        assert np.all(error.cores > 12)
        assert error.max_error_pct > 0.0

    def test_baseline_respects_measurement_cores(self, intruder_opteron_sweep):
        baseline = TimeExtrapolation().predict(
            intruder_opteron_sweep, target_cores=48, measurement_cores=12
        )
        assert baseline.measured.max_cores == 12

    def test_baseline_target_below_measured_rejected(self, intruder_opteron_sweep):
        with pytest.raises(ValueError):
            TimeExtrapolation().predict(intruder_opteron_sweep.restrict_to(12), target_cores=4)
