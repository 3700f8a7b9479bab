"""Engine integration tests: batched prediction service and campaign paths.

The central safety net of the engine refactor lives here: an
:class:`~repro.runner.ErrorCampaign` run serially, in parallel worker
processes, and with the fit cache enabled must produce *identical* rows, and
those rows must match a hand-rolled replica of the original (pre-engine)
serial loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EstimaConfig, EstimaPredictor
from repro.engine import SerialExecutor
from repro.engine.service import PredictionRequest, PredictionService
from repro.machine import get_machine
from repro.runner import ErrorCampaign, Experiment
from repro.workloads import get_workload

CAMPAIGN_COUNTS = [1, 2, 3, 4, 6, 8, 10, 12, 16, 24, 36, 48]
CAMPAIGN_WORKLOADS = ["genome", "blackscholes"]
CAMPAIGN_TARGETS = {"2 CPUs": 24, "4 CPUs": 48}


def _campaign(config: EstimaConfig | None = None, executor=None) -> ErrorCampaign:
    return ErrorCampaign(
        machine=get_machine("opteron48"),
        measurement_cores=12,
        targets=CAMPAIGN_TARGETS,
        config=config or EstimaConfig(),
        core_counts=CAMPAIGN_COUNTS,
        executor=executor,
    )


@pytest.fixture(scope="module")
def serial_campaign():
    return _campaign().run(CAMPAIGN_WORKLOADS)


class TestPredictionService:
    @pytest.fixture(scope="class")
    def measured(self, intruder_opteron_sweep):
        return intruder_opteron_sweep.restrict_to(12)

    def test_single_request_matches_direct_predictor(self, measured):
        service = PredictionService()
        prediction = service.predict(measured, 48)
        direct = EstimaPredictor().predict(measured, target_cores=48)
        np.testing.assert_array_equal(prediction.predicted_times, direct.predicted_times)
        assert prediction.scaling_factor.kernel_name == direct.scaling_factor.kernel_name

    def test_multi_target_batch_slices_the_max_target_curve(self, measured):
        service = PredictionService()
        low, high = service.predict_batch(
            [PredictionRequest(measured, 24), PredictionRequest(measured, 48)]
        )
        assert high.target_cores == 48
        assert low.target_cores == 24
        np.testing.assert_array_equal(low.predicted_times, high.predicted_times[:24])
        np.testing.assert_array_equal(low.stalls_per_core, high.stalls_per_core[:24])
        assert list(low.prediction_cores) == list(range(1, 25))

    def test_multi_target_batch_records_dedup_hits(self, measured):
        service = PredictionService()
        service.predict_batch(
            [PredictionRequest(measured, t) for t in (24, 36, 48)]
        )
        stats = service.cache_stats()["prediction"]
        assert stats["hits"] == 2
        assert stats["misses"] == 1

    def test_duplicate_requests_across_batches_hit(self, measured):
        service = PredictionService()
        first = service.predict(measured, 48)
        second = service.predict(measured, 48)
        assert first is second
        assert service.cache_stats()["prediction"]["hits"] == 1

    def test_results_in_request_order(self, measured):
        service = PredictionService()
        predictions = service.predict_batch(
            [
                PredictionRequest(measured, 48),
                PredictionRequest(measured, 16),
                PredictionRequest(measured, 32),
            ]
        )
        assert [p.target_cores for p in predictions] == [48, 16, 32]

    def test_baseline_requests_are_separate(self, measured):
        service = PredictionService()
        estima = service.predict(measured, 48)
        baseline = service.predict(measured, 48, baseline=True)
        assert estima.target_cores == baseline.target_cores == 48
        assert not np.array_equal(estima.predicted_times, baseline.predicted_times)

    def test_share_max_target_off_computes_each_target(self, measured):
        service = PredictionService(share_max_target=False)
        low, high = service.predict_batch(
            [PredictionRequest(measured, 24), PredictionRequest(measured, 48)]
        )
        assert service.cache_stats()["prediction"]["misses"] == 2
        direct_low = EstimaPredictor().predict(measured, target_cores=24)
        np.testing.assert_array_equal(low.predicted_times, direct_low.predicted_times)
        assert high.target_cores == 48

    def test_predictor_predict_batch_routes_through_service(self, measured):
        predictions = EstimaPredictor().predict_batch([(measured, 24), (measured, 48)])
        direct = EstimaPredictor().predict(measured, target_cores=24)
        np.testing.assert_array_equal(predictions[0].predicted_times, direct.predicted_times)
        assert predictions[1].target_cores == 48


class TestCampaignEquivalence:
    """Serial, parallel and cached campaigns must agree bit for bit."""

    def test_matches_pre_engine_serial_loop(self, serial_campaign):
        """Replica of the seed implementation: one experiment per workload at
        the largest target, every target label scored on that prediction."""
        experiment = Experiment(machine=get_machine("opteron48"))
        max_target = max(CAMPAIGN_TARGETS.values())
        for row in serial_campaign.rows:
            result = experiment.run(
                get_workload(row.workload),
                measurement_cores=12,
                target_cores=max_target,
                core_counts=CAMPAIGN_COUNTS,
            )
            for label, target in CAMPAIGN_TARGETS.items():
                eval_cores = [
                    int(c) for c in result.ground_truth.cores if 12 < c <= target
                ]
                estima = result.estima.evaluate(
                    result.ground_truth, core_counts=eval_cores
                ).max_error_pct
                baseline = result.baseline.evaluate(
                    result.ground_truth, core_counts=eval_cores
                ).max_error_pct
                assert row.max_errors_pct[label] == estima
                assert row.baseline_errors_pct[label] == baseline
            assert row.behaviour_correct == result.scaling_behaviour_correct()

    def test_parallel_rows_identical(self, serial_campaign):
        parallel = _campaign(executor="parallel:2").run(CAMPAIGN_WORKLOADS)
        assert parallel.rows == serial_campaign.rows
        assert parallel.engine_stats["executor"] == "parallel"

    def test_fit_cached_rows_identical_and_cache_hits(self, serial_campaign):
        cached = _campaign(config=EstimaConfig(use_fit_cache=True)).run(
            CAMPAIGN_WORKLOADS
        )
        assert cached.rows == serial_campaign.rows
        caches = cached.engine_stats["caches"]
        # The acceptance criterion: a multi-target campaign reports cache hits.
        total_hits = sum(counts.get("hits", 0) for counts in caches.values())
        assert total_hits > 0
        assert caches["prediction"]["hits"] > 0
        assert caches["fit"]["misses"] > 0  # the fit cache was actually consulted

    def test_explicit_executor_instance(self, serial_campaign):
        explicit = _campaign(executor=SerialExecutor()).run(CAMPAIGN_WORKLOADS)
        assert explicit.rows == serial_campaign.rows
        # engine_stats is diagnostic only and excluded from result equality.
        assert explicit == serial_campaign

    def test_rows_in_input_order(self, serial_campaign):
        assert [row.workload for row in serial_campaign.rows] == CAMPAIGN_WORKLOADS

    def test_engine_stats_attached(self, serial_campaign):
        stats = serial_campaign.engine_stats
        assert stats["executor"] == "serial"
        assert stats["workloads"] == len(CAMPAIGN_WORKLOADS)
        # Serial campaigns share one service: 2 kinds x 2 targets x 2 workloads
        # = 8 requests, half of which are dedup hits.
        assert stats["caches"]["prediction"]["hits"] == 4


class TestExperimentRunMany:
    def test_run_many_matches_run(self):
        experiment = Experiment(machine=get_machine("xeon20"))
        single = experiment.run(
            get_workload("genome"), measurement_cores=10, target_cores=20
        )
        [many] = experiment.run_many(
            ["genome"], measurement_cores=10, target_cores=20
        )
        np.testing.assert_array_equal(
            many.estima.predicted_times, single.estima.predicted_times
        )
        assert many.workload == "genome"

    def test_run_many_accepts_workload_objects_and_orders_results(self):
        experiment = Experiment(machine=get_machine("xeon20"))
        results = experiment.run_many(
            [get_workload("blackscholes"), "genome"],
            measurement_cores=10,
            target_cores=20,
        )
        assert [r.workload for r in results] == ["blackscholes", "genome"]
