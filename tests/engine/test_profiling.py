"""Unit tests for the engine profiler (:mod:`repro.engine.profiling`)."""

from __future__ import annotations

import threading

from repro.engine.gateway import flatten_stats
from repro.engine.profiling import Profiler, profile_delta


class TestProfiler:
    def test_stage_accumulates_calls_and_time(self):
        profiler = Profiler()
        for _ in range(3):
            with profiler.stage("solve"):
                sum(range(1000))
        snap = profiler.snapshot()
        assert snap["solve"]["calls"] == 3
        assert snap["solve"]["wall_s"] >= 0.0
        assert snap["solve"]["cpu_s"] >= 0.0

    def test_stage_records_even_when_body_raises(self):
        profiler = Profiler()
        try:
            with profiler.stage("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert profiler.snapshot()["boom"]["calls"] == 1

    def test_snapshot_is_a_copy_and_sorted(self):
        profiler = Profiler()
        for name in ("b", "a"):
            with profiler.stage(name):
                pass
        snap = profiler.snapshot()
        assert list(snap) == ["a", "b"]
        snap["a"]["calls"] = 99
        assert profiler.snapshot()["a"]["calls"] == 1

    def test_reset_zeroes_everything(self):
        profiler = Profiler()
        with profiler.stage("x"):
            pass
        profiler.reset()
        assert profiler.snapshot() == {}

    def test_thread_safety_totals(self):
        profiler = Profiler()

        def work():
            for _ in range(200):
                with profiler.stage("events"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert profiler.snapshot()["events"]["calls"] == 800

    def test_snapshot_flattens_to_metrics_gauges(self):
        profiler = Profiler()
        with profiler.stage("nonlinear_solve"):
            pass
        gauges = flatten_stats({"profile": profiler.snapshot()})
        assert gauges["estima_profile_nonlinear_solve_calls"] == 1.0
        assert "estima_profile_nonlinear_solve_wall_s" in gauges


class TestProfileDelta:
    def test_subtracts_and_drops_untouched_stages(self):
        profiler = Profiler()
        with profiler.stage("warm"):
            pass
        before = profiler.snapshot()
        with profiler.stage("hot"):
            pass
        delta = profile_delta(before, profiler.snapshot())
        assert "warm" not in delta  # no new calls since the snapshot
        assert delta["hot"]["calls"] == 1

    def test_new_stage_appears_in_full(self):
        delta = profile_delta({}, {"s": {"calls": 2, "wall_s": 1.5, "cpu_s": 1.0}})
        assert delta == {"s": {"calls": 2, "wall_s": 1.5, "cpu_s": 1.0}}

    def test_empty_delta_for_identical_snapshots(self):
        snap = {"s": {"calls": 2, "wall_s": 1.5, "cpu_s": 1.0}}
        assert profile_delta(snap, snap) == {}
