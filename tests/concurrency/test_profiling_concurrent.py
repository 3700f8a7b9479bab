"""Snapshot-delta arithmetic of the profiler under concurrent stage writers.

Two threads hammer the *same* stage of one :class:`Profiler` while
genuinely overlapping (proved via :func:`assert_parallel_execution` and a
named barrier, not hoped-for timing).  The accumulator's contract is that
the totals are exact under contention: ``calls`` is an integer equal to
the sum of both writers' iterations, counters add up to the precise event
total, and ``profile_delta`` over a bracketing snapshot pair reports
exactly the work done inside the bracket — no lost updates, no
double-counts, no bleed-through from untouched stages.
"""

from __future__ import annotations

import threading

from repro.engine.profiling import Profiler, profile_delta
from repro.testing import assert_parallel_execution, get_barrier

ITERATIONS = 200


class TestConcurrentStageWriters:
    def test_same_stage_totals_add_up_exactly(self):
        profiler = Profiler()
        before = profiler.snapshot()
        started = get_barrier("profiling.writers.start", 2)

        def writer():
            # Both writers inside their first stage() at the same time:
            # the barrier trips only when both threads have entered.
            with profiler.stage("nonlinear_solve"):
                started.wait(timeout=5)
                profiler.count("solver_events", 3)
            for _ in range(ITERATIONS - 1):
                with profiler.stage("nonlinear_solve"):
                    profiler.count("solver_events", 3)

        assert_parallel_execution(
            [writer, writer],
            timeout=30,
            message="profiler stage writers never overlapped",
        )

        delta = profile_delta(before, profiler.snapshot())
        stage = delta["nonlinear_solve"]
        assert stage["calls"] == 2 * ITERATIONS
        assert isinstance(stage["calls"], int)
        assert stage["wall_s"] >= 0.0
        assert stage["cpu_s"] >= 0.0
        counter = delta["solver_events"]
        assert counter["calls"] == 2 * ITERATIONS * 3
        assert counter["wall_s"] == 0.0 and counter["cpu_s"] == 0.0

    def test_delta_brackets_only_the_enclosed_work(self):
        profiler = Profiler()
        with profiler.stage("design_solve"):
            pass
        profiler.count("warmup_events", 7)

        before = profiler.snapshot()
        done = threading.Barrier(3)

        def writer(stage_name):
            def run():
                for _ in range(ITERATIONS):
                    with profiler.stage(stage_name):
                        profiler.count(f"{stage_name}_events")
                done.wait(timeout=5)
            return run

        threads = [threading.Thread(target=writer("design_solve")),
                   threading.Thread(target=writer("design_solve"))]
        for thread in threads:
            thread.start()
        done.wait(timeout=5)
        for thread in threads:
            thread.join(timeout=5)
        delta = profile_delta(before, profiler.snapshot())

        # Exactly the bracketed work — pre-existing totals subtract away...
        assert delta["design_solve"]["calls"] == 2 * ITERATIONS
        assert delta["design_solve_events"]["calls"] == 2 * ITERATIONS
        # ...and stages untouched inside the bracket are dropped entirely.
        assert "warmup_events" not in delta
        assert set(delta) == {"design_solve", "design_solve_events"}
