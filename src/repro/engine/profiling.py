"""Named wall/CPU stage timers for the fit engine's hot path.

ROADMAP item 3 ("vectorize the fit grid itself") follows the paper's
measure-first discipline: before restructuring the prefix-sweep hot path we
need to know where fit time actually goes, and after restructuring we need
the claim recorded rather than asserted.  This module is that instrument — a
tiny, dependency-free profiler the numerical layers wrap around their stages:

* ``design_solve`` — direct least-squares solves of the linear-in-parameters
  kernels (``CubicLn``/``Poly25``);
* ``nonlinear_solve`` — iterative LM/TRF solves of the rational/exponential
  kernels, one call per (prefix, kernel, start) (the dominant cost of a cold
  campaign);
* ``realism_screen`` / ``checkpoint_score`` — the Section-3.1.2 candidate
  screening and checkpoint-RMSE scoring.

The global :data:`PROFILER` accumulates monotonically for the process, like
the cache counters in :mod:`repro.engine.cache`.  Snapshots are plain nested
dicts of numbers, so they flatten into ``/metrics`` gauges through
:func:`repro.engine.gateway.flatten_stats` unchanged; per-command deltas
(``estima --stats``, ``estima profile``) are taken with
:func:`profile_delta` around the work.

This module deliberately imports nothing from the rest of :mod:`repro`, so
the core layer can depend on it without cycles (same posture as
:mod:`repro.engine.cache`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Mapping

__all__ = ["Profiler", "PROFILER", "profile_delta"]


class Profiler:
    """Thread-safe accumulator of named stage timings.

    Each stage accumulates three monotone totals: ``calls`` (times entered),
    ``wall_s`` (elapsed wall-clock seconds, :func:`time.perf_counter`) and
    ``cpu_s`` (CPU seconds of the calling thread, :func:`time.thread_time`,
    so time spent blocked — e.g. waiting on the LM lock — shows up as the
    gap between the two).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, list[float]] = {}  # name -> [calls, wall_s, cpu_s]

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name`` (reentrant, thread-safe)."""
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        try:
            yield
        finally:
            wall_s = time.perf_counter() - wall0
            cpu_s = time.thread_time() - cpu0
            with self._lock:
                entry = self._stages.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += wall_s
                entry[2] += cpu_s

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Numeric-only copy of every stage: ``{name: {calls, wall_s, cpu_s}}``.

        Every leaf is a number, so the snapshot drops straight into
        ``/metrics`` via ``flatten_stats`` without a rendering shim.
        """
        with self._lock:
            return {
                name: {"calls": entry[0], "wall_s": entry[1], "cpu_s": entry[2]}
                for name, entry in sorted(self._stages.items())
            }

    def reset(self) -> None:
        """Zero all stages (used by tests and ``estima profile`` runs)."""
        with self._lock:
            self._stages.clear()


#: Process-global profiler consulted by the core fitting/regression layers.
PROFILER = Profiler()


def profile_delta(
    before: Mapping[str, Mapping[str, float]],
    after: Mapping[str, Mapping[str, float]],
) -> dict[str, dict[str, float]]:
    """Per-stage ``after - before`` of two snapshots, dropping untouched stages.

    The global profiler accumulates for the process lifetime; a CLI command
    reporting "what did *this* run cost" brackets the work with two
    snapshots and publishes the difference.
    """
    delta: dict[str, dict[str, float]] = {}
    for name, stats in after.items():
        base = before.get(name, {})
        entry = {key: value - base.get(key, 0) for key, value in stats.items()}
        if entry.get("calls"):
            delta[name] = entry
    return delta
