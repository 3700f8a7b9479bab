"""Tests for the content-addressed memoization layer and its core wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EstimaConfig
from repro.core.fitting import fit_kernel
from repro.core.kernels import get_kernel
from repro.core.regression import extrapolate_series
from repro.engine.cache import (
    EXTRAPOLATION_CACHE,
    FIT_CACHE,
    ContentCache,
    caches_enabled,
    digest,
    extrapolation_key,
    fit_key,
)


@pytest.fixture(autouse=True)
def _clean_global_caches():
    """Keep the process-global regions isolated between tests."""
    for cache in (FIT_CACHE, EXTRAPOLATION_CACHE):
        cache.clear()
        cache.stats.reset()
    yield
    for cache in (FIT_CACHE, EXTRAPOLATION_CACHE):
        cache.clear()
        cache.stats.reset()


class TestContentCache:
    def test_disabled_cache_is_transparent(self):
        cache = ContentCache("t", enabled=False)
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or "v") == "v"
        assert cache.get_or_compute("k", lambda: calls.append(1) or "v") == "v"
        assert len(calls) == 2
        assert cache.stats.lookups == 0

    def test_hit_and_miss_counting(self):
        cache = ContentCache("t", enabled=True)
        assert cache.get_or_compute("k", lambda: 41) == 41
        assert cache.get_or_compute("k", lambda: 42) == 41
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_none_is_a_cacheable_value(self):
        cache = ContentCache("t", enabled=True)
        assert cache.get_or_compute("k", lambda: None) is None
        assert cache.get_or_compute("k", lambda: "other") is None
        assert cache.stats.hits == 1

    def test_valid_predicate_forces_recompute(self):
        cache = ContentCache("t", enabled=True)
        cache.get_or_compute("k", lambda: 10)
        value = cache.get_or_compute("k", lambda: 20, valid=lambda v: v >= 15)
        assert value == 20
        # The fresh value replaced the rejected entry.
        assert cache.get_or_compute("k", lambda: 30, valid=lambda v: v >= 15) == 20

    def test_eviction_bounds_entries(self):
        cache = ContentCache("t", enabled=True, max_entries=3)
        for i in range(10):
            cache.get_or_compute(i, lambda i=i: i)
        assert len(cache) == 3

    def test_digest_distinguishes_array_content(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 4.0])
        assert digest(a) != digest(b)
        assert digest(a) == digest(np.array([1.0, 2.0, 3.0]))


class TestFitCacheWiring:
    CORES = np.arange(1, 13, dtype=float)
    VALUES = 1e9 * (1.0 + 0.3 * CORES + 0.02 * CORES**2)

    def test_cached_fit_is_identical_object(self):
        with caches_enabled(True):
            first = fit_kernel(get_kernel("Rat22"), self.CORES, self.VALUES)
            second = fit_kernel(get_kernel("Rat22"), self.CORES, self.VALUES)
        assert first is second
        assert FIT_CACHE.stats.hits == 1
        assert FIT_CACHE.stats.misses == 1

    def test_cached_fit_equals_uncached_fit(self):
        plain = fit_kernel(get_kernel("Rat22"), self.CORES, self.VALUES)
        with caches_enabled(True):
            cached = fit_kernel(get_kernel("Rat22"), self.CORES, self.VALUES)
        assert cached.params == plain.params
        assert cached.train_rmse == plain.train_rmse

    def test_key_depends_on_kernel_and_content(self):
        key = fit_key("Rat22", self.CORES, self.VALUES, 600)
        assert key != fit_key("Rat23", self.CORES, self.VALUES, 600)
        assert key != fit_key("Rat22", self.CORES, self.VALUES * 2, 600)
        assert key != fit_key("Rat22", self.CORES, self.VALUES, 700)
        assert key == fit_key("Rat22", self.CORES.copy(), self.VALUES.copy(), 600)

    def test_disabled_by_default(self):
        fit_kernel(get_kernel("Rat22"), self.CORES, self.VALUES)
        assert FIT_CACHE.stats.lookups == 0


class TestExtrapolationCacheWiring:
    CORES = np.arange(1, 13)
    VALUES = 1e9 * (2.0 + 0.5 * np.arange(1, 13, dtype=float))
    CONFIG = EstimaConfig(kernel_names=("CubicLn", "Poly25"))

    def test_cached_result_reused_for_identical_call(self):
        with caches_enabled(True):
            first = extrapolate_series(
                self.CORES, self.VALUES, self.CONFIG, target_cores=48, category="c"
            )
            second = extrapolate_series(
                self.CORES, self.VALUES, self.CONFIG, target_cores=48, category="c"
            )
        assert second is first
        assert EXTRAPOLATION_CACHE.stats.hits == 1

    def test_different_target_is_a_different_entry(self):
        # The realism screen widens with the target, so the chosen fit is
        # target-dependent: distinct targets must never share an entry
        # (cached results are always bit-identical to recomputed ones).
        with caches_enabled(True):
            extrapolate_series(
                self.CORES, self.VALUES, self.CONFIG, target_cores=24, category="c"
            )
            extrapolate_series(
                self.CORES, self.VALUES, self.CONFIG, target_cores=96, category="c"
            )
        assert EXTRAPOLATION_CACHE.stats.misses == 2
        assert EXTRAPOLATION_CACHE.stats.hits == 0

    def test_cached_equals_uncached(self):
        plain = extrapolate_series(
            self.CORES, self.VALUES, self.CONFIG, target_cores=48, category="c"
        )
        with caches_enabled(True):
            cached = extrapolate_series(
                self.CORES, self.VALUES, self.CONFIG, target_cores=48, category="c"
            )
        assert cached.kernel_name == plain.kernel_name
        np.testing.assert_array_equal(
            cached.predict(np.arange(1, 49)), plain.predict(np.arange(1, 49))
        )

    def test_key_includes_numeric_config_fields(self):
        base = extrapolation_key(
            self.CORES, self.VALUES, self.CONFIG,
            target_cores=48, category="c", allow_negative=False,
        )
        other = extrapolation_key(
            self.CORES,
            self.VALUES,
            self.CONFIG.with_(checkpoints=4),
            target_cores=48,
            category="c",
            allow_negative=False,
        )
        assert base != other
        assert base != extrapolation_key(
            self.CORES, self.VALUES, self.CONFIG,
            target_cores=24, category="c", allow_negative=False,
        )
        # Engine knobs must not change the key: serial/parallel/cached runs share entries.
        same = extrapolation_key(
            self.CORES,
            self.VALUES,
            self.CONFIG.with_(executor="parallel", use_fit_cache=True),
            target_cores=48,
            category="c",
            allow_negative=False,
        )
        assert base == same

    def test_context_manager_restores_state(self):
        assert not FIT_CACHE.enabled
        with caches_enabled(True):
            assert FIT_CACHE.enabled and EXTRAPOLATION_CACHE.enabled
            with caches_enabled(False):
                assert not FIT_CACHE.enabled
            assert FIT_CACHE.enabled
        assert not FIT_CACHE.enabled


class TestKeyFormatPinned:
    """On-disk cache entries are addressed by these digests: pin their bytes.

    A change of either hex string orphans every persisted disk-tier entry
    (or, worse, makes different inputs collide), so it must be deliberate.
    """

    MEASUREMENTS_HEX = "588d2c415ded2d5fb592fd50ce222158"
    CONFIG_HEX = "99813298f9a807ea3d6508bc3e0a9712"

    @staticmethod
    def _measurements():
        from repro.core.measurement import Measurement, MeasurementSet

        return MeasurementSet(
            measurements=tuple(
                Measurement(
                    cores=cores,
                    time=10.0 / cores + 0.125,
                    hardware_stalls={"rob_full": 1.5e9 * cores, "ls_full": 3.0e8 + cores / 3.0},
                    software_stalls={"lock_spin_cycles": 2.0e7 * cores * cores},
                    frontend_stalls={"icache": 1e6},
                    memory_footprint_mb=512.0,
                )
                for cores in (1, 2, 4, 8)
            ),
            workload="genome",
            machine="xeon20",
            frequency_ghz=2.4,
            dataset_size=1.0,
        )

    def test_measurements_digest_is_pinned(self):
        from repro.engine.cache import measurements_digest

        assert measurements_digest(self._measurements()) == self.MEASUREMENTS_HEX

    def test_config_digest_is_pinned(self):
        from repro.engine.cache import config_digest

        config = EstimaConfig(checkpoints=3, dataset_ratio=2.0, max_extrapolation_factor=50.0)
        assert config_digest(config) == self.CONFIG_HEX
