"""Content-addressed memoization for fits, extrapolations and predictions.

ESTIMA's cost is dominated by multi-start non-linear least squares: a single
campaign re-fits the same (kernel, series) pairs many times — the
``allow_negative`` fallback in :func:`repro.core.regression.extrapolate_series`
re-runs every fit of the first pass, and a multi-target campaign asks for the
same extrapolations once per target.  This module provides the shared caching
substrate the engine layer uses to pay for each fit exactly once:

* :class:`ContentCache` — a bounded, thread-safe, **tiered** memo table
  addressed by a content digest of its inputs (never by object identity).
  Tier 1 is an in-process LRU dict; an optional tier 2 is a persistent
  :class:`~repro.engine.store.DiskStore` that survives across processes and
  runs (attach with :func:`attach_disk_tier`).  Hit/miss statistics are kept
  per tier;
* global cache *regions* (``"fit"``, ``"extrapolation"``) that
  :mod:`repro.core.fitting` and :mod:`repro.core.regression` consult when
  enabled, plus per-service regions created by
  :class:`repro.engine.service.PredictionService`;
* key builders that hash the actual numerical content (kernel name, core
  counts, value bytes, relevant config fields), so measurement sets loaded
  from disk hit the same entries as freshly simulated ones.

All cached values (:class:`~repro.core.fitting.FittedFunction`,
:class:`~repro.core.regression.ExtrapolationResult`,
:class:`~repro.core.result.ScalabilityPrediction`) are frozen dataclasses, so
sharing them between callers is safe.  Caching is **off by default** — the
default serial path computes exactly what the seed code computed — and is
switched on per run via ``EstimaConfig(use_fit_cache=True)``, the
``ESTIMA_FIT_CACHE=1`` environment variable, or the :func:`caches_enabled`
context manager.  The disk tier is attached per run via
``EstimaConfig(cache_dir=...)`` / ``ESTIMA_CACHE_DIR`` and managed with the
``estima cache`` CLI subcommand.

This module deliberately imports nothing from the rest of :mod:`repro`
(``store`` is a sibling leaf module) so the core layer can depend on it
without cycles.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from .store import DiskStore, store_for

__all__ = [
    "CacheStats",
    "ContentCache",
    "FIT_CACHE",
    "EXTRAPOLATION_CACHE",
    "get_cache",
    "cache_stats",
    "clear_caches",
    "reset_cache_stats",
    "set_caches_enabled",
    "caches_enabled",
    "attach_disk_tier",
    "detach_disk_tier",
    "disk_tier",
    "parse_bool_env",
    "digest",
    "fit_key",
    "extrapolation_key",
    "measurements_digest",
    "config_digest",
]

#: Environment variable that enables the fit/extrapolation caches at import.
ENV_FIT_CACHE = "ESTIMA_FIT_CACHE"

_TRUE_TOKENS = frozenset({"1", "true", "yes", "on"})
_FALSE_TOKENS = frozenset({"", "0", "false", "no", "off"})


def parse_bool_env(name: str, value: str | None, *, strict: bool = True) -> bool:
    """Parse a boolean environment value (``1/true/yes/on`` vs ``0/false/no/off``).

    With ``strict`` (the default, used at config construction) an
    unrecognised token raises a clear ``ValueError`` naming the variable
    instead of silently picking a side and failing deep inside the engine.
    Non-strict mode (import time, where raising would break ``import repro``)
    treats unrecognised tokens as false.
    """
    token = (value or "").strip().lower()
    if token in _TRUE_TOKENS:
        return True
    if token in _FALSE_TOKENS:
        return False
    if strict:
        raise ValueError(
            f"invalid {name}={value!r}: expected one of "
            f"{sorted(_TRUE_TOKENS)} or {sorted(_FALSE_TOKENS - {''})}"
        )
    return False


@dataclass
class CacheStats:
    """Hit/miss counters of one cache region."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


_SENTINEL = object()


class ContentCache:
    """A bounded, thread-safe, content-addressed memo table with two tiers.

    Keys are opaque digests produced by the key builders below; values are
    immutable result objects.  Tier 1 is an in-process dict with
    least-recently-used eviction once ``max_entries`` is exceeded, which
    bounds memory on long-running services.  Tier 2 is an optional
    :class:`~repro.engine.store.DiskStore` (see :meth:`attach_store`): a
    tier-1 miss falls through to the store, a store hit is promoted back
    into memory, and fresh computations are written to both tiers — so a new
    process starts warm from what earlier processes computed.

    Statistics are kept per tier: ``stats`` counts tier-1 (memory) lookups
    exactly as before, ``disk_stats`` counts the tier-2 lookups that the
    memory misses triggered.  A value is recomputed only when *both* tiers
    miss, so ``disk_stats.misses`` is the number of actual computations.
    A disabled cache is transparent: :meth:`get_or_compute` calls the compute
    function directly and records nothing.
    """

    def __init__(
        self,
        name: str,
        *,
        enabled: bool = False,
        max_entries: int = 65536,
        store: DiskStore | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.name = name
        self.enabled = enabled
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.disk_stats = CacheStats()
        self.store = store
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def attach_store(self, store: DiskStore | None) -> None:
        """Attach (or with ``None`` detach) the persistent second tier."""
        self.store = store

    def get(
        self, key: Any, *, valid: Callable[[Any], bool] | None = None
    ) -> tuple[bool, Any]:
        """Probe both tiers for ``key`` without computing anything.

        Returns ``(hit, value)`` — the tuple disambiguates a cached ``None``
        from a miss.  Counting is exactly the probe phase of
        :meth:`get_or_compute`, so batch users (the vectorized fit grid
        probing a whole sweep up front) keep the same per-entry hit/miss
        accounting as per-call users.  A disabled cache always misses and
        records nothing.
        """
        if not self.enabled:
            return False, None
        with self._lock:
            cached = self._data.get(key, _SENTINEL)
            if cached is not _SENTINEL and (valid is None or valid(cached)):
                self._data.move_to_end(key)
                self.stats.hits += 1
                return True, cached
            self.stats.misses += 1
        store = self.store
        if store is not None:
            # Disk keys must be path-safe digests; every key builder below
            # produces hex strings, so this holds for all engine regions.
            stored = store.get(self.name, str(key))
            if not store.is_miss(stored) and (valid is None or valid(stored)):
                with self._lock:
                    self.disk_stats.hits += 1
                self._remember(key, stored)
                return True, stored
            with self._lock:
                self.disk_stats.misses += 1
        return False, None

    def put(self, key: Any, value: Any) -> None:
        """Store a computed value in both tiers (a no-op when disabled)."""
        if not self.enabled:
            return
        self._remember(key, value)
        store = self.store
        if store is not None:
            store.put(self.name, str(key), value)

    def get_or_compute(
        self,
        key: Any,
        compute: Callable[[], Any],
        *,
        valid: Callable[[Any], bool] | None = None,
    ) -> Any:
        """Return the cached value for ``key`` or compute, store and return it.

        ``valid`` lets a caller reject a cached entry that exists but does not
        cover the current request (e.g. an extrapolation evaluated over a
        narrower core range than now required); a rejected entry counts as a
        miss in its tier and is overwritten by the fresh computation.
        """
        if not self.enabled:
            return compute()
        hit, value = self.get(key, valid=valid)
        if hit:
            return value
        value = compute()  # outside the lock: fits can take a while
        self.put(key, value)
        return value

    def _remember(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)

    def stats_dict(self) -> dict[str, int]:
        """Flat per-tier counters (flat ints so campaign workers can be summed)."""
        return {
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "disk_hits": self.disk_stats.hits,
            "disk_misses": self.disk_stats.misses,
        }

    def clear(self) -> None:
        """Drop all in-memory entries (statistics and the disk tier are kept)."""
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        """Zero both tiers' hit/miss counters."""
        self.stats.reset()
        self.disk_stats.reset()


# --------------------------------------------------------------------------- #
# Global cache regions
# --------------------------------------------------------------------------- #

_REGISTRY: dict[str, ContentCache] = {}
_REGISTRY_LOCK = threading.Lock()


def get_cache(name: str) -> ContentCache:
    """The process-global cache region ``name`` (created on first use)."""
    with _REGISTRY_LOCK:
        cache = _REGISTRY.get(name)
        if cache is None:
            cache = _REGISTRY[name] = ContentCache(name)
        return cache


#: Region consulted by :func:`repro.core.fitting.fit_kernel`.
FIT_CACHE = get_cache("fit")
#: Region consulted by :func:`repro.core.regression.extrapolate_series`.
EXTRAPOLATION_CACHE = get_cache("extrapolation")

# Import time must never raise on a malformed environment (that would break
# ``import repro`` everywhere); EstimaConfig construction re-parses strictly.
if parse_bool_env(ENV_FIT_CACHE, os.environ.get(ENV_FIT_CACHE), strict=False):
    FIT_CACHE.enabled = True
    EXTRAPOLATION_CACHE.enabled = True


def cache_stats() -> dict[str, dict[str, int]]:
    """Per-tier hit/miss counters of every global region, keyed by region name."""
    with _REGISTRY_LOCK:
        return {name: cache.stats_dict() for name, cache in _REGISTRY.items()}


def clear_caches() -> None:
    """Empty every global region's memory tier (entries only, not statistics)."""
    with _REGISTRY_LOCK:
        for cache in _REGISTRY.values():
            cache.clear()


def reset_cache_stats() -> None:
    """Zero the per-tier hit/miss counters of every global region."""
    with _REGISTRY_LOCK:
        for cache in _REGISTRY.values():
            cache.reset_stats()


def attach_disk_tier(
    cache_dir: "str | os.PathLike[str]",
    *,
    max_bytes: int | None = None,
    names: tuple[str, ...] = ("fit", "extrapolation"),
) -> DiskStore:
    """Attach a persistent second tier under ``cache_dir`` to global regions.

    Returns the shared :class:`~repro.engine.store.DiskStore` so callers
    (e.g. :class:`~repro.engine.service.PredictionService`) can attach the
    same store to their private regions too.  Attaching is idempotent: the
    same directory always resolves to one store instance.
    """
    store = store_for(cache_dir, max_bytes=max_bytes)
    for name in names:
        get_cache(name).attach_store(store)
    return store


def detach_disk_tier(names: tuple[str, ...] = ("fit", "extrapolation")) -> None:
    """Detach the disk tier from global regions (entries on disk are kept)."""
    for name in names:
        get_cache(name).attach_store(None)


@contextmanager
def disk_tier(
    cache_dir: "str | os.PathLike[str]",
    *,
    max_bytes: int | None = None,
    names: tuple[str, ...] = ("fit", "extrapolation"),
) -> Iterator[DiskStore]:
    """Attach a disk tier for the duration of the block, then restore.

    Unlike a bare attach/``detach_disk_tier`` pair, exiting restores each
    region's *previous* store — so a scoped use (e.g. one CLI command run
    in-process) does not clobber an attachment the environment
    (``ESTIMA_CACHE_DIR``) or an embedding application set up earlier.
    """
    previous = {name: get_cache(name).store for name in names}
    store = attach_disk_tier(cache_dir, max_bytes=max_bytes, names=names)
    try:
        yield store
    finally:
        for name, prior in previous.items():
            get_cache(name).attach_store(prior)


_ENV_CACHE_DIR = os.environ.get("ESTIMA_CACHE_DIR", "").strip()
if _ENV_CACHE_DIR:
    try:
        # Same import-time posture as ENV_FIT_CACHE: never raise here; a
        # malformed ESTIMA_CACHE_MAX_BYTES is reported at config construction.
        attach_disk_tier(_ENV_CACHE_DIR)
    except (ValueError, OSError):
        pass


def set_caches_enabled(enabled: bool, *names: str) -> None:
    """Enable or disable global regions (all of them when ``names`` is empty)."""
    targets = names or ("fit", "extrapolation")
    for name in targets:
        get_cache(name).enabled = enabled


@contextmanager
def caches_enabled(enabled: bool = True, *names: str) -> Iterator[None]:
    """Temporarily enable (or disable) global cache regions.

    Restores each region's previous state on exit, so nested uses compose.
    """
    targets = names or ("fit", "extrapolation")
    previous = {name: get_cache(name).enabled for name in targets}
    for name in targets:
        get_cache(name).enabled = enabled
    try:
        yield
    finally:
        for name, state in previous.items():
            get_cache(name).enabled = state


# --------------------------------------------------------------------------- #
# Key builders
# --------------------------------------------------------------------------- #


def digest(*parts: object) -> str:
    """A stable content digest of heterogeneous parts (arrays hashed by bytes)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(b"<arr>")
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def fit_key(kernel_name: str, cores: np.ndarray, values: np.ndarray, max_nfev: int) -> str:
    """Cache key of one :func:`~repro.core.fitting.fit_kernel` call."""
    return digest("fit", kernel_name, cores, values, int(max_nfev))


def extrapolation_key(
    cores: np.ndarray,
    values: np.ndarray,
    config: object,
    *,
    target_cores: int,
    category: str,
    allow_negative: bool,
) -> str:
    """Cache key of one :func:`~repro.core.regression.extrapolate_series` call.

    Only the inputs that influence the numerical result take part in the key:
    the series content, the config fields the regression reads (kernel set,
    checkpoint count, prefix floor, realism bound) and ``target_cores`` (the
    realism screen widens with the target, so the chosen fit is
    target-dependent).  Engine knobs such as the executor choice deliberately
    do not, so a serial and a parallel run address the same entries, and a
    cached result is always bit-identical to a recomputed one.  Cross-target
    sharing is the :class:`~repro.engine.service.PredictionService`'s job,
    where the slice-of-the-max-target semantics are explicit.
    """
    return digest(
        "extrapolation",
        cores,
        values,
        tuple(getattr(config, "kernel_names", ())),
        int(getattr(config, "checkpoints", 0)),
        int(getattr(config, "min_prefix", 0)),
        float(getattr(config, "max_extrapolation_factor", 0.0)),
        int(target_cores),
        category,
        bool(allow_negative),
    )


def measurements_digest(measurements: object) -> str:
    """Content digest of a :class:`~repro.core.measurement.MeasurementSet`."""
    payload = measurements.to_dict()  # type: ignore[attr-defined]
    return digest("measurements", _freeze(payload))


def config_digest(config: object) -> str:
    """Digest of the config fields that change prediction *numbers*.

    Engine knobs (``executor``, ``max_workers``, ``use_fit_cache``) are
    excluded on purpose: they change how a prediction is computed, never what
    it computes, so cached results are shared across backends.
    """
    return digest(
        "config",
        tuple(getattr(config, "kernel_names", ())),
        int(getattr(config, "checkpoints", 0)),
        int(getattr(config, "min_prefix", 0)),
        bool(getattr(config, "use_software_stalls", True)),
        bool(getattr(config, "use_frontend_stalls", False)),
        float(getattr(config, "frequency_ratio", 1.0)),
        float(getattr(config, "dataset_ratio", 1.0)),
        float(getattr(config, "max_extrapolation_factor", 0.0)),
    )


_SCALAR_TYPES = frozenset({float, int, str, bool, type(None)})


def _freeze(value: object) -> object:
    """Recursively convert mappings/sequences into hashable, ordered tuples."""
    # Exact-type fast paths for what ``to_dict`` payloads hold; anything
    # else takes the general branches below, which produce the same output.
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return value
    if kind is dict:
        return tuple((k, _freeze(v)) for k, v in sorted(value.items()))
    if kind is list or kind is tuple:
        return tuple(_freeze(v) for v in value)
    if isinstance(value, Mapping):
        return tuple((k, _freeze(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value
