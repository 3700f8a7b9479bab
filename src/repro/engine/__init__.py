"""Execution engine: the shared substrate every ESTIMA pipeline runs on.

The engine layer sits between :mod:`repro.core` (the numerics) and
:mod:`repro.runner` / :mod:`repro.cli` (the workflows) and provides three
pieces:

* :mod:`repro.engine.executor` — pluggable :class:`Executor` backends
  (``serial`` / ``parallel``) that map independent experiment and campaign
  tasks with deterministic result ordering;
* :mod:`repro.engine.cache` — content-addressed memoization of
  ``fit_kernel`` / ``extrapolate_series`` / prediction results with hit/miss
  statistics;
* :mod:`repro.engine.service` — a batched :class:`PredictionService` that
  deduplicates the shared extrapolation work behind the multiple targets a
  campaign evaluates;
* :mod:`repro.engine.server` / :mod:`repro.engine.pool` — the serving
  front-end: an asyncio NDJSON :class:`PredictionServer` (stdio, unix
  socket or TCP; micro-batching, backpressure, streamed campaigns) and the
  pre-fork :class:`WorkerPool` supervisor that puts N of them behind one
  listening socket.

Picking a backend
-----------------
The serial path is the default and reproduces the seed numerics bit for bit.
Parallel and cached paths are opt-in and verified equal by the test suite:

* per run: ``EstimaConfig(executor="parallel", max_workers=8,
  use_fit_cache=True)`` or an ``Executor`` instance passed to
  ``ErrorCampaign`` / ``Experiment.run_many``;
* per process: ``ESTIMA_EXECUTOR=parallel[:N]`` and ``ESTIMA_FIT_CACHE=1``;
* per command: ``estima campaign --executor parallel --fit-cache``.

:mod:`repro.core.fitting` and :mod:`repro.core.regression` consult the cache
layer directly, so this package's ``__init__`` must stay importable from the
core layer: it imports only the dependency-free ``cache`` and ``executor``
modules eagerly and loads ``service`` (which depends on core) lazily.
"""

from .cache import (
    EXTRAPOLATION_CACHE,
    FIT_CACHE,
    CacheStats,
    ContentCache,
    attach_disk_tier,
    cache_stats,
    caches_enabled,
    clear_caches,
    detach_disk_tier,
    get_cache,
    reset_cache_stats,
    set_caches_enabled,
)
from .executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    executor_for_config,
    get_executor,
    parse_executor_spec,
)
from .pool import WorkerPool, parse_serve_workers, parse_tcp_address, serve_workers_from_env
from .store import DiskStore, default_cache_dir, store_for

__all__ = [
    "CacheStats",
    "ContentCache",
    "DiskStore",
    "EXTRAPOLATION_CACHE",
    "Executor",
    "FIT_CACHE",
    "ParallelExecutor",
    "PredictionRequest",
    "PredictionServer",
    "PredictionService",
    "SerialExecutor",
    "WorkerPool",
    "attach_disk_tier",
    "cache_stats",
    "caches_enabled",
    "clear_caches",
    "default_cache_dir",
    "detach_disk_tier",
    "executor_for_config",
    "get_cache",
    "get_executor",
    "parse_executor_spec",
    "parse_serve_workers",
    "parse_tcp_address",
    "reset_cache_stats",
    "serve_workers_from_env",
    "set_caches_enabled",
    "store_for",
]

_LAZY_SERVICE_EXPORTS = ("PredictionService", "PredictionRequest")
_LAZY_SERVER_EXPORTS = ("PredictionServer",)


def __getattr__(name: str):
    # ``service`` and ``server`` import repro.core, which imports the cache
    # module above; loading them lazily keeps core -> engine acyclic.
    if name in _LAZY_SERVICE_EXPORTS:
        from . import service

        return getattr(service, name)
    if name in _LAZY_SERVER_EXPORTS:
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
