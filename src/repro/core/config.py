"""Configuration of an ESTIMA prediction run.

The paper exposes a handful of knobs; all of them live here:

* which kernels to fit (Table 1; all six by default),
* how many of the highest-core-count measurements become *checkpoints*
  (``c`` in Section 3.1.2; the paper uses 2 and 4),
* the smallest measurement prefix considered during the over-fitting sweep
  (``i`` runs from 3 to ``n`` in the paper),
* whether software-stall categories are included,
* cross-machine corrections: frequency ratio (Section 4.3) and dataset-size
  ratio for weak scaling (Section 4.5).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Sequence

from .kernels import DEFAULT_KERNEL_NAMES, get_kernel

__all__ = ["EstimaConfig"]


def _default_cache_dir() -> str | None:
    """Disk-tier directory default: ``ESTIMA_CACHE_DIR`` or disabled."""
    env = os.environ.get("ESTIMA_CACHE_DIR", "").strip()
    return env or None


@dataclass(frozen=True)
class EstimaConfig:
    """Knobs controlling the ESTIMA pipeline.

    Attributes
    ----------
    kernel_names:
        Table-1 kernels tried for every approximation.
    checkpoints:
        Number ``c`` of highest-core-count measurements held out and used to
        score candidate fits (RMSE at checkpoints).
    min_prefix:
        Shortest measurement prefix used in the over-fitting sweep
        (the paper iterates ``i`` in ``3..n``).
    use_software_stalls:
        Include software-reported stall categories when present in the
        measurements (STM aborted-transaction cycles, lock spin cycles, ...).
    use_frontend_stalls:
        Include frontend stall categories.  Off by default — the paper shows
        they add no information (Section 5.2 / Table 6); the switch exists to
        reproduce exactly that experiment.
    frequency_ratio:
        ``f_measurement / f_target``; measured execution times are multiplied
        by this before the scaling factor is computed, so predictions land in
        target-machine time units (used for the desktop-to-server memcached
        and SQLite experiments).
    dataset_ratio:
        Target dataset size divided by measurement dataset size; extrapolated
        stall values are scaled by it (weak scaling, Section 4.5).
    max_extrapolation_factor:
        Realism bound: a fit whose extrapolated values exceed this multiple of
        the largest training value is discarded as "not realistic".
    executor:
        Execution backend for campaign/experiment fan-out: ``"serial"`` (the
        default, an in-process loop) or ``"parallel[:N]"`` (a process pool
        at the workload level; see :mod:`repro.engine.executor`).
        ``ESTIMA_EXECUTOR`` in the environment overrides the ``"serial"``
        default.
    max_workers:
        Worker count for the pool backends; ``0`` sizes the pool to the
        machine's CPU count.
    use_fit_cache:
        Enable the engine's content-addressed memoization of ``fit_kernel``
        and ``extrapolate_series`` results (see :mod:`repro.engine.cache`).
        Off by default; the cached path is verified to produce identical
        numbers but keeps state across runs.
    cache_dir:
        Directory of the persistent disk cache tier
        (:mod:`repro.engine.store`): fits, extrapolations and service
        predictions computed by one process warm-start every later one.
        ``None`` (the default, unless ``ESTIMA_CACHE_DIR`` is set) leaves
        the disk tier off.  Only consulted when ``use_fit_cache`` is on.
    cache_max_bytes:
        Size bound of the disk tier; least-recently-used entries are evicted
        beyond it.  Defaults to ``ESTIMA_CACHE_MAX_BYTES`` or 256 MiB.
    serve_max_batch:
        ``estima serve`` micro-batching: most requests coalesced into one
        :meth:`~repro.engine.service.PredictionService.predict_batch` call.
    serve_batch_window_ms:
        How long the server waits for more requests after the first of a
        batch arrives (the latency it will pay to improve coalescing).
    serve_queue_limit:
        Bound of the server's request queue; submissions beyond it block
        (backpressure) until the batcher drains.
    serve_workers:
        ``estima serve`` worker-pool size: ``0`` (the default) serves
        in-process; ``N >= 1`` forks N worker processes behind one listening
        socket (see :mod:`repro.engine.pool`).  ``ESTIMA_SERVE_WORKERS``
        provides the CLI default; like ``ESTIMA_EXECUTOR``, a malformed
        value is rejected here at construction.
    serve_tcp:
        ``HOST:PORT`` TCP listening address for ``estima serve --tcp``
        (``None`` keeps stdio/unix-socket serving).  Validated strictly at
        construction; port 0 asks the listener for a free port.
    serve_http:
        ``HOST:PORT`` listening address for the HTTP/JSON gateway
        (``estima serve --http``, :mod:`repro.engine.gateway`); ``None``
        (the default) keeps HTTP off.  ``ESTIMA_SERVE_HTTP`` provides the
        CLI default; both the field and the environment variable are
        validated strictly here at construction, like ``serve_tcp``.
    serve_idle_timeout:
        Idle/read timeout in seconds for served connections (the NDJSON
        server and the HTTP gateway): a peer that sends nothing for this
        long — with no requests of its own in flight — is disconnected, so
        a hung client cannot pin a connection slot.  ``None`` (the default)
        defers to ``ESTIMA_SERVE_IDLE_TIMEOUT``; 0 disables the timeout.
    route_backends:
        Comma-separated ``host:port`` list of downstream ``estima serve``
        hosts for the cluster router (``estima route``).  ``None`` (the
        default) defers to
        ``ESTIMA_ROUTE_BACKENDS``.  Validated strictly at construction
        (well-formed addresses, no duplicates, no port 0).
    remote_timeout:
        Per-request socket timeout in seconds for the router's backend
        calls.  ``ESTIMA_REMOTE_TIMEOUT`` overrides the CLI default.
    remote_retries:
        Retries per backend host (beyond the first attempt, exponential
        backoff) before failing over to the next ring node.
        ``ESTIMA_REMOTE_RETRIES`` overrides the CLI default.

    None of the engine knobs (``executor``, ``max_workers``,
    ``use_fit_cache``, ``cache_*``, ``serve_*``, ``route_backends``,
    ``remote_*``) affect predicted numbers — only how fast (and where) they
    are produced.
    """

    kernel_names: tuple[str, ...] = DEFAULT_KERNEL_NAMES
    checkpoints: int = 2
    min_prefix: int = 3
    use_software_stalls: bool = True
    use_frontend_stalls: bool = False
    frequency_ratio: float = 1.0
    dataset_ratio: float = 1.0
    max_extrapolation_factor: float = 1e4
    executor: str = "serial"
    max_workers: int = 0
    use_fit_cache: bool = False
    cache_dir: str | None = field(default_factory=_default_cache_dir)
    cache_max_bytes: int | None = None
    serve_max_batch: int = 32
    serve_batch_window_ms: float = 2.0
    serve_queue_limit: int = 256
    serve_workers: int = 0
    serve_tcp: str | None = None
    serve_http: str | None = None
    serve_idle_timeout: float | None = None
    route_backends: str | None = None
    remote_timeout: float = 30.0
    remote_retries: int = 2

    def __post_init__(self) -> None:
        # Engine imports are deferred to the call: repro.engine.cache is a
        # leaf module, but keeping config importable without it at module
        # scope preserves the core -> engine one-way dependency direction.
        from repro.engine.cache import ENV_FIT_CACHE, parse_bool_env
        from repro.engine.executor import ENV_EXECUTOR, parse_executor_spec
        from repro.engine.cluster.remote import (
            parse_backends,
            parse_remote_retries,
            parse_remote_timeout,
            remote_retries_from_env,
            remote_timeout_from_env,
            route_backends_from_env,
        )
        from repro.engine.pool import (
            ENV_SERVE_WORKERS,
            parse_idle_timeout,
            parse_serve_workers,
            parse_tcp_address,
            serve_http_from_env,
            serve_idle_timeout_from_env,
        )
        from repro.engine.store import max_bytes_from_env

        if self.checkpoints < 1:
            raise ValueError("checkpoints must be >= 1")
        if self.min_prefix < 2:
            raise ValueError("min_prefix must be >= 2")
        try:
            parse_executor_spec(self.executor)
        except ValueError as exc:
            raise ValueError(f"invalid executor: {exc}") from None
        if self.max_workers < 0:
            raise ValueError("max_workers must be >= 0 (0 = auto)")
        # Environment knobs the engine reads lazily are validated here, at
        # config construction, so a malformed value (ESTIMA_EXECUTOR=
        # parallel:abc, ESTIMA_FIT_CACHE=maybe, ...) raises a clear error up
        # front instead of failing deep inside the engine mid-run.
        env_executor = os.environ.get(ENV_EXECUTOR)
        if env_executor is not None and env_executor.strip():
            try:
                parse_executor_spec(env_executor)
            except ValueError as exc:
                raise ValueError(f"invalid {ENV_EXECUTOR} environment variable: {exc}") from None
        env_fit_cache = os.environ.get(ENV_FIT_CACHE)
        if env_fit_cache is not None:
            parse_bool_env(ENV_FIT_CACHE, env_fit_cache)  # raises ValueError when malformed
        max_bytes_from_env()  # raises ValueError when ESTIMA_CACHE_MAX_BYTES is malformed
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ValueError("cache_max_bytes must be >= 1")
        if self.serve_max_batch < 1:
            raise ValueError("serve_max_batch must be >= 1")
        if self.serve_batch_window_ms < 0.0:
            raise ValueError("serve_batch_window_ms must be >= 0")
        if self.serve_queue_limit < 1:
            raise ValueError("serve_queue_limit must be >= 1")
        parse_serve_workers(self.serve_workers)  # raises ValueError when malformed
        env_serve_workers = os.environ.get(ENV_SERVE_WORKERS)
        if env_serve_workers is not None and env_serve_workers.strip():
            parse_serve_workers(env_serve_workers, source=ENV_SERVE_WORKERS)
        if self.serve_tcp is not None:
            parse_tcp_address(self.serve_tcp)  # raises ValueError when malformed
        if self.serve_http is not None:
            try:
                parse_tcp_address(self.serve_http)
            except ValueError as exc:
                raise ValueError(f"invalid serve_http: {exc}") from None
        serve_http_from_env()  # raises ValueError when ESTIMA_SERVE_HTTP is malformed
        if self.serve_idle_timeout is not None:
            parse_idle_timeout(self.serve_idle_timeout)  # raises when malformed
        serve_idle_timeout_from_env()  # validates ESTIMA_SERVE_IDLE_TIMEOUT
        if self.route_backends is not None:
            try:
                parse_backends(self.route_backends)
            except ValueError as exc:
                raise ValueError(f"invalid route_backends: {exc}") from None
        route_backends_from_env()  # validates ESTIMA_ROUTE_BACKENDS
        parse_remote_timeout(self.remote_timeout)  # raises when malformed
        parse_remote_retries(self.remote_retries)  # raises when malformed
        remote_timeout_from_env()  # validates ESTIMA_REMOTE_TIMEOUT
        remote_retries_from_env()  # validates ESTIMA_REMOTE_RETRIES
        if self.frequency_ratio <= 0.0:
            raise ValueError("frequency_ratio must be positive")
        if self.dataset_ratio <= 0.0:
            raise ValueError("dataset_ratio must be positive")
        if not self.kernel_names:
            raise ValueError("at least one kernel is required")
        for name in self.kernel_names:
            get_kernel(name)  # raises KeyError for unknown kernels

    @property
    def kernels(self):
        """The resolved :class:`~repro.core.kernels.Kernel` objects."""
        return tuple(get_kernel(name) for name in self.kernel_names)

    def with_(self, **changes) -> "EstimaConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def for_cross_machine(
        cls,
        measurement_frequency_ghz: float,
        target_frequency_ghz: float,
        **kwargs,
    ) -> "EstimaConfig":
        """Config for desktop-to-server prediction with frequency scaling."""
        if measurement_frequency_ghz <= 0 or target_frequency_ghz <= 0:
            raise ValueError("frequencies must be positive")
        ratio = measurement_frequency_ghz / target_frequency_ghz
        return cls(frequency_ratio=ratio, **kwargs)

    @classmethod
    def for_weak_scaling(cls, dataset_ratio: float, **kwargs) -> "EstimaConfig":
        """Config for weak-scaling predictions (bigger target dataset)."""
        return cls(dataset_ratio=dataset_ratio, **kwargs)
