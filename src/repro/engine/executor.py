"""Pluggable execution backends for campaign and experiment fan-out.

The workloads of a campaign are independent of each other.  An
:class:`Executor` abstracts over *how* such a batch of independent tasks is
mapped:

* :class:`SerialExecutor` — a plain in-process loop; the default, and the
  reference semantics the other backend must reproduce bit-identically;
* :class:`ParallelExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out with deterministic result ordering (results always come back in
  task-submission order, regardless of completion order).

Backends are chosen per run via ``EstimaConfig(executor=...)``, the
``ESTIMA_EXECUTOR`` environment variable (``serial`` or ``parallel[:N]``), or
by passing an :class:`Executor` instance directly to the runner layer.  Task
functions and task payloads handed to :class:`ParallelExecutor` must be
picklable (module-level functions and plain dataclasses); the runner layer
ships workload *names* rather than workload objects for exactly this reason.
Sharding a campaign across hosts is ``estima route``'s job
(:mod:`repro.engine.cluster.router`).

This module imports nothing from the rest of :mod:`repro`, so any layer can
use it without cycles.
"""

from __future__ import annotations

import os
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, TypeVar

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "parse_executor_spec",
    "get_executor",
    "executor_for_config",
]

#: Environment variable naming the default backend (``serial`` when unset).
ENV_EXECUTOR = "ESTIMA_EXECUTOR"

#: Backend names accepted by :func:`parse_executor_spec`.
EXECUTOR_NAMES = ("serial", "parallel")

T = TypeVar("T")
R = TypeVar("R")


class Executor(ABC):
    """Maps a function over independent tasks with deterministic ordering."""

    #: Short backend identifier used in reports and CLI output.
    name: str = "abstract"
    #: Whether task functions/payloads must be picklable (process backends).
    requires_pickling: bool = False

    def __init__(self) -> None:
        self.tasks_mapped = 0
        self.batches_mapped = 0

    @abstractmethod
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item; results are in input order."""

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Yield results in input order as they become available.

        Streaming counterpart of :meth:`map` — the caller observes result
        ``i`` without waiting for results ``i+1..n`` (used by streamed
        campaigns over the serve protocol).  The base implementation is
        eager; backends override it with genuinely incremental versions.
        Results are identical to :meth:`map` in value and order.
        """
        yield from self.map(fn, items)

    def _count(self, n_tasks: int) -> None:
        self.tasks_mapped += n_tasks
        self.batches_mapped += 1

    def stats(self) -> dict[str, object]:
        """Executor counters for ``--stats`` reporting (JSON-friendly)."""
        return {
            "backend": self.name,
            "tasks": self.tasks_mapped,
            "batches": self.batches_mapped,
        }

    def close(self) -> None:
        """Release backend resources (no-op for stateless backends)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """The reference backend: a plain loop in the calling process."""

    name = "serial"
    requires_pickling = False

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        tasks = list(items)
        self._count(len(tasks))
        return [fn(item) for item in tasks]

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        tasks = list(items)
        self._count(len(tasks))
        for item in tasks:
            yield fn(item)


class ParallelExecutor(Executor):
    """Process-pool fan-out with results in deterministic submission order.

    ``max_workers=0`` (the default) sizes the pool to the machine's CPU count.
    If a process pool cannot be created or dies (restricted sandboxes,
    fork-less platforms), the batch transparently falls back to serial
    execution — results are identical either way, only wall time differs; the
    ``fell_back`` flag records that it happened.
    """

    name = "parallel"
    requires_pickling = True

    def __init__(self, max_workers: int = 0) -> None:
        super().__init__()
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0 (0 = auto)")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.fell_back = False

    def stats(self) -> dict[str, object]:
        stats = super().stats()
        stats["workers"] = self.max_workers
        stats["fell_back"] = self.fell_back
        return stats

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        tasks = list(items)
        self._count(len(tasks))
        if len(tasks) <= 1:
            return [fn(item) for item in tasks]
        chunksize = max(1, len(tasks) // (self.max_workers * 4))
        try:
            with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                # pool.map preserves input order even when tasks finish out of
                # order, which keeps campaign rows deterministic.
                return list(pool.map(fn, tasks, chunksize=chunksize))
        except (OSError, BrokenProcessPool) as exc:
            self.fell_back = True
            warnings.warn(
                f"ParallelExecutor could not use a process pool ({exc!r}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(item) for item in tasks]

    def imap(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Stream results in submission order as workers finish them.

        ``chunksize=1`` so the first result surfaces as soon as any worker
        completes task 0 — the streaming path trades a little IPC overhead
        for latency.  If the pool cannot be created or breaks mid-stream the
        remaining tasks fall back to serial execution; already-yielded
        results are never recomputed or duplicated.
        """
        tasks = list(items)
        self._count(len(tasks))
        if len(tasks) <= 1:
            for item in tasks:
                yield fn(item)
            return
        done = 0
        try:
            with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                for result in pool.map(fn, tasks, chunksize=1):
                    done += 1
                    yield result
            return
        except (OSError, BrokenProcessPool) as exc:
            self.fell_back = True
            warnings.warn(
                f"ParallelExecutor could not use a process pool ({exc!r}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
        for item in tasks[done:]:
            yield fn(item)


def parse_executor_spec(spec: str) -> tuple[str, int | None]:
    """Parse ``"serial"`` / ``"parallel[:N]"`` strictly.

    Returns ``(backend, workers)`` where ``workers`` is ``None`` when no
    ``:<n>`` suffix was given.  Raises a clear ``ValueError`` for unknown
    backends, non-integer suffixes and suffixes on the serial backend — the
    validation both :func:`get_executor` and ``EstimaConfig`` construction
    rely on, so a malformed ``ESTIMA_EXECUTOR`` fails fast instead of deep
    inside the engine.
    """
    name, sep, suffix = str(spec).strip().lower().partition(":")
    if name not in EXECUTOR_NAMES:
        raise ValueError(f"unknown executor {spec!r}; expected 'serial' or 'parallel[:N]'")
    if not sep:
        return name, None
    if name == "serial":
        raise ValueError(f"executor 'serial' takes no worker count, got {spec!r}")
    try:
        workers = int(suffix)
    except ValueError:
        raise ValueError(f"invalid worker count in executor spec {spec!r}") from None
    if workers < 0:
        raise ValueError(f"worker count must be >= 0 in executor spec {spec!r}")
    return name, workers


def get_executor(
    spec: "Executor | str | None" = None, *, max_workers: int = 0
) -> Executor:
    """Resolve an executor from an instance, a backend name, or the environment.

    ``spec`` may be an :class:`Executor` (returned as-is), a name —
    ``"serial"`` or ``"parallel[:N]"`` — or ``None``, in which case the
    ``ESTIMA_EXECUTOR`` environment variable decides (default ``serial``).
    ``max_workers`` applies to the process pool and is overridden by an
    explicit ``:<n>`` suffix.
    """
    if isinstance(spec, Executor):
        return spec
    name, suffix_workers = parse_executor_spec(spec or os.environ.get(ENV_EXECUTOR) or "serial")
    if name == "serial":
        return SerialExecutor()
    workers = suffix_workers if suffix_workers is not None else max_workers
    return ParallelExecutor(max_workers=workers)


def executor_for_config(config: object, override: "Executor | str | None" = None) -> Executor:
    """The executor a run should use, honouring explicit overrides first.

    Resolution order: ``override`` (instance or name) → ``config.executor``
    when it names a non-default backend → ``ESTIMA_EXECUTOR`` → serial.  A
    config left at its ``"serial"`` default does not shadow the environment
    variable, so ``ESTIMA_EXECUTOR=parallel`` accelerates unmodified scripts.
    ``config`` is duck typed so this module stays independent of
    :mod:`repro.core`.
    """
    workers = int(getattr(config, "max_workers", 0) or 0)
    if override is not None:
        return get_executor(override, max_workers=workers)
    spec = getattr(config, "executor", None)
    if spec in (None, "serial"):
        spec = None  # fall through to ESTIMA_EXECUTOR, default serial
    return get_executor(spec, max_workers=workers)
