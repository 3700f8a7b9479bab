"""Cluster client: talk NDJSON to downstream ``estima serve`` hosts.

Two pieces, stacked:

* :class:`RemoteClient` — a synchronous NDJSON client for one backend host:
  persistent connections (a small free-list, one connection per in-flight
  request so streamed responses never interleave), strict framing, and a
  clean split between *transport* errors (retryable:
  :class:`RemoteUnavailableError`) and *server-reported* errors (not
  retryable: :class:`RemoteRequestError`).
* :class:`BackendPool` — the cluster-facing client of the router
  (:mod:`repro.engine.cluster.router`): a
  :class:`~repro.engine.cluster.ring.HashRing` over the backends, bounded
  per-host retries with exponential backoff, per-host health tracking
  (consecutive transport failures mark a host down; the next success marks
  it up; down hosts are tried last, never skipped), failover to the next ring
  node, and per-host request/retry/failover counters for ``/metrics``.

This module depends only on the leaf engine modules (``pool``, ``cache`` via
the ring) so ``EstimaConfig`` construction can validate
``ESTIMA_ROUTE_BACKENDS`` without import cycles.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.engine.pool import parse_tcp_address
from repro.testing.syncpoints import sync_point

from .ring import DEFAULT_VNODES, HashRing

__all__ = [
    "ENV_ROUTE_BACKENDS",
    "ENV_REMOTE_TIMEOUT",
    "ENV_REMOTE_RETRIES",
    "DEFAULT_REMOTE_TIMEOUT",
    "DEFAULT_REMOTE_RETRIES",
    "RemoteError",
    "RemoteUnavailableError",
    "RemoteRequestError",
    "RemoteClient",
    "BackendPool",
    "parse_backends",
    "parse_remote_timeout",
    "parse_remote_retries",
    "route_backends_from_env",
    "remote_timeout_from_env",
    "remote_retries_from_env",
]

#: Environment variable with the default ``estima route --backends`` list.
ENV_ROUTE_BACKENDS = "ESTIMA_ROUTE_BACKENDS"
#: Environment variable with the per-request socket timeout (seconds).
ENV_REMOTE_TIMEOUT = "ESTIMA_REMOTE_TIMEOUT"
#: Environment variable with the per-host transport retry budget.
ENV_REMOTE_RETRIES = "ESTIMA_REMOTE_RETRIES"

#: Socket timeout applied to connect and reads of one remote request.
DEFAULT_REMOTE_TIMEOUT = 30.0
#: Additional attempts per host after the first fails at the transport level.
DEFAULT_REMOTE_RETRIES = 2

#: First backoff sleep; doubles per retry (0.05, 0.1, 0.2, ...).
_BACKOFF_BASE_S = 0.05


# --------------------------------------------------------------------------- #
# Spec / environment parsing (shared with EstimaConfig validation)
# --------------------------------------------------------------------------- #


def parse_backends(spec: object) -> tuple[str, ...]:
    """Parse a comma-separated ``host:port`` backend list strictly.

    Returns the normalised ``("host:port", ...)`` tuple.  Raises a clear
    ``ValueError`` for an empty list, a malformed address or a duplicate
    backend — consumed by ``EstimaConfig`` (``route_backends``,
    ``ESTIMA_ROUTE_BACKENDS``) validation, so bad values fail at
    construction, not mid-request.
    """
    entries = [entry.strip() for entry in str(spec).split(",") if entry.strip()]
    if not entries:
        raise ValueError(
            f"invalid backend list {spec!r}: expected host:port[,host:port...]"
        )
    backends = []
    for entry in entries:
        try:
            host, port = parse_tcp_address(entry)
        except ValueError as exc:
            raise ValueError(f"invalid backend {entry!r}: {exc}") from None
        if port == 0:
            raise ValueError(f"invalid backend {entry!r}: port 0 is not routable")
        backends.append(f"{host}:{port}")
    if len(set(backends)) != len(backends):
        raise ValueError(f"duplicate backends in {spec!r}")
    return tuple(backends)


def parse_remote_timeout(value: object, *, source: str = "remote_timeout") -> float:
    """Parse a remote request timeout strictly: a positive number of seconds."""
    try:
        timeout = float(str(value).strip())
    except ValueError:
        raise ValueError(
            f"invalid {source}={value!r}: expected a positive number of seconds"
        ) from None
    if not timeout > 0:
        raise ValueError(f"invalid {source}={value!r}: timeout must be > 0")
    return timeout


def parse_remote_retries(value: object, *, source: str = "remote_retries") -> int:
    """Parse a per-host retry budget strictly: a non-negative integer."""
    try:
        retries = int(str(value).strip())
    except ValueError:
        raise ValueError(
            f"invalid {source}={value!r}: expected a non-negative integer retry count"
        ) from None
    if retries < 0:
        raise ValueError(f"invalid {source}={value!r}: retry count must be >= 0")
    return retries


def route_backends_from_env() -> str | None:
    """The backend list configured via ``ESTIMA_ROUTE_BACKENDS`` (validated)."""
    raw = os.environ.get(ENV_ROUTE_BACKENDS, "").strip()
    if not raw:
        return None
    try:
        parse_backends(raw)
    except ValueError as exc:
        raise ValueError(f"invalid {ENV_ROUTE_BACKENDS} environment variable: {exc}") from None
    return raw


def remote_timeout_from_env(default: float = DEFAULT_REMOTE_TIMEOUT) -> float:
    """The request timeout configured via ``ESTIMA_REMOTE_TIMEOUT`` (validated)."""
    raw = os.environ.get(ENV_REMOTE_TIMEOUT, "").strip()
    if not raw:
        return default
    return parse_remote_timeout(raw, source=ENV_REMOTE_TIMEOUT)


def remote_retries_from_env(default: int = DEFAULT_REMOTE_RETRIES) -> int:
    """The retry budget configured via ``ESTIMA_REMOTE_RETRIES`` (validated)."""
    raw = os.environ.get(ENV_REMOTE_RETRIES, "").strip()
    if not raw:
        return default
    return parse_remote_retries(raw, source=ENV_REMOTE_RETRIES)


# --------------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------------- #


class RemoteError(Exception):
    """Base of the remote-execution error taxonomy."""


class RemoteUnavailableError(RemoteError):
    """A transport-level failure (connect, timeout, broken stream, bad
    framing): the request may not have been processed, so it is safe and
    useful to retry — first on the same host, then on the next ring node."""


class RemoteRequestError(RemoteError):
    """The backend processed the request and reported an error document.

    Not retryable: every replica runs the same code on the same payload, so
    another host would answer the same.  ``error_kind`` carries the server's
    taxonomy (``"request"`` / ``"internal"`` / ``"disconnect"``).
    """

    def __init__(self, message: str, *, error_kind: str = "internal") -> None:
        super().__init__(message)
        self.error_kind = error_kind


# --------------------------------------------------------------------------- #
# One-host NDJSON client
# --------------------------------------------------------------------------- #


class RemoteClient:
    """Persistent-connection NDJSON client for one ``estima serve`` host.

    Connections are pooled in a free-list: each request checks one out for
    its whole exchange (a streamed campaign's response lines are contiguous
    per request only on a connection it does not share) and returns it on
    clean completion; a connection that saw a transport error is closed, not
    recycled.  Thread-safe — the router fans requests out over a thread
    pool.
    """

    def __init__(self, address: str, *, timeout: float = DEFAULT_REMOTE_TIMEOUT) -> None:
        self.address = address
        self.host, self.port = parse_tcp_address(address)
        self.timeout = timeout
        self._idle: list[tuple[socket.socket, Any]] = []  # (socket, reader)
        self._lock = threading.Lock()

    def _checkout(self) -> tuple[tuple[socket.socket, Any], bool]:
        """An idle connection (reused=True) or a fresh one (reused=False)."""
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        try:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            raise RemoteUnavailableError(f"{self.address}: connect failed: {exc}") from None
        sock.settimeout(self.timeout)
        # The buffered reader stays paired with its socket across requests:
        # recreating it per exchange could strand read-ahead bytes.
        return (sock, sock.makefile("rb")), False

    def _checkin(self, conn: tuple[socket.socket, Any]) -> None:
        with self._lock:
            self._idle.append(conn)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            self._discard(conn)

    def request(self, payload: Mapping[str, Any]) -> list[dict[str, Any]]:
        """One request -> every response document it produces, in order.

        A predict returns one document; a campaign returns its row documents
        followed by the final (``"done"`` or error) document.  A reused
        connection the server closed while idle is retried once on a fresh
        connection before the failure counts — standard keep-alive hygiene,
        not a real retry (the request never produced a response byte).
        """
        conn, reused = self._checkout()
        try:
            return self._exchange(conn, payload)
        except RemoteUnavailableError as exc:
            self._discard(conn)
            if reused and getattr(exc, "before_any_response", False):
                conn, _ = self._checkout()  # fresh connection, one quiet retry
                try:
                    return self._exchange(conn, payload)
                except RemoteUnavailableError:
                    self._discard(conn)
                    raise
            raise

    def _exchange(
        self, conn: tuple[socket.socket, Any], payload: Mapping[str, Any]
    ) -> list[dict[str, Any]]:
        sock, reader = conn
        line = json.dumps(payload).encode() + b"\n"
        try:
            sock.sendall(line)
        except OSError as exc:
            error = RemoteUnavailableError(f"{self.address}: send failed: {exc}")
            error.before_any_response = True
            raise error from None
        sync_point("cluster.client.sent")
        documents: list[dict[str, Any]] = []
        while True:
            try:
                raw = reader.readline()
            except OSError as exc:
                raise RemoteUnavailableError(
                    f"{self.address}: read failed: {exc}"
                ) from None
            if not raw:
                where = "before any response" if not documents else "mid-stream"
                error = RemoteUnavailableError(
                    f"{self.address}: connection closed {where}"
                )
                error.before_any_response = not documents
                raise error
            try:
                document = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise RemoteUnavailableError(
                    f"{self.address}: bad response framing: {exc}"
                ) from None
            if not isinstance(document, dict):
                raise RemoteUnavailableError(
                    f"{self.address}: bad response document: {document!r}"
                )
            documents.append(document)
            sync_point("cluster.client.document")
            if not document.get("ok", False):
                break  # error document terminates the exchange
            if document.get("op") != "campaign" or document.get("done", False):
                break  # single-document op, or the campaign summary
        self._checkin(conn)
        return documents

    @staticmethod
    def _discard(conn: tuple[socket.socket, Any]) -> None:
        sock, reader = conn
        for closeable in (reader, sock):
            try:
                closeable.close()
            except OSError:
                pass


# --------------------------------------------------------------------------- #
# The ring-routed, health-tracking, retrying pool
# --------------------------------------------------------------------------- #


@dataclass
class _HostHealth:
    """Per-host transport health and routing counters."""

    up: bool = True
    requests: int = 0
    failures: int = 0
    retries: int = 0
    consecutive_failures: int = 0
    # Bumped by every recorded failure; an attempt's success counts only if
    # the epoch it started in is still current.
    failure_epoch: int = 0

    def as_dict(self) -> dict[str, object]:
        return {
            "up": self.up,
            "requests": self.requests,
            "failures": self.failures,
            "retries": self.retries,
        }


class BackendPool:
    """Route requests to ``estima serve`` backends along the hash ring.

    One request is tried on its key's owner first: up to ``1 + retries``
    attempts with exponential backoff between them, then failover to the
    next ring node with a fresh attempt budget.  Hosts marked down (their
    last request exhausted its attempts) are deferred to the end of the
    failover order rather than skipped — a recovered host heals on its next
    try.  Raises :class:`RemoteUnavailableError` only when every backend is
    exhausted; :class:`RemoteRequestError` (the backend answered with an
    error document) propagates immediately, as every replica would answer
    the same.  Thread-safe; the router shares one across its I/O threads.
    """

    def __init__(
        self,
        backends: "Iterable[str] | str",
        *,
        vnodes: int = DEFAULT_VNODES,
        timeout: float = DEFAULT_REMOTE_TIMEOUT,
        retries: int = DEFAULT_REMOTE_RETRIES,
        backoff_base_s: float = _BACKOFF_BASE_S,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if isinstance(backends, str):
            backends = parse_backends(backends)
        self.backends = tuple(backends)
        self.ring = HashRing(self.backends, vnodes=vnodes)
        self.timeout = parse_remote_timeout(timeout)
        self.retries = parse_remote_retries(retries)
        self.backoff_base_s = backoff_base_s
        self._sleep = sleep
        self._clients = {
            address: RemoteClient(address, timeout=self.timeout)
            for address in self.backends
        }
        self._health = {address: _HostHealth() for address in self.backends}
        self._lock = threading.Lock()
        self.routed_requests = 0
        self.failovers = 0

    # ------------------------------------------------------------------ #
    # Health bookkeeping
    # ------------------------------------------------------------------ #
    def _failure_epoch(self, address: str) -> int:
        with self._lock:
            return self._health[address].failure_epoch

    def _record(
        self, address: str, *, ok: bool, retry: bool = False, epoch: int | None = None
    ) -> None:
        """Record one attempt's outcome; ``epoch`` is the failure epoch it began in.

        A success marks the host up only if no failure was recorded since
        its attempt began: two shards can share a backend, and a late answer
        to an exchange that started before the host died must not revive it.
        """
        with self._lock:
            health = self._health[address]
            if retry:
                health.retries += 1
            else:
                health.requests += 1
                if ok:
                    if epoch == health.failure_epoch:
                        health.up = True
                        health.consecutive_failures = 0
                else:
                    health.failures += 1
                    health.consecutive_failures += 1
                    health.failure_epoch += 1
                    health.up = False
        sync_point("cluster.pool.recorded")

    def mark_probe(self, address: str, *, up: bool) -> None:
        """Record an out-of-band health probe (the router's ``/healthz``)."""
        with self._lock:
            health = self._health[address]
            health.up = up
            if up:
                health.consecutive_failures = 0

    def host_up(self, address: str) -> bool:
        with self._lock:
            return self._health[address].up

    def stats(self) -> dict[str, Any]:
        """Numeric-only routing counters (flattened into ``/metrics``)."""
        with self._lock:
            return {
                "routed_requests": self.routed_requests,
                "failovers": self.failovers,
                "backends_total": len(self.backends),
                "backends_up": sum(1 for h in self._health.values() if h.up),
                "per_backend": {
                    address: self._health[address].as_dict() for address in self.backends
                },
            }

    # ------------------------------------------------------------------ #
    # Request routing
    # ------------------------------------------------------------------ #
    def request(self, key: str, payload: Mapping[str, Any]) -> list[dict[str, Any]]:
        """Send ``payload`` to the backend owning ``key`` (with failover).

        Returns every response document of the exchange in order.  The
        failover schedule is the ring order with down hosts deferred to the
        end; each host gets ``1 + retries`` attempts with exponential
        backoff between them.
        """
        with self._lock:
            self.routed_requests += 1
        ring_order = self.ring.nodes_for(key)
        with self._lock:
            schedule = [a for a in ring_order if self._health[a].up] + [
                a for a in ring_order if not self._health[a].up
            ]
        last_error: RemoteUnavailableError | None = None
        for rank, address in enumerate(schedule):
            if rank > 0:
                with self._lock:
                    self.failovers += 1
                sync_point("cluster.pool.failover")
            client = self._clients[address]
            for attempt in range(1 + self.retries):
                if attempt > 0:
                    self._record(address, ok=False, retry=True)
                    self._sleep(self.backoff_base_s * (2 ** (attempt - 1)))
                sync_point("cluster.pool.attempt")
                epoch = self._failure_epoch(address)
                try:
                    documents = client.request(payload)
                except RemoteUnavailableError as exc:
                    last_error = exc
                    continue
                self._record(address, ok=True, epoch=epoch)
                return documents
            self._record(address, ok=False)
        raise RemoteUnavailableError(
            f"all {len(schedule)} backend(s) exhausted for key {key[:16]}...: {last_error}"
        )

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
