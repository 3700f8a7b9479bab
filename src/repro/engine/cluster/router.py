"""HTTP router front-end sharding requests across ``estima serve`` backends.

``estima route --http HOST:PORT --backends host1:port,host2:port`` serves the
gateway's exact HTTP protocol (same routes, same request/response schemas,
same framing helpers) but owns no prediction machinery at all: every request
is forwarded over the NDJSON serve protocol to a downstream backend chosen by
the consistent-hash ring — same request content, same backend, so each
shard's tiered caches stay hot for its slice of the key space.

Routes (documented in ``docs/serve-protocol.md``; the doc-sync test walks
:data:`ROUTES` and :data:`ROUTER_STATUS_REASONS`):

``POST /v1/predict``
    Forwarded whole to the backend owning the request's content digest.
``POST /v1/predict_batch``
    Each element is sharded independently (different elements may land on
    different backends) and forwarded concurrently; responses come back in
    request order, per-element errors inline — exactly the gateway's
    multi-status contract.
``POST /v1/campaign``
    Validated fully (a 400 before any streaming, the gateway's contract),
    then split into one single-workload NDJSON campaign sub-request per
    workload, sharded by digest and run concurrently across the backends.
    Row chunks are merged back into *campaign order* (workload order) and
    the final summary document is rebuilt from the returned rows with the
    same :mod:`repro.runner.io` payload helpers the server uses — aggregate
    numbers are bit-identical to a single-host campaign by construction.
``GET /healthz``
    Actively probes every backend (TCP connect) and reports per-backend
    liveness; 200 while at least one backend is up, 503 when none are.
``GET /metrics``
    The router's own counters (requests by route, responses by status) plus
    the :class:`~repro.engine.cluster.remote.BackendPool` routing stats
    (routed requests, retries, failovers, per-backend health), rendered by
    the same strict :func:`~repro.engine.gateway.flatten_stats` path.

Failover semantics: a sub-request is the unit of failover.  The pool buffers
one backend exchange completely before anything is written to the client, so
when a backend dies mid-campaign the affected sub-requests are re-routed to
the next ring node and their rows appear exactly once — never duplicated
(partial exchanges are discarded wholesale), never dropped (the sub-request
either succeeds somewhere or the stream ends with an error document).  Only
when *every* backend is exhausted does the client see an error: a 503 for
single-document routes, a final ``{"ok": false, "error_kind":
"unavailable"}`` document inside the stream for campaigns.
"""

from __future__ import annotations

import asyncio
import json
import socket
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping

from repro.core.config import EstimaConfig
from repro.engine.cache import digest
from repro.engine.gateway import (
    DEFAULT_MAX_BODY_BYTES,
    STATUS_REASONS,
    _HttpError,
    _HttpRequest,
    _METRICS_CONTENT_TYPE,
    _NDJSON_CONTENT_TYPE,
    _read_request,
    metrics_text,
    write_http_response,
    write_json_response,
)
from repro.engine.server import RequestError, parse_campaign_request

from .remote import (
    BackendPool,
    RemoteUnavailableError,
    remote_retries_from_env,
    remote_timeout_from_env,
)
from .ring import DEFAULT_VNODES

__all__ = ["ROUTES", "ROUTER_STATUS_REASONS", "Router", "serve_route"]

#: Every route the router serves — the gateway's mapping, verbatim, so a
#: client cannot tell a router from a single host by its surface.
ROUTES: dict[tuple[str, str], str] = {
    ("POST", "/v1/predict"): "predict",
    ("POST", "/v1/predict_batch"): "predict_batch",
    ("POST", "/v1/campaign"): "campaign",
    ("GET", "/healthz"): "healthz",
    ("GET", "/metrics"): "metrics",
}

#: The gateway's statuses plus 503 (no backend reachable — a state a single
#: host cannot be in).  Walked by the doc-sync test like the gateway's table.
ROUTER_STATUS_REASONS: dict[int, str] = {**STATUS_REASONS, 503: "Service Unavailable"}

#: Bound on one backend liveness probe (``GET /healthz``), seconds.
_PROBE_TIMEOUT_S = 2.0


def _canonical_key(kind: str, payload: Any) -> str:
    """The shard key of one request: a digest of its canonical JSON form.

    Key ordering is normalised so two byte-different encodings of the same
    request land on the same backend (and therefore the same warm caches).
    """
    return digest(kind, json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _merge_caches(
    totals: dict[str, dict[str, int]], part: Mapping[str, Any]
) -> None:
    """Sum one sub-campaign's per-region cache counters into ``totals``."""
    for region, counts in part.items():
        if not isinstance(counts, Mapping):
            continue
        bucket = totals.setdefault(str(region), {})
        for key, value in counts.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                bucket[str(key)] = bucket.get(str(key), 0) + int(value)


class Router:
    """Shard the gateway's HTTP surface across NDJSON serve backends.

    The router validates requests itself (with its own ``config``, which
    must therefore agree with the backends' on campaign semantics — they
    normally share one deployment config) but computes nothing: prediction
    work happens on whichever backend the ring selects.
    """

    def __init__(
        self,
        backends: "tuple[str, ...] | list[str] | str",
        *,
        config: EstimaConfig | None = None,
        vnodes: int = DEFAULT_VNODES,
        timeout: "float | None" = None,
        retries: "int | None" = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        idle_timeout: "float | None" = None,
    ) -> None:
        self.config = config or EstimaConfig()
        self.pool = BackendPool(
            backends,
            vnodes=vnodes,
            timeout=timeout if timeout is not None else remote_timeout_from_env(),
            retries=retries if retries is not None else remote_retries_from_env(),
        )
        self.max_body_bytes = max_body_bytes
        # Same resolution as the server/gateway: explicit kwarg, else config,
        # else ESTIMA_SERVE_IDLE_TIMEOUT; 0/None = disabled.
        from repro.engine.pool import parse_idle_timeout, serve_idle_timeout_from_env

        if idle_timeout is None:
            idle_timeout = self.config.serve_idle_timeout
            if idle_timeout is None:
                idle_timeout = serve_idle_timeout_from_env()
        self.idle_timeout = (
            parse_idle_timeout(idle_timeout) if idle_timeout is not None else 0.0
        ) or None
        self._requests_by_route: dict[str, int] = {}
        self._responses_by_status: dict[str, int] = {}
        # Blocking pool.request calls run here, off the event loop: two
        # threads per backend keep every backend busy, and the bound stops a
        # huge campaign from spawning unbounded threads.
        self._io_pool = ThreadPoolExecutor(
            max_workers=min(16, 2 * len(self.pool.backends)),
            thread_name_prefix="estima-route",
        )

    def close(self) -> None:
        self._io_pool.shutdown(wait=True)
        self.pool.close()

    # ------------------------------------------------------------------ #
    # Stats (one snapshot behind /metrics and --stats)
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Router counters plus the backend pool's routing/health stats."""
        return {
            "router": {
                "requests_by_route": dict(sorted(self._requests_by_route.items())),
                "responses_by_status": dict(sorted(self._responses_by_status.items())),
            },
            "cluster": self.pool.stats(),
        }

    def _count_request(self, route_key: str) -> None:
        self._requests_by_route[route_key] = self._requests_by_route.get(route_key, 0) + 1

    def _count_response(self, status: int) -> None:
        key = str(status)
        self._responses_by_status[key] = self._responses_by_status.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    # Backend I/O
    # ------------------------------------------------------------------ #
    async def _forward(self, key: str, payload: Mapping[str, Any]) -> list[dict[str, Any]]:
        """One routed NDJSON exchange, run off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            self._io_pool, self.pool.request, key, payload
        )

    async def _probe(self, address: str) -> bool:
        """One TCP liveness probe, recorded into the pool's health state."""

        def connect() -> bool:
            host, port = self.pool._clients[address].host, self.pool._clients[address].port
            try:
                with socket.create_connection(
                    (host, port), timeout=min(self.pool.timeout, _PROBE_TIMEOUT_S)
                ):
                    return True
            except OSError:
                return False

        up = await asyncio.get_running_loop().run_in_executor(self._io_pool, connect)
        self.pool.mark_probe(address, up=up)
        return up

    # ------------------------------------------------------------------ #
    # Connection handling (the gateway's loop, with the router's tables)
    # ------------------------------------------------------------------ #
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one HTTP connection (keep-alive) until EOF or close."""
        try:
            while True:
                try:
                    if self.idle_timeout is None:
                        request = await _read_request(reader, self.max_body_bytes)
                    else:
                        request = await asyncio.wait_for(
                            _read_request(reader, self.max_body_bytes),
                            timeout=self.idle_timeout,
                        )
                except asyncio.TimeoutError:
                    self._count_request("idle_timeout")
                    break
                except _HttpError as exc:
                    self._count_request("unparsed")
                    await self._write_json(
                        writer, exc.status, {"ok": False, "error": str(exc)}, keep_alive=False
                    )
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away; nothing left to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, RuntimeError):
                pass

    async def _dispatch(self, request: _HttpRequest, writer: asyncio.StreamWriter) -> bool:
        method, path = request.method, request.path
        handler = ROUTES.get((method, path))
        self._count_request(f"{method} {path}" if handler else "unmatched")
        keep_alive = request.keep_alive
        if handler is None:
            allowed = sorted({m for m, p in ROUTES if p == path})
            if allowed:
                await self._write_json(
                    writer,
                    405,
                    {"ok": False, "error": f"method {method} not allowed for {path}"},
                    keep_alive=keep_alive,
                    extra_headers=(("Allow", ", ".join(allowed)),),
                )
            else:
                await self._write_json(
                    writer, 404, {"ok": False, "error": f"no route for {path}"},
                    keep_alive=keep_alive,
                )
            return keep_alive
        try:
            if handler == "healthz":
                await self._healthz(writer, keep_alive)
            elif handler == "metrics":
                self._count_response(200)
                body = metrics_text(self.stats()).encode()
                await write_http_response(
                    writer, 200, body, _METRICS_CONTENT_TYPE,
                    keep_alive=keep_alive, reasons=ROUTER_STATUS_REASONS,
                )
            elif handler == "predict":
                status, document = await self._predict(request.body)
                await self._write_json(writer, status, document, keep_alive=keep_alive)
            elif handler == "predict_batch":
                status, document = await self._predict_batch(request.body)
                await self._write_json(writer, status, document, keep_alive=keep_alive)
            else:  # campaign
                keep_alive = await self._campaign(request, writer, keep_alive)
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as exc:  # a handler bug must not kill the listener
            await self._write_json(
                writer, 500, {"ok": False, "error": f"internal error: {exc}"},
                keep_alive=False,
            )
            return False
        return keep_alive

    # ------------------------------------------------------------------ #
    # Route handlers
    # ------------------------------------------------------------------ #
    async def _healthz(self, writer: asyncio.StreamWriter, keep_alive: bool) -> None:
        probes = await asyncio.gather(
            *(self._probe(address) for address in self.pool.backends)
        )
        backends = dict(zip(self.pool.backends, probes))
        any_up = any(probes)
        await self._write_json(
            writer,
            200 if any_up else 503,
            {"ok": any_up, "backends": backends},
            keep_alive=keep_alive,
        )

    def _parse_body(self, body: bytes) -> Any:
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"bad JSON body: {exc}") from None

    async def _predict(self, body: bytes) -> tuple[int, dict[str, Any]]:
        try:
            payload = self._parse_body(body)
        except _HttpError as exc:
            return exc.status, {"ok": False, "error": str(exc)}
        if isinstance(payload, Mapping) and payload.get("op", "predict") != "predict":
            return 400, {
                "id": payload.get("id"),
                "ok": False,
                "error": f"unsupported op {payload.get('op')!r} for /v1/predict"
                " (campaigns go to /v1/campaign)",
            }
        document = await self._forward_predict(payload)
        if document.get("ok"):
            return 200, document
        if document.get("error_kind") == "unavailable":
            return 503, document
        return (500 if document.get("error_kind") == "internal" else 400), document

    async def _forward_predict(self, payload: Any) -> dict[str, Any]:
        """Route one predict request; transport exhaustion becomes a document."""
        request_id = payload.get("id") if isinstance(payload, Mapping) else None
        try:
            documents = await self._forward(_canonical_key("route-predict", payload), payload)
        except RemoteUnavailableError as exc:
            return {
                "id": request_id, "ok": False,
                "error": f"no backend available: {exc}", "error_kind": "unavailable",
            }
        return documents[-1] if documents else {
            "id": request_id, "ok": False,
            "error": "backend returned no response", "error_kind": "unavailable",
        }

    async def _predict_batch(self, body: bytes) -> tuple[int, dict[str, Any]]:
        try:
            payload = self._parse_body(body)
        except _HttpError as exc:
            return exc.status, {"ok": False, "error": str(exc)}
        requests = payload.get("requests") if isinstance(payload, Mapping) else payload
        if not isinstance(requests, list):
            return 400, {
                "ok": False,
                "error": "body must be {\"requests\": [...]} or a JSON array",
            }
        if not requests:
            return 400, {"ok": False, "error": "predict_batch needs at least one request"}
        # Each element shards independently — one HTTP batch fans out across
        # the whole cluster — and responses return in request order.
        documents = await asyncio.gather(
            *(self._forward_predict(request) for request in requests)
        )
        ok = all(document.get("ok") for document in documents)
        return 200, {"ok": ok, "responses": list(documents)}

    async def _campaign(
        self, request: _HttpRequest, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        try:
            payload = self._parse_body(request.body)
        except _HttpError as exc:
            await self._write_json(
                writer, exc.status, {"ok": False, "error": str(exc)}, keep_alive=keep_alive
            )
            return keep_alive
        if not isinstance(payload, Mapping):
            await self._write_json(
                writer, 400, {"ok": False, "error": "request must be a JSON object"},
                keep_alive=keep_alive,
            )
            return keep_alive
        # Validate fully before committing to a 200 (the gateway's contract):
        # the parse also resolves the default workload list and the campaign
        # object the summary is rebuilt around.
        try:
            campaign, workloads = await asyncio.get_running_loop().run_in_executor(
                None, parse_campaign_request, payload, self.config
            )
        except RequestError as exc:
            await self._write_json(
                writer,
                400,
                {"id": payload.get("id"), "ok": False, "error": str(exc)},
                keep_alive=keep_alive,
            )
            return keep_alive

        self._count_response(200)
        writer.write(
            (
                f"HTTP/1.1 200 {ROUTER_STATUS_REASONS[200]}\r\n"
                f"Content-Type: {_NDJSON_CONTENT_TYPE}\r\n"
                "Transfer-Encoding: chunked\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n"
            ).encode()
        )
        await writer.drain()

        async def write_chunk(document: Mapping[str, Any]) -> None:
            data = json.dumps(document).encode() + b"\n"
            writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
            await writer.drain()

        try:
            final = await self._run_sharded_campaign(
                payload, campaign, workloads, write_chunk
            )
            await write_chunk(final)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception:
            # The 200 header (and possibly rows) are on the wire; closing
            # without the terminating 0-chunk is the client's error signal
            # (the gateway's contract).
            return False
        return keep_alive

    async def _run_sharded_campaign(
        self,
        payload: Mapping[str, Any],
        campaign: Any,
        workloads: tuple[str, ...],
        write_chunk: "Callable[[Mapping[str, Any]], Any]",
    ) -> dict[str, Any]:
        """Fan one campaign out as per-workload sub-requests; merge in order.

        Every sub-request inherits the original request's knobs but names a
        single workload and pins ``executor: serial`` on the backend — one
        workload needs no process pool of its own.  Sub-requests run
        concurrently; rows are written in campaign (workload) order because
        each sub-exchange is buffered by the pool, so the merge is a simple
        in-order await over the launched tasks.
        """
        request_id = payload.get("id")
        base = {
            key: value
            for key, value in payload.items()
            if key not in ("id", "workloads", "executor")
        }
        base["op"] = "campaign"
        base["executor"] = "serial"

        async def run_one(workload: str) -> list[dict[str, Any]]:
            sub = dict(base)
            sub["workloads"] = [workload]
            return await self._forward(_canonical_key("route-campaign", sub), sub)

        tasks = [asyncio.ensure_future(run_one(workload)) for workload in workloads]
        rows: list[dict[str, Any]] = []
        caches: dict[str, dict[str, int]] = {}
        try:
            for workload, task in zip(workloads, tasks):
                try:
                    documents = await task
                except RemoteUnavailableError as exc:
                    return {
                        "id": request_id, "ok": False,
                        "error": f"campaign shard {workload!r} failed: no backend "
                        f"available: {exc}",
                        "error_kind": "unavailable",
                    }
                summary_doc = documents[-1] if documents else {}
                if not summary_doc.get("ok", False):
                    return {
                        "id": request_id, "ok": False,
                        "error": f"campaign shard {workload!r} failed: "
                        f"{summary_doc.get('error', 'empty backend response')}",
                        "error_kind": summary_doc.get("error_kind", "internal"),
                    }
                for document in documents[:-1]:
                    row = document.get("row")
                    if row is None:
                        continue
                    rows.append(row)
                    await write_chunk(
                        {"id": request_id, "ok": True, "op": "campaign", "row": row}
                    )
                engine = summary_doc.get("summary", {}).get("engine", {})
                if isinstance(engine, Mapping):
                    _merge_caches(caches, engine.get("caches", {}) or {})
        finally:
            for task in tasks:
                task.cancel()

        summary = self._rebuild_summary(campaign, rows)
        summary["engine"] = {
            "executor": "route",
            "workloads": len(workloads),
            "caches": caches,
            "cluster": self.pool.stats(),
        }
        return {
            "id": request_id,
            "ok": True,
            "op": "campaign",
            "done": True,
            "rows": len(rows),
            "summary": summary,
        }

    @staticmethod
    def _rebuild_summary(campaign: Any, rows: list[dict[str, Any]]) -> dict[str, Any]:
        """The final summary document, rebuilt from the merged row payloads.

        Goes through the same :class:`~repro.runner.campaign.CampaignResult`
        and :func:`repro.runner.io.campaign_result_payload` machinery a
        single host uses, so the aggregate statistics are bit-identical to
        an unsharded run over the same rows.
        """
        from repro.runner.campaign import CampaignResult, CampaignRow
        from repro.runner.io import campaign_result_payload

        result = CampaignResult(
            machine=campaign.machine.name,
            measurement_cores=campaign.measurement_cores,
            rows=tuple(
                CampaignRow(
                    workload=row["workload"],
                    max_errors_pct=dict(row["max_errors_pct"]),
                    baseline_errors_pct=dict(row["baseline_errors_pct"]),
                    behaviour_correct=bool(row["behaviour_correct"]),
                )
                for row in rows
            ),
            target_labels=tuple(campaign.targets),
        )
        return campaign_result_payload(result)

    # ------------------------------------------------------------------ #
    # Response writing
    # ------------------------------------------------------------------ #
    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        document: Mapping[str, Any],
        *,
        keep_alive: bool,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._count_response(status)
        await write_json_response(
            writer, status, document,
            keep_alive=keep_alive, extra_headers=extra_headers,
            reasons=ROUTER_STATUS_REASONS,
        )


# --------------------------------------------------------------------------- #
# Transport
# --------------------------------------------------------------------------- #


async def serve_route(
    router: Router,
    host: str,
    port: int,
    *,
    on_listening: "Callable[[tuple[str, int]], None] | None" = None,
) -> None:
    """Serve router HTTP connections on a TCP listener until cancelled.

    The exact shape of :func:`repro.engine.gateway.serve_http`: ``port`` 0
    binds an ephemeral port and ``on_listening`` receives the bound
    ``(host, port)`` (the CLI announces it, tests connect to it).
    """
    http_server = await asyncio.start_server(router.handle_connection, host=host, port=port)
    if on_listening is not None:
        bound = http_server.sockets[0].getsockname()
        on_listening((bound[0], bound[1]))
    async with http_server:
        await http_server.serve_forever()
