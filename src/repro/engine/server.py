"""Async serving front-end over the batched :class:`PredictionService`.

``estima serve`` turns the one-shot CLI pipeline into a long-lived prediction
server: an asyncio front-end accepts JSON requests over a local (unix) socket
or stdin/stdout, coalesces concurrent requests into micro-batches, and serves
them from one shared :class:`~repro.engine.service.PredictionService` — so
the service's content-addressed dedup (and, when enabled, the tiered
fit/extrapolation caches underneath it) applies *across clients*, not only
within one call.

Protocol (newline-delimited JSON, one object per line in both directions).
A request's ``"op"`` selects the operation; it defaults to ``"predict"``:

predict request::

    {"id": 7, "target_cores": 48, "baseline": false,
     "measurements": {... MeasurementSet.to_dict() ...},   # or:
     "workload": "intruder", "machine": "opteron48", "measure_cores": 12,
     "config": {"checkpoints": 2, "use_software_stalls": true, ...}}

predict response::

    {"id": 7, "ok": true, "result": {... same schema as `estima predict
     --json`: repro.runner.io.prediction_payload ...}}
    {"id": 7, "ok": false, "error": "..."}                 # on bad requests

campaign request (a Table-4 style run, streamed row by row)::

    {"id": 8, "op": "campaign", "machine": "xeon20", "measure_cores": 10,
     "targets": {"half": 16, "full": 20},                  # label -> cores
     "workloads": ["genome", "blackscholes"],              # default: Table 4
     "core_counts": [1, 2, 4, 8, 16, 20],                  # optional sweep
     "executor": "parallel:2",                             # optional backend
     "config": {...}}                                      # numeric knobs

campaign responses — one line per finished (workload x targets) row, in
campaign order, then a final summary line::

    {"id": 8, "ok": true, "op": "campaign", "row": {... one element of
     `estima campaign --json`'s "rows", bit-identical to batch output ...}}
    {"id": 8, "ok": true, "op": "campaign", "done": true, "rows": 2,
     "summary": {... repro.runner.io.campaign_result_payload ...}}

Responses are written in request order per connection (requests are still
*dispatched* concurrently, so they coalesce in the micro-batcher): clients
never observe dropped, duplicated or reordered responses, and a streamed
campaign's rows appear contiguously at that request's position.

Micro-batching: the batcher waits up to ``batch_window_ms`` after the first
queued request for more to arrive, up to ``max_batch`` per
:meth:`~repro.engine.service.PredictionService.predict_batch` call.  The
service runs ``share_max_target=False``, so every served prediction is
bit-identical to a standalone :class:`~repro.core.predictor.EstimaPredictor`
run at that exact target (pinned by tests); batching buys dedup of identical
requests and shared cache warm-up, never different numbers.

Backpressure: requests park in a bounded queue; when it is full, new
submissions (and therefore connection reads) block until the batcher drains —
a slow pipeline slows clients down instead of growing memory without bound.

Transports: stdio (:func:`serve_stdio`), unix socket (:func:`serve_unix`) and
TCP (:func:`serve_tcp`, ``estima serve --tcp HOST:PORT``) all speak this
protocol through :meth:`PredictionServer.handle_stream`; the
:class:`~repro.engine.pool.WorkerPool` supervisor puts N forked copies of
this server behind one listening socket, and the HTTP gateway
(:mod:`repro.engine.gateway`, ``estima serve --http``) maps HTTP routes onto
the same submit paths.

Concurrency / crash-safety invariants of this module:

* **Ordered-response writer.** Each connection's responses are serialised by
  :class:`_OrderedResponseWriter`: request ``seq`` owns write slot ``seq``
  and hands the stream to ``seq + 1`` only when finished, so dispatch stays
  concurrent (micro-batching is preserved) while clients observe strict
  FIFO responses — never a drop, duplicate or reorder, and a streamed
  campaign's rows stay contiguous at that request's position.
* **Bounded intake.** The request queue and the per-connection in-flight
  semaphore are both bounded by ``serve_queue_limit``; when the pipeline
  falls behind, reads stop and clients block instead of the server growing
  without bound.
* **Failure containment.** A malformed request, a failed batch and a failed
  campaign are each reported on their own request id; the batcher task,
  other requests and other connections keep running.  A client that
  disconnects mid-campaign aborts that campaign at the next row boundary.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Mapping

from repro.core.config import EstimaConfig
from repro.core.measurement import MeasurementSet
from repro.testing.syncpoints import sync_point_async

from .service import PredictionRequest, PredictionService

__all__ = [
    "SUPPORTED_OPS",
    "ServerMetrics",
    "PredictionServer",
    "parse_request",
    "parse_campaign_request",
    "serve_stdio",
    "serve_unix",
    "serve_tcp",
]

#: Every ``"op"`` value the NDJSON protocol accepts.  Dispatch in
#: :meth:`PredictionServer.handle_stream` and the doc-sync test both walk
#: this tuple, so an undocumented op fails CI.
SUPPORTED_OPS = ("predict", "campaign")

#: ``config`` keys a request may override (numerics-affecting knobs only;
#: engine knobs stay under server control).
_REQUEST_CONFIG_FIELDS = (
    "kernel_names",
    "checkpoints",
    "min_prefix",
    "use_software_stalls",
    "use_frontend_stalls",
    "frequency_ratio",
    "dataset_ratio",
    "max_extrapolation_factor",
)


class RequestError(ValueError):
    """A malformed prediction request (reported to the client, not fatal)."""


class _CampaignAbandoned(Exception):
    """Raised inside a campaign thread to stop a run whose client is gone."""


def _config_with_overrides(payload: Mapping[str, Any], base_config: EstimaConfig) -> EstimaConfig:
    """Apply a request's ``config`` overrides (numeric knobs only) strictly."""
    overrides = payload.get("config") or {}
    if not overrides:
        return base_config
    if not isinstance(overrides, Mapping):
        raise RequestError("'config' must be a JSON object")
    unknown = set(overrides) - set(_REQUEST_CONFIG_FIELDS)
    if unknown:
        raise RequestError(f"unsupported config overrides: {sorted(unknown)}")
    changes = dict(overrides)
    if "kernel_names" in changes:
        changes["kernel_names"] = tuple(changes["kernel_names"])
    try:
        return base_config.with_(**changes)
    except (KeyError, TypeError, ValueError) as exc:
        raise RequestError(f"invalid config overrides: {exc}") from None


def parse_request(payload: Mapping[str, Any], base_config: EstimaConfig) -> PredictionRequest:
    """Validate one JSON request and build the service-layer request.

    Measurements come inline (``"measurements"``, the ``MeasurementSet``
    JSON schema that ``estima measure`` writes) or are simulated on demand
    from ``"workload"``/``"machine"`` (+ optional ``"measure_cores"``) — the
    same two sources ``estima predict`` accepts.
    """
    if not isinstance(payload, Mapping):
        raise RequestError("request must be a JSON object")
    try:
        target_cores = int(payload["target_cores"])
    except KeyError:
        raise RequestError("request needs 'target_cores'") from None
    except (TypeError, ValueError):
        raise RequestError(f"invalid 'target_cores': {payload.get('target_cores')!r}") from None

    config = _config_with_overrides(payload, base_config)

    if "measurements" in payload:
        try:
            measurements = MeasurementSet.from_dict(payload["measurements"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RequestError(f"invalid 'measurements': {exc}") from None
    elif payload.get("workload") and payload.get("machine"):
        measurements = _simulate(
            str(payload["workload"]),
            str(payload["machine"]),
            payload.get("measure_cores"),
        )
    else:
        raise RequestError(
            "request needs either 'measurements' or both 'workload' and 'machine'"
        )

    measure_cores = payload.get("measure_cores")
    if measure_cores is not None:
        try:
            measurements = measurements.restrict_to(int(measure_cores))
        except (TypeError, ValueError) as exc:
            raise RequestError(f"invalid 'measure_cores': {exc}") from None

    try:
        return PredictionRequest(
            measurements=measurements,
            target_cores=target_cores,
            baseline=bool(payload.get("baseline", False)),
            config=config,
        )
    except ValueError as exc:
        raise RequestError(str(exc)) from None


def _simulate(workload: str, machine: str, measure_cores: Any) -> MeasurementSet:
    # Simulation pulls in the workload registry and machine models; importing
    # lazily keeps `repro.engine` free of an eager engine -> simulation edge.
    from repro.machine.machines import get_machine
    from repro.simulation import MachineSimulator
    from repro.workloads.registry import get_workload

    try:
        spec = get_machine(machine)
        target = get_workload(workload)
    except KeyError as exc:
        raise RequestError(str(exc)) from None
    cores = int(measure_cores) if measure_cores is not None else spec.total_threads
    return MachineSimulator(spec).sweep(
        target, core_counts=[c for c in spec.core_counts() if c <= cores]
    )


def parse_campaign_request(
    payload: Mapping[str, Any], base_config: EstimaConfig
) -> tuple[Any, tuple[str, ...]]:
    """Validate one ``{"op": "campaign"}`` request.

    Returns ``(campaign, workload_names)`` where ``campaign`` is a ready
    :class:`~repro.runner.campaign.ErrorCampaign` — the exact object the CLI
    builds for ``estima campaign``, so streamed rows are the batch rows.
    Unlike predict requests, a campaign may name its ``executor`` backend:
    backends change wall time, never numbers (pinned by tests).
    """
    # Imported lazily like _simulate: keeps `import repro.engine` free of an
    # eager engine -> runner/workloads edge.
    from repro.machine.machines import get_machine
    from repro.runner.campaign import ErrorCampaign
    from repro.workloads.registry import TABLE4_WORKLOADS, WORKLOADS

    if not isinstance(payload, Mapping):
        raise RequestError("request must be a JSON object")
    machine_name = payload.get("machine")
    if not machine_name:
        raise RequestError("campaign request needs 'machine'")
    try:
        machine = get_machine(str(machine_name))
    except KeyError as exc:
        raise RequestError(str(exc)) from None
    try:
        measure_cores = int(payload["measure_cores"])
    except KeyError:
        raise RequestError("campaign request needs 'measure_cores'") from None
    except (TypeError, ValueError):
        raise RequestError(
            f"invalid 'measure_cores': {payload.get('measure_cores')!r}"
        ) from None
    targets_raw = payload.get("targets")
    if not isinstance(targets_raw, Mapping) or not targets_raw:
        raise RequestError(
            "campaign request needs 'targets': a non-empty object of label -> target cores"
        )
    try:
        targets = {str(label): int(cores) for label, cores in targets_raw.items()}
    except (TypeError, ValueError):
        raise RequestError(f"invalid 'targets': {targets_raw!r}") from None

    workloads_raw = payload.get("workloads")
    if workloads_raw is None:
        workloads = tuple(TABLE4_WORKLOADS)
    else:
        if isinstance(workloads_raw, str):
            workloads = tuple(w.strip() for w in workloads_raw.split(",") if w.strip())
        elif isinstance(workloads_raw, (list, tuple)):
            workloads = tuple(str(w) for w in workloads_raw)
        else:
            raise RequestError("'workloads' must be a list of names or a comma-separated string")
        if not workloads:
            raise RequestError("campaign request needs at least one workload")
        unknown = [w for w in workloads if w not in WORKLOADS]
        if unknown:
            raise RequestError(f"unknown workloads: {', '.join(unknown)}")

    core_counts = payload.get("core_counts")
    if core_counts is not None:
        try:
            core_counts = [int(c) for c in core_counts]
        except (TypeError, ValueError):
            raise RequestError(f"invalid 'core_counts': {payload.get('core_counts')!r}") from None

    executor = payload.get("executor")
    if executor is not None:
        from .executor import parse_executor_spec

        executor = str(executor)
        try:
            parse_executor_spec(executor)
        except ValueError as exc:
            raise RequestError(str(exc)) from None

    config = _config_with_overrides(payload, base_config)
    campaign = ErrorCampaign(
        machine=machine,
        measurement_cores=measure_cores,
        targets=targets,
        config=config,
        core_counts=core_counts,
        executor=executor,
    )
    return campaign, workloads


def result_payload(prediction: Any) -> dict:
    """The response document for one prediction (shared CLI/server schema)."""
    from repro.core.result import ScalabilityPrediction
    from repro.runner.io import baseline_payload, prediction_payload

    if isinstance(prediction, ScalabilityPrediction):
        return prediction_payload(prediction)
    return baseline_payload(prediction)


@dataclass
class ServerMetrics:
    """Throughput/latency/batching counters of one server instance."""

    requests: int = 0
    responses: int = 0
    errors: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch_size: int = 0
    campaigns: int = 0
    campaign_rows: int = 0
    total_latency_s: float = 0.0
    max_latency_s: float = 0.0
    started_at: float = field(default_factory=time.perf_counter)

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_requests += size
        self.max_batch_size = max(self.max_batch_size, size)

    def record_latency(self, seconds: float) -> None:
        self.responses += 1
        self.total_latency_s += seconds
        self.max_latency_s = max(self.max_latency_s, seconds)

    def as_dict(self) -> dict[str, object]:
        elapsed = max(time.perf_counter() - self.started_at, 1e-9)
        return {
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "batches": self.batches,
            "mean_batch_size": (self.batched_requests / self.batches) if self.batches else 0.0,
            "max_batch_size": self.max_batch_size,
            "campaigns": self.campaigns,
            "campaign_rows": self.campaign_rows,
            "throughput_rps": self.responses / elapsed,
            "mean_latency_ms": (
                1000.0 * self.total_latency_s / self.responses if self.responses else 0.0
            ),
            "max_latency_ms": 1000.0 * self.max_latency_s,
        }


@dataclass
class _Pending:
    """One parsed request waiting for (or being served by) the batcher."""

    request: PredictionRequest
    future: "asyncio.Future[Any]"
    enqueued_at: float


class _OrderedResponseWriter:
    """Serialise one connection's response lines in request order.

    Each request owns one *slot* (its arrival sequence number).  Slot ``seq``
    may write any number of lines — a predict writes one, a streamed campaign
    writes a row line per result plus the summary — and :meth:`finish` hands
    the stream to slot ``seq + 1``.  Requests still *execute* concurrently;
    only the writes are ordered, so micro-batching across a connection's
    requests is preserved while clients see strict FIFO responses.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._next = 0
        self._cond = asyncio.Condition()

    async def write(self, seq: int, document: Mapping[str, Any]) -> None:
        await sync_point_async("server.writer.write")
        async with self._cond:
            await self._cond.wait_for(lambda: self._next == seq)
            self._writer.write(json.dumps(document).encode() + b"\n")
            await self._writer.drain()

    async def finish(self, seq: int) -> None:
        await sync_point_async("server.writer.finish")
        async with self._cond:
            await self._cond.wait_for(lambda: self._next == seq)
            self._next = seq + 1
            self._cond.notify_all()


class PredictionServer:
    """Micro-batching asyncio front-end over one :class:`PredictionService`.

    Parameters mirror the ``serve_*`` knobs of :class:`EstimaConfig` (the
    config's values are the defaults).  The pipeline itself runs in a worker
    thread (`run_in_executor`), so the event loop keeps accepting and
    coalescing requests while a batch computes.
    """

    def __init__(
        self,
        config: EstimaConfig | None = None,
        *,
        service: PredictionService | None = None,
        max_batch: int | None = None,
        batch_window_ms: float | None = None,
        queue_limit: int | None = None,
        idle_timeout: float | None = None,
    ) -> None:
        self.config = config or EstimaConfig()
        # share_max_target=False: served numbers must be bit-identical to a
        # standalone per-request EstimaPredictor run (the serving contract).
        self.service = service or PredictionService(self.config, share_max_target=False)
        self.max_batch = max_batch if max_batch is not None else self.config.serve_max_batch
        window = (
            batch_window_ms if batch_window_ms is not None else self.config.serve_batch_window_ms
        )
        self.batch_window_s = window / 1000.0
        self.queue_limit = queue_limit if queue_limit is not None else self.config.serve_queue_limit
        # Idle/read timeout: explicit kwarg, else the config field, else
        # ESTIMA_SERVE_IDLE_TIMEOUT.  Stored as None when disabled (0/unset)
        # so read loops can gate on a single attribute.
        from .pool import parse_idle_timeout, serve_idle_timeout_from_env

        if idle_timeout is None:
            idle_timeout = self.config.serve_idle_timeout
            if idle_timeout is None:
                idle_timeout = serve_idle_timeout_from_env()
        self.idle_timeout = (
            parse_idle_timeout(idle_timeout) if idle_timeout is not None else 0.0
        ) or None
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_ms must be >= 0")
        self.metrics = ServerMetrics()
        self._queue: "asyncio.Queue[_Pending] | None" = None
        self._batcher: "asyncio.Task[None] | None" = None
        self._campaign_pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the batcher task (idempotent; bound to the running loop)."""
        if self._batcher is None:
            self._queue = asyncio.Queue(maxsize=self.queue_limit)
            self.metrics.started_at = time.perf_counter()
            self._batcher = asyncio.get_running_loop().create_task(self._batch_loop())

    async def stop(self) -> None:
        """Cancel the batcher; queued requests get a server-shutdown error."""
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        if self._queue is not None:
            while not self._queue.empty():
                pending = self._queue.get_nowait()
                if not pending.future.done():
                    pending.future.set_exception(RuntimeError("server shutting down"))
            self._queue = None
        if self._campaign_pool is not None:
            # Queued (not yet started) campaigns are dropped; running ones
            # finish in the background rather than blocking shutdown.
            self._campaign_pool.shutdown(wait=False, cancel_futures=True)
            self._campaign_pool = None

    def _campaign_executor(self) -> ThreadPoolExecutor:
        """The dedicated pool campaign requests run on (created lazily).

        Separate from the event loop's default executor on purpose: the
        micro-batcher and request parsing run there, and minutes-long
        campaigns sharing that pool would starve every predict request.
        Campaigns beyond the pool size queue behind each other instead.
        """
        if self._campaign_pool is None:
            self._campaign_pool = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="estima-campaign"
            )
        return self._campaign_pool

    def stats(self) -> dict[str, object]:
        """Throughput/latency counters plus the service's per-tier cache stats.

        Includes the engine profiler's per-stage fit timings (design/
        non-linear solves, screening, scoring — see
        :mod:`repro.engine.profiling`); every leaf is numeric, so the whole
        snapshot flattens into ``/metrics`` gauges unchanged.
        """
        from repro.engine.profiling import PROFILER

        return {
            "server": self.metrics.as_dict(),
            "batching": {
                "max_batch": self.max_batch,
                "batch_window_ms": self.batch_window_s * 1000.0,
                "queue_limit": self.queue_limit,
            },
            "caches": self.service.cache_stats(),
            "profile": PROFILER.snapshot(),
        }

    # ------------------------------------------------------------------ #
    # Request paths
    # ------------------------------------------------------------------ #
    async def submit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Serve one JSON request object; returns the JSON response object."""
        await self.start()
        assert self._queue is not None
        request_id = payload.get("id") if isinstance(payload, Mapping) else None
        self.metrics.requests += 1
        try:
            # Parsing can simulate a measurement sweep (workload/machine
            # requests), which is CPU-heavy — keep it off the event loop so
            # other clients' requests keep coalescing meanwhile.
            request = await asyncio.get_running_loop().run_in_executor(
                None, parse_request, payload, self.config
            )
        except RequestError as exc:
            self.metrics.errors += 1
            return {
                "id": request_id, "ok": False, "error": str(exc), "error_kind": "request",
            }
        pending = _Pending(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=time.perf_counter(),
        )
        await sync_point_async("server.submit.enqueue")
        await self._queue.put(pending)  # blocks when full: backpressure
        try:
            prediction = await pending.future
        except Exception as exc:  # pipeline errors are per-batch, not fatal
            self.metrics.errors += 1
            # error_kind tells transports whose fault this was: "request"
            # errors are the client's (HTTP 400), "internal" the server's
            # (HTTP 500) — retry policies must see the difference.
            return {
                "id": request_id, "ok": False, "error": str(exc), "error_kind": "internal",
            }
        self.metrics.record_latency(time.perf_counter() - pending.enqueued_at)
        return {"id": request_id, "ok": True, "result": result_payload(prediction)}

    async def submit_campaign(
        self,
        payload: Mapping[str, Any],
        *,
        on_row: "Callable[[dict[str, Any]], Awaitable[None]] | None" = None,
    ) -> dict[str, Any]:
        """Serve one streamed ``campaign`` request.

        The campaign runs in the server's dedicated campaign thread pool
        (never the event loop's default executor, which the micro-batcher
        needs — long campaigns must not starve predict traffic); every
        finished row is pushed back to the event loop and awaited through
        ``on_row`` as a progress document (``{"id": ..., "ok": true, "op":
        "campaign", "row": ...}``) in campaign order.  Returns the final
        summary response.  Row payloads are built by
        :func:`repro.runner.io.campaign_row_payload` — the same helper
        ``estima campaign --json`` uses — so streamed rows are bit-identical
        to batch output (pinned by tests).  If the client disconnects
        mid-stream the campaign is abandoned at the next row boundary
        instead of burning CPU to completion.
        """
        await self.start()
        request_id = payload.get("id") if isinstance(payload, Mapping) else None
        self.metrics.requests += 1
        loop = asyncio.get_running_loop()
        try:
            campaign, workloads = await loop.run_in_executor(
                None, parse_campaign_request, payload, self.config
            )
        except RequestError as exc:
            self.metrics.errors += 1
            return {
                "id": request_id, "ok": False, "error": str(exc), "error_kind": "request",
            }
        self.metrics.campaigns += 1
        started = time.perf_counter()
        queue: "asyncio.Queue[tuple[str, Any]]" = asyncio.Queue()
        abandoned = threading.Event()

        def run_campaign() -> None:
            from repro.runner.io import campaign_row_payload

            def post_row(row: Any) -> None:
                if abandoned.is_set():
                    raise _CampaignAbandoned()
                loop.call_soon_threadsafe(
                    queue.put_nowait, ("row", campaign_row_payload(row))
                )

            try:
                result = campaign.run(workloads, on_row=post_row)
            except _CampaignAbandoned:
                loop.call_soon_threadsafe(queue.put_nowait, ("abandoned", None))
            except Exception as exc:  # reported per request, never fatal
                loop.call_soon_threadsafe(queue.put_nowait, ("error", exc))
            else:
                loop.call_soon_threadsafe(queue.put_nowait, ("done", result))

        worker = loop.run_in_executor(self._campaign_executor(), run_campaign)
        rows_emitted = 0
        try:
            while True:
                kind, value = await queue.get()
                if kind == "row":
                    rows_emitted += 1
                    self.metrics.campaign_rows += 1
                    if on_row is not None and not abandoned.is_set():
                        try:
                            await on_row(
                                {"id": request_id, "ok": True, "op": "campaign", "row": value}
                            )
                        except (ConnectionResetError, BrokenPipeError):
                            # Client is gone: stop the campaign at the next
                            # row boundary, then drain to its final message.
                            abandoned.set()
                elif kind == "abandoned":
                    self.metrics.errors += 1
                    return {
                        "id": request_id,
                        "ok": False,
                        "error": "campaign abandoned: client disconnected",
                        "error_kind": "disconnect",
                    }
                elif kind == "error":
                    self.metrics.errors += 1
                    return {
                        "id": request_id,
                        "ok": False,
                        "error": f"campaign failed: {value}",
                        "error_kind": "internal",
                    }
                else:  # done
                    result = value
                    break
        finally:
            await worker
        from repro.runner.io import campaign_result_payload

        summary = campaign_result_payload(result)
        summary["engine"] = result.engine_stats
        self.metrics.record_latency(time.perf_counter() - started)
        return {
            "id": request_id,
            "ok": True,
            "op": "campaign",
            "done": True,
            "rows": rows_emitted,
            "summary": summary,
        }

    async def handle_stream(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one NDJSON client connection until EOF.

        Lines are dispatched concurrently, so one connection still benefits
        from micro-batching, but responses are *written* in request order:
        a client never observes dropped, duplicated or reordered responses,
        and a streamed campaign's row lines appear contiguously at that
        request's position (pinned by the concurrency stress test).
        """
        await self.start()
        tasks: set[asyncio.Task] = set()
        responses = _OrderedResponseWriter(writer)
        # Cap the per-connection in-flight work: without it a fast client
        # could have the read loop spawn a task (holding its parsed payload)
        # for every line long before the batcher drains any of them, and the
        # bounded queue's backpressure would never reach the client.
        in_flight = asyncio.Semaphore(self.queue_limit)

        async def respond(seq: int, line: bytes) -> None:
            try:
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    self.metrics.requests += 1
                    self.metrics.errors += 1
                    await responses.write(
                        seq,
                        {
                            "id": None, "ok": False,
                            "error": f"bad JSON: {exc}", "error_kind": "request",
                        },
                    )
                    return
                op = payload.get("op", "predict") if isinstance(payload, Mapping) else "predict"
                if op not in SUPPORTED_OPS:
                    self.metrics.requests += 1
                    self.metrics.errors += 1
                    await responses.write(
                        seq,
                        {
                            "id": payload.get("id"), "ok": False,
                            "error": f"unknown op: {op!r}", "error_kind": "request",
                        },
                    )
                elif op == "campaign":
                    final = await self.submit_campaign(
                        payload, on_row=lambda doc: responses.write(seq, doc)
                    )
                    await responses.write(seq, final)
                else:  # predict
                    await responses.write(seq, await self.submit(payload))
            except (ConnectionResetError, BrokenPipeError):
                pass  # client went away mid-response; reader sees EOF next
            finally:
                await responses.finish(seq)
                in_flight.release()

        try:
            seq = 0
            while True:
                if self.idle_timeout is not None:
                    try:
                        line = await asyncio.wait_for(
                            reader.readline(), timeout=self.idle_timeout
                        )
                    except asyncio.TimeoutError:
                        if tasks:
                            continue  # responses in flight: peer is waiting on us
                        break  # idle peer: free the connection slot
                else:
                    line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                await in_flight.acquire()  # stops reading when saturated
                task = asyncio.get_running_loop().create_task(respond(seq, line))
                seq += 1
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            for task in tasks:
                task.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, RuntimeError):
                pass

    # ------------------------------------------------------------------ #
    # Micro-batcher
    # ------------------------------------------------------------------ #
    async def _batch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        batch: list[_Pending] = []
        try:
            while True:
                batch = [await self._queue.get()]
                await sync_point_async("server.batch.first")
                deadline = loop.time() + self.batch_window_s
                # Coalesce: wait out the latency window (or until the batch is
                # full) so concurrent clients land in one predict_batch call
                # and dedup applies across them.
                while len(batch) < self.max_batch:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(await asyncio.wait_for(self._queue.get(), remaining))
                    except asyncio.TimeoutError:
                        break
                await sync_point_async("server.batch.formed")
                self.metrics.record_batch(len(batch))
                requests = [pending.request for pending in batch]
                try:
                    predictions = await loop.run_in_executor(
                        None, self.service.predict_batch, requests
                    )
                except Exception as exc:
                    for pending in batch:
                        if not pending.future.done():
                            pending.future.set_exception(
                                RuntimeError(f"prediction failed: {exc}")
                            )
                    continue
                for pending, prediction in zip(batch, predictions):
                    if not pending.future.done():
                        pending.future.set_result(prediction)
                batch = []
        except asyncio.CancelledError:
            # stop() drains the queue, but the batch popped here would
            # otherwise be abandoned with its submitters awaiting forever.
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(RuntimeError("server shutting down"))
            raise


# --------------------------------------------------------------------------- #
# Transports
# --------------------------------------------------------------------------- #


async def serve_unix(server: PredictionServer, socket_path: str) -> None:
    """Serve NDJSON connections on a unix domain socket until cancelled.

    A stale socket file from a previous (killed) server is removed before
    binding — unix sockets are not cleaned up on process death — and the
    path is unlinked again on the way out so restarts always succeed.
    """
    await server.start()
    path = Path(socket_path)
    if path.is_socket():
        path.unlink()
    unix_server = await asyncio.start_unix_server(server.handle_stream, path=socket_path)
    try:
        async with unix_server:
            await unix_server.serve_forever()
    finally:
        try:
            path.unlink()
        except OSError:
            pass


async def serve_tcp(
    server: PredictionServer,
    host: str,
    port: int,
    *,
    on_listening: "Callable[[tuple[str, int]], None] | None" = None,
) -> None:
    """Serve NDJSON connections on a TCP listener until cancelled.

    ``port`` 0 binds an ephemeral port; ``on_listening`` receives the actual
    ``(host, port)`` once the socket is bound (the CLI announces it, tests
    connect to it).
    """
    await server.start()
    tcp_server = await asyncio.start_server(server.handle_stream, host=host, port=port)
    if on_listening is not None:
        bound = tcp_server.sockets[0].getsockname()
        on_listening((bound[0], bound[1]))
    async with tcp_server:
        await tcp_server.serve_forever()


async def serve_stdio(server: PredictionServer) -> None:  # pragma: no cover
    """Serve NDJSON requests on stdin/stdout until EOF.

    Exercised end-to-end by the CLI subprocess test; as subprocess-only code
    it never appears in in-process coverage data.
    """
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    transport, protocol = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout
    )
    writer = asyncio.StreamWriter(transport, protocol, None, loop)
    await server.handle_stream(reader, writer)
