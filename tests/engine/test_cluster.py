"""Tests for the cluster subsystem (`repro.engine.cluster`).

Pinned contracts:

* **placement** — the consistent-hash ring is a pure function: exact
  placements are frozen here, two instances always agree, and removing a
  node only moves the keys that node owned;
* **determinism** — campaign rows produced through the `estima route`
  front-end are bit-identical to the serial single-host reference
  (`estima campaign --json`), including under an injected backend failure:
  rows appear exactly once, in order, with no duplicates or drops;
* **failover** — the backend pool retries the key's owner with exponential
  backoff, then fails over along the ring; hosts that exhaust their budget
  are marked down and deferred, and an error *document* never triggers
  failover (every replica would answer the same);
* **cache shipping** — `estima cache export` / `import` round-trips a
  warm store between hosts (schema-checked, digest-verified, optionally
  ring-filtered to one shard's slice), and a warm-started host re-fits
  zero kernels;
* **strict metrics** — `flatten_stats` raises on a non-numeric leaf
  instead of silently dropping it from `/metrics`.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro.cli import main
from repro.core import EstimaConfig, EstimaPredictor
from repro.engine.cluster.archive import (
    ARCHIVE_SCHEMA_VERSION,
    export_store,
    import_archive,
)
from repro.engine.cluster.remote import (
    BackendPool,
    RemoteUnavailableError,
    parse_backends,
    parse_remote_retries,
    parse_remote_timeout,
)
from repro.engine.cluster.ring import DEFAULT_VNODES, HashRing
from repro.engine.cluster.router import Router, _canonical_key, serve_route
from repro.engine.executor import parse_executor_spec
from repro.engine.gateway import flatten_stats
from repro.engine.pool import parse_idle_timeout
from repro.engine.server import PredictionServer, serve_tcp
from repro.engine.store import store_for

CAMPAIGN_CORE_COUNTS = [1, 2, 3, 4, 6, 8, 10, 12, 16, 20]
CAMPAIGN_TARGETS = {"half": 16, "full": 20}
CAMPAIGN_WORKLOADS = ["genome", "blackscholes"]

PINNED_NODES = ("10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070")


@pytest.fixture(autouse=True)
def _no_estima_env(monkeypatch):
    """Cluster behaviour under test must come from the test, not the shell."""
    import os

    for name in list(os.environ):
        if name.startswith("ESTIMA_"):
            monkeypatch.delenv(name)


def _free_port() -> int:
    """A port that was just free — connecting to it is refused, fast."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _batch_campaign_reference(workloads: list[str]) -> dict:
    """The single-host serial reference: `estima campaign --json` in-process."""
    import contextlib
    import io

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(
            [
                "campaign",
                "--machine", "xeon20",
                "--measure-cores", "10",
                "--workloads", ",".join(workloads),
                "--core-counts", ",".join(str(c) for c in CAMPAIGN_CORE_COUNTS),
                "--targets", "half=16,full=20",
                "--json",
            ]
        )
    assert code == 0
    return json.loads(stdout.getvalue())


@pytest.fixture(scope="module")
def batch():
    return _batch_campaign_reference(CAMPAIGN_WORKLOADS)


@pytest.fixture(scope="module")
def measured(xeon20_simulator):
    from repro.workloads import get_workload

    sweep = xeon20_simulator.sweep(
        get_workload("genome"), core_counts=[1, 2, 3, 4, 6, 8, 10]
    )
    return sweep.restrict_to(10)


# --------------------------------------------------------------------------- #
# In-process server harnesses (asyncio loop on a background thread)
# --------------------------------------------------------------------------- #


class _AsyncServer:
    """Run one asyncio serve coroutine on a background thread."""

    def __init__(self, serve_coro_factory, on_stopped=None) -> None:
        self._factory = serve_coro_factory
        self._on_stopped = on_stopped
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def body():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            task = self._loop.create_task(
                self._factory(
                    lambda addr: (setattr(self, "address", addr), self._ready.set())
                )
            )
            await self._stop.wait()
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            if self._on_stopped is not None:
                await self._on_stopped()

        asyncio.run(body())

    def __enter__(self) -> "_AsyncServer":
        self._thread.start()
        assert self._ready.wait(timeout=30), "server did not come up"
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


def _tcp_backend(server: PredictionServer) -> _AsyncServer:
    return _AsyncServer(
        lambda on_listening: serve_tcp(server, "127.0.0.1", 0, on_listening=on_listening),
        on_stopped=server.stop,
    )


class _RouterServer(_AsyncServer):
    def __init__(self, router: Router) -> None:
        super().__init__(
            lambda on_listening: serve_route(
                router, "127.0.0.1", 0, on_listening=on_listening
            )
        )
        self.router = router

    def __exit__(self, *exc_info) -> None:
        super().__exit__(*exc_info)
        self.router.close()


def _http_request(address, method, path, body=None, timeout=600):
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body))
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


# --------------------------------------------------------------------------- #
# Hash ring
# --------------------------------------------------------------------------- #


class TestHashRing:
    def test_pinned_placement(self):
        """Exact placements are part of the protocol: shipped shard slices
        and router sharding must agree across versions and machines."""
        ring = HashRing(PINNED_NODES)
        assert ring.node_for("deadbeef") == "10.0.0.3:7070"
        assert ring.nodes_for("genome") == (
            "10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070",
        )
        assert ring.nodes_for("intruder") == (
            "10.0.0.2:7070", "10.0.0.3:7070", "10.0.0.1:7070",
        )
        assert ring.nodes_for("alpha") == (
            "10.0.0.3:7070", "10.0.0.2:7070", "10.0.0.1:7070",
        )

    def test_deterministic_across_instances(self):
        a = HashRing(PINNED_NODES)
        b = HashRing(list(PINNED_NODES))
        keys = [f"key-{i}" for i in range(64)]
        assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]
        assert [a.nodes_for(k) for k in keys] == [b.nodes_for(k) for k in keys]

    def test_consistency_on_node_removal(self):
        """Removing a node only moves the keys that node owned."""
        full = HashRing(PINNED_NODES)
        removed = PINNED_NODES[1]
        reduced = HashRing([n for n in PINNED_NODES if n != removed])
        for i in range(200):
            key = f"key-{i}"
            owner = full.node_for(key)
            if owner != removed:
                assert reduced.node_for(key) == owner, key

    def test_failover_order_covers_all_nodes_once(self):
        ring = HashRing(PINNED_NODES)
        for i in range(50):
            order = ring.nodes_for(f"key-{i}")
            assert sorted(order) == sorted(PINNED_NODES)
            assert order[0] == ring.node_for(f"key-{i}")

    def test_distribution_touches_every_node(self):
        ring = HashRing(PINNED_NODES)
        owners = {ring.node_for(f"key-{i}") for i in range(200)}
        assert owners == set(PINNED_NODES)

    def test_vnodes_shape_and_len(self):
        ring = HashRing(PINNED_NODES, vnodes=8)
        assert len(ring) == 3
        assert set(iter(ring)) == set(PINNED_NODES)
        assert "vnodes=8" in repr(ring)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a:1", "a:1"])
        with pytest.raises(ValueError):
            HashRing(["a:1"], vnodes=0)


# --------------------------------------------------------------------------- #
# Spec / config parsing
# --------------------------------------------------------------------------- #


class TestParsing:
    def test_parse_backends_normalises(self):
        assert parse_backends(" 10.0.0.1:7070 , 10.0.0.2:7071 ") == (
            "10.0.0.1:7070", "10.0.0.2:7071",
        )

    def test_parse_backends_rejects(self):
        for bad in ("", " , ", "nonsense", "host:0", "a:1,a:1", "host:notaport"):
            with pytest.raises(ValueError):
                parse_backends(bad)
        with pytest.raises(ValueError, match="port 0"):
            parse_backends("host:0")

    def test_parse_remote_timeout_and_retries(self):
        assert parse_remote_timeout("2.5") == 2.5
        assert parse_remote_retries("0") == 0
        for bad in ("0", "-1", "soon"):
            with pytest.raises(ValueError):
                parse_remote_timeout(bad)
        for bad in ("-1", "few"):
            with pytest.raises(ValueError):
                parse_remote_retries(bad)

    def test_parse_idle_timeout(self):
        assert parse_idle_timeout("1.5") == 1.5
        assert parse_idle_timeout(0) == 0.0
        for bad in ("-1", "nan", "soon"):
            with pytest.raises(ValueError):
                parse_idle_timeout(bad)

    def test_executor_spec_remote(self):
        """The ``remote:`` executor is gone; ``estima route`` shards campaigns."""
        for spec in ("remote", "remote:127.0.0.1:7070", "remote:a:1,b:2"):
            with pytest.raises(ValueError, match="unknown executor"):
                parse_executor_spec(spec)

    def test_config_field_validation(self):
        with pytest.raises(ValueError, match="route_backends"):
            EstimaConfig(route_backends="nonsense")
        with pytest.raises(ValueError, match="remote_timeout"):
            EstimaConfig(remote_timeout=0)
        with pytest.raises(ValueError, match="remote_retries"):
            EstimaConfig(remote_retries=-1)
        with pytest.raises(ValueError, match="serve_idle_timeout"):
            EstimaConfig(serve_idle_timeout=-2)
        config = EstimaConfig(
            route_backends="10.0.0.1:7070,10.0.0.2:7070",
            remote_timeout=5.0,
            remote_retries=0,
            serve_idle_timeout=30.0,
        )
        assert config.route_backends == "10.0.0.1:7070,10.0.0.2:7070"

    @pytest.mark.parametrize(
        "name, value",
        [
            ("ESTIMA_ROUTE_BACKENDS", "nonsense"),
            ("ESTIMA_REMOTE_TIMEOUT", "0"),
            ("ESTIMA_REMOTE_RETRIES", "-1"),
            ("ESTIMA_SERVE_IDLE_TIMEOUT", "-5"),
        ],
    )
    def test_env_validation_at_config_construction(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=name):
            EstimaConfig()


# --------------------------------------------------------------------------- #
# Strict /metrics flattening (satellite)
# --------------------------------------------------------------------------- #


class TestFlattenStatsStrict:
    def test_numeric_and_bool_leaves_flatten(self):
        gauges = flatten_stats({"a": {"up": True, "n": 2, "x": 1.5}})
        assert gauges == {"estima_a_up": 1.0, "estima_a_n": 2.0, "estima_a_x": 1.5}

    @pytest.mark.parametrize("leaf", ["oops", None, ["list"], ("tuple",)])
    def test_non_numeric_leaf_raises_with_path(self, leaf):
        with pytest.raises(ValueError, match="estima_outer_inner"):
            flatten_stats({"outer": {"inner": leaf}})


# --------------------------------------------------------------------------- #
# Backend pool: retries, failover, health
# --------------------------------------------------------------------------- #


class _ScriptedBackend(threading.Thread):
    """Minimal NDJSON backend whose behaviour per request is a function.

    ``script(document) -> list[dict] | None``: the response documents to
    write, or ``None`` to drop the connection without answering (a
    transport failure from the client's point of view).
    """

    def __init__(self, script) -> None:
        super().__init__(daemon=True)
        self._script = script
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._closing = threading.Event()

    def run(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                stream = conn.makefile("rwb")
                for raw in stream:
                    responses = self._script(json.loads(raw))
                    if responses is None:
                        break  # drop the connection mid-request
                    for document in responses:
                        stream.write(json.dumps(document).encode() + b"\n")
                    stream.flush()
            except (OSError, ValueError):
                pass
            finally:
                conn.close()

    def close(self) -> None:
        self._closing.set()
        try:
            self._listener.close()
        except OSError:
            pass


def _key_owned_by(pool: BackendPool, address: str) -> str:
    """Some key the given backend owns (the ring is uniform; 100 tries ample)."""
    for i in range(100):
        key = f"probe-key-{i}"
        if pool.ring.node_for(key) == address:
            return key
    raise AssertionError(f"no probe key owned by {address}")


class TestBackendPool:
    def test_failover_after_owner_death(self):
        """The owner's budget is exhausted (with backoff), then the next
        ring node serves the request; the dead host is marked down."""
        alive = _ScriptedBackend(lambda doc: [{"id": doc.get("id"), "ok": True, "echo": 1}])
        alive.start()
        dead_address = f"127.0.0.1:{_free_port()}"
        sleeps: list[float] = []
        pool = BackendPool(
            [dead_address, alive.address],
            retries=2,
            backoff_base_s=0.001,
            sleep=sleeps.append,
        )
        try:
            key = _key_owned_by(pool, dead_address)
            documents = pool.request(key, {"id": 41})
            assert documents == [{"id": 41, "ok": True, "echo": 1}]
            # 1 + retries attempts on the dead owner, exponential backoff.
            assert sleeps == [0.001, 0.002]
            stats = pool.stats()
            assert stats["routed_requests"] == 1
            assert stats["failovers"] == 1
            assert stats["backends_up"] == 1
            assert stats["per_backend"][dead_address]["up"] is False
            assert stats["per_backend"][dead_address]["retries"] == 2
            assert stats["per_backend"][alive.address]["up"] is True
            assert not pool.host_up(dead_address)
        finally:
            pool.close()
            alive.close()

    def test_down_host_deferred_then_healed_by_probe(self):
        alive = _ScriptedBackend(lambda doc: [{"id": doc.get("id"), "ok": True}])
        alive.start()
        dead_address = f"127.0.0.1:{_free_port()}"
        pool = BackendPool(
            [dead_address, alive.address], retries=0, backoff_base_s=0.0,
            sleep=lambda s: None,
        )
        try:
            key = _key_owned_by(pool, dead_address)
            pool.request(key, {"id": 1})
            assert not pool.host_up(dead_address)
            # Down hosts are deferred: the same key now goes straight to the
            # live host, with no additional failover hop counted.
            before = pool.stats()["failovers"]
            pool.request(key, {"id": 2})
            assert pool.stats()["failovers"] == before
            pool.mark_probe(dead_address, up=True)
            assert pool.host_up(dead_address)
        finally:
            pool.close()
            alive.close()

    def test_error_document_does_not_fail_over(self):
        """A server-*reported* error is deterministic across replicas: the
        pool returns it instead of hammering the other backends."""
        def error_script(doc):
            return [{"id": doc.get("id"), "ok": False, "error": "boom", "error_kind": "request"}]

        erroring = _ScriptedBackend(error_script)
        erroring.start()
        healthy = _ScriptedBackend(lambda doc: [{"id": doc.get("id"), "ok": True}])
        healthy.start()
        pool = BackendPool([erroring.address, healthy.address], retries=0)
        try:
            key = _key_owned_by(pool, erroring.address)
            [document] = pool.request(key, {"id": 7})
            assert document["ok"] is False and document["error"] == "boom"
            assert pool.stats()["failovers"] == 0
            assert pool.host_up(erroring.address)  # transport-healthy
        finally:
            pool.close()
            erroring.close()
            healthy.close()

    def test_all_backends_exhausted_raises(self):
        pool = BackendPool(
            [f"127.0.0.1:{_free_port()}", f"127.0.0.1:{_free_port()}"],
            retries=0, backoff_base_s=0.0, sleep=lambda s: None,
        )
        try:
            with pytest.raises(RemoteUnavailableError, match="2 backend"):
                pool.request("any-key", {"id": 1})
        finally:
            pool.close()

    def test_streamed_campaign_exchange_is_buffered_whole(self):
        """One campaign exchange returns row docs plus the final document —
        the unit of failover the router relies on for exactly-once rows."""
        def campaign_script(doc):
            return [
                {"id": doc.get("id"), "ok": True, "op": "campaign", "row": {"workload": "w"}},
                {"id": doc.get("id"), "ok": True, "op": "campaign", "done": True, "rows": 1},
            ]

        backend = _ScriptedBackend(campaign_script)
        backend.start()
        pool = BackendPool([backend.address])
        try:
            documents = pool.request("k", {"id": 3, "op": "campaign"})
            assert len(documents) == 2
            assert documents[0]["row"] == {"workload": "w"}
            assert documents[1]["done"] is True
        finally:
            pool.close()
            backend.close()


# --------------------------------------------------------------------------- #
# Idle timeout (satellite)
# --------------------------------------------------------------------------- #


class TestIdleTimeout:
    def test_resolution_kwarg_config_env(self, monkeypatch):
        assert PredictionServer(EstimaConfig()).idle_timeout is None
        assert PredictionServer(EstimaConfig(), idle_timeout=1.5).idle_timeout == 1.5
        assert PredictionServer(EstimaConfig(), idle_timeout=0).idle_timeout is None
        assert (
            PredictionServer(EstimaConfig(serve_idle_timeout=2.5)).idle_timeout == 2.5
        )
        monkeypatch.setenv("ESTIMA_SERVE_IDLE_TIMEOUT", "3.5")
        assert PredictionServer(EstimaConfig()).idle_timeout == 3.5
        # Explicit settings beat the environment.
        assert PredictionServer(EstimaConfig(), idle_timeout=1.0).idle_timeout == 1.0

    def test_server_closes_idle_connection(self):
        server = PredictionServer(EstimaConfig(), idle_timeout=0.2)
        with _tcp_backend(server) as tcp:
            sock = socket.create_connection(tcp.address, timeout=30)
            try:
                sock.settimeout(30)
                assert sock.recv(1) == b""  # server closed the idle stream
            finally:
                sock.close()

    def test_connection_with_inflight_work_survives_idle_timeout(self):
        """The timeout is for *idle* connections: one waiting on a slow
        campaign must not be cut while responses are still owed."""
        server = PredictionServer(EstimaConfig(), idle_timeout=0.3)
        with _tcp_backend(server) as tcp:
            sock = socket.create_connection(tcp.address, timeout=600)
            try:
                stream = sock.makefile("rwb")
                request = {
                    "id": "slow", "op": "campaign", "machine": "xeon20",
                    "measure_cores": 10, "targets": CAMPAIGN_TARGETS,
                    "workloads": ["genome"], "core_counts": CAMPAIGN_CORE_COUNTS,
                }
                stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                documents = []
                for raw in stream:
                    documents.append(json.loads(raw))
                    if documents[-1].get("done") or not documents[-1].get("ok"):
                        break
                assert documents[-1]["ok"] and documents[-1]["done"]
            finally:
                sock.close()

    def test_gateway_counts_idle_closes(self):
        from repro.engine.gateway import HttpGateway, serve_http

        gateway = HttpGateway(PredictionServer(EstimaConfig()), idle_timeout=0.2)
        harness = _AsyncServer(
            lambda on_listening: serve_http(
                gateway, "127.0.0.1", 0, on_listening=on_listening
            ),
            on_stopped=gateway.server.stop,
        )
        with harness:
            sock = socket.create_connection(harness.address, timeout=30)
            try:
                sock.settimeout(30)
                assert sock.recv(1) == b""
            finally:
                sock.close()
        assert gateway.stats()["http"]["requests_by_route"]["idle_timeout"] == 1


def _summary_without_engine(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k != "engine"}


# --------------------------------------------------------------------------- #
# Router: sharded HTTP front-end
# --------------------------------------------------------------------------- #


def _campaign_http_request(request_id, workloads=None):
    return {
        "id": request_id,
        "machine": "xeon20",
        "measure_cores": 10,
        "targets": CAMPAIGN_TARGETS,
        "workloads": workloads or CAMPAIGN_WORKLOADS,
        "core_counts": CAMPAIGN_CORE_COUNTS,
    }


def _read_campaign_stream(address, payload):
    conn = http.client.HTTPConnection(*address, timeout=600)
    try:
        conn.request("POST", "/v1/campaign", body=json.dumps(payload))
        response = conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), [
            json.loads(line) for line in body.decode().strip().splitlines()
        ]
    finally:
        conn.close()


class TestRouter:
    def test_predict_and_campaign_bit_identical_to_single_host(
        self, measured, batch
    ):
        """The ISSUE's acceptance pin: routed responses == single-host
        serving, both built from the same runner/io helpers."""
        backend_a = PredictionServer(EstimaConfig())
        backend_b = PredictionServer(EstimaConfig())
        with _tcp_backend(backend_a) as a, _tcp_backend(backend_b) as b:
            router = Router(["%s:%d" % a.address, "%s:%d" % b.address], timeout=600.0)
            with _RouterServer(router) as routed:
                # --- predict: compare with the per-request predictor -------
                payload = {
                    "id": "p0", "target_cores": 20, "measurements": measured.to_dict(),
                }
                status, _, body = _http_request(
                    routed.address, "POST", "/v1/predict", payload
                )
                assert status == 200
                document = json.loads(body)
                direct = EstimaPredictor(EstimaConfig()).predict(
                    measured, target_cores=20
                )
                assert document["ok"] and document["id"] == "p0"
                assert document["result"]["predicted_times_s"] == [
                    float(t) for t in direct.predicted_times
                ]

                # --- predict_batch: order preserved, multi-status ----------
                status, _, body = _http_request(
                    routed.address, "POST", "/v1/predict_batch",
                    {"requests": [payload | {"id": "b0"}, {"id": "bad", "target_cores": 4}]},
                )
                assert status == 200
                document = json.loads(body)
                assert [r["id"] for r in document["responses"]] == ["b0", "bad"]
                assert [r["ok"] for r in document["responses"]] == [True, False]
                assert document["ok"] is False

                # --- campaign: sharded rows == `estima campaign --json` ----
                status, headers, documents = _read_campaign_stream(
                    routed.address, _campaign_http_request("c0")
                )
                assert status == 200
                assert headers.get("Content-Type") == "application/x-ndjson"
                *rows, final = documents
                assert final["ok"] and final["done"]
                assert final["rows"] == len(CAMPAIGN_WORKLOADS)
                assert [r["row"]["workload"] for r in rows] == CAMPAIGN_WORKLOADS
                for streamed, batch_row in zip(rows, batch["rows"]):
                    assert json.dumps(streamed["row"], sort_keys=True) == json.dumps(
                        batch_row, sort_keys=True
                    )
                summary = final["summary"]
                assert json.dumps(
                    _summary_without_engine(summary), sort_keys=True
                ) == json.dumps(_summary_without_engine(batch), sort_keys=True)
                assert summary["engine"]["executor"] == "route"
                assert summary["engine"]["workloads"] == len(CAMPAIGN_WORKLOADS)

                # Both backends actually carried traffic for this test to
                # mean anything; campaign sub-requests shard by digest.
                cluster = summary["engine"]["cluster"]
                assert cluster["routed_requests"] >= len(CAMPAIGN_WORKLOADS)

                # --- healthz / metrics aggregation -------------------------
                status, _, body = _http_request(routed.address, "GET", "/healthz")
                health = json.loads(body)
                assert status == 200 and health["ok"]
                assert set(health["backends"]) == set(router.pool.backends)
                assert all(health["backends"].values())

                status, _, body = _http_request(routed.address, "GET", "/metrics")
                assert status == 200
                parsed = {}
                for line in body.decode().splitlines():
                    if line and not line.startswith("#"):
                        name, value = line.rsplit(" ", 1)
                        parsed[name] = float(value)
                snapshot = flatten_stats(router.stats())
                assert set(parsed) == set(snapshot)
                for name, value in snapshot.items():
                    assert parsed[name] == value, name
                assert parsed["estima_cluster_backends_up"] == 2.0
                assert parsed["estima_router_requests_by_route_get_metrics"] == 1.0

    def test_error_statuses_and_validation(self):
        backend = PredictionServer(EstimaConfig())
        with _tcp_backend(backend) as b:
            router = Router(["%s:%d" % b.address], max_body_bytes=4096, timeout=600.0)
            with _RouterServer(router) as routed:
                status, _, body = _http_request(routed.address, "GET", "/nope")
                assert status == 404 and not json.loads(body)["ok"]
                status, headers, _ = _http_request(routed.address, "GET", "/v1/predict")
                assert status == 405 and "POST" in headers.get("Allow", "")
                status, _, body = _http_request(
                    routed.address, "POST", "/v1/predict",
                    {"id": 1, "op": "campaign"}, timeout=60,
                )
                assert status == 400 and "/v1/campaign" in json.loads(body)["error"]
                # Invalid campaigns are rejected with a real 400 before any
                # chunk is streamed (the gateway's contract).
                status, headers, body = _http_request(
                    routed.address, "POST", "/v1/campaign",
                    {"id": "x", "machine": "not-a-machine"}, timeout=60,
                )
                assert status == 400
                assert headers.get("Transfer-Encoding") != "chunked"
                assert not json.loads(body)["ok"]
                status, _, body = _http_request(
                    routed.address, "POST", "/v1/predict",
                    {"id": 1, "padding": "x" * 8192}, timeout=60,
                )
                assert status == 413

    def test_all_backends_down_healthz_503_predict_503(self, measured):
        router = Router(
            [f"127.0.0.1:{_free_port()}", f"127.0.0.1:{_free_port()}"],
            retries=0, timeout=5.0,
        )
        with _RouterServer(router) as routed:
            status, _, body = _http_request(routed.address, "GET", "/healthz", timeout=60)
            health = json.loads(body)
            assert status == 503 and not health["ok"]
            assert not any(health["backends"].values())
            status, _, body = _http_request(
                routed.address, "POST", "/v1/predict",
                {"id": 1, "target_cores": 20, "measurements": measured.to_dict()},
            )
            assert status == 503
            document = json.loads(body)
            assert document["error_kind"] == "unavailable"
            assert "no backend available" in document["error"]


class _DyingProxy(threading.Thread):
    """Protocol-aware NDJSON proxy that dies after N whole exchanges.

    Relays complete request/response exchanges to an upstream backend,
    serving connections strictly one at a time; once the exchange budget is
    spent it closes its listener and every socket.  Clients queued behind it
    see a clean transport failure *before any response byte*, which is
    exactly the failover-safe shape the pool retries.
    """

    def __init__(self, upstream: tuple[str, int], exchanges: int) -> None:
        super().__init__(daemon=True)
        self._upstream = upstream
        self._budget = exchanges
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self.served = 0

    def run(self) -> None:
        while self.served < self._budget:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                client = conn.makefile("rwb")
                while self.served < self._budget:
                    raw = client.readline()
                    if not raw:
                        break
                    with socket.create_connection(self._upstream, timeout=600) as up:
                        up_stream = up.makefile("rwb")
                        up_stream.write(raw)
                        up_stream.flush()
                        for response in up_stream:
                            client.write(response)
                            client.flush()
                            document = json.loads(response)
                            if "done" in document or document.get("ok") is False:
                                break
                    self.served += 1
            except (OSError, ValueError):
                pass
            finally:
                conn.close()
        self._listener.close()

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


class TestRouterFailover:
    def test_backend_dies_mid_campaign_rows_exactly_once(self):
        """Satellite pin: a backend that dies mid-campaign costs nothing but
        a failover — every row still arrives exactly once, in order, bit-
        identical to the single-host reference."""
        backend = PredictionServer(EstimaConfig())
        with _tcp_backend(backend) as live:
            live_address = "%s:%d" % live.address
            proxy = _DyingProxy(live.address, exchanges=1)
            proxy.start()
            router = Router([proxy.address, live_address], retries=0, timeout=600.0)

            # Choose workloads by their actual shard placement so the dying
            # backend is guaranteed traffic: the sub-request key below is the
            # same construction `Router._run_sharded_campaign` uses.
            from repro.workloads import WORKLOADS

            preferred = ["genome", "blackscholes", "kmeans", "ssca2", "labyrinth"]
            candidates = preferred + sorted(set(WORKLOADS) - set(preferred))

            def owner_of(workload: str) -> str:
                sub = dict(_campaign_http_request(None, workloads=[workload]))
                del sub["id"]
                sub["op"] = "campaign"
                sub["executor"] = "serial"
                return router.pool.ring.node_for(_canonical_key("route-campaign", sub))

            proxy_owned = [w for w in candidates if owner_of(w) == proxy.address]
            live_owned = [w for w in candidates if owner_of(w) == live_address]
            assert len(proxy_owned) >= 2 and len(live_owned) >= 1, (
                proxy_owned, live_owned,
            )
            workloads = [proxy_owned[0], live_owned[0], proxy_owned[1]]

            try:
                with _RouterServer(router) as routed:
                    status, _, documents = _read_campaign_stream(
                        routed.address, _campaign_http_request("f0", workloads=workloads)
                    )
            finally:
                proxy.close()

        assert status == 200
        *rows, final = documents
        assert final["ok"] and final["done"] and final["rows"] == len(workloads)
        # Exactly once, in campaign order: any drop, duplicate or reorder
        # breaks this equality.
        assert [r["row"]["workload"] for r in rows] == workloads

        # Bit-identity against the single-host serial reference.
        reference = _batch_campaign_reference(workloads)
        for streamed, batch_row in zip(rows, reference["rows"]):
            assert json.dumps(streamed["row"], sort_keys=True) == json.dumps(
                batch_row, sort_keys=True
            )
        summary = final["summary"]
        assert json.dumps(
            _summary_without_engine(summary), sort_keys=True
        ) == json.dumps(_summary_without_engine(reference), sort_keys=True)

        # The death was observed: at least one shard failed over to the
        # survivor, and the dead backend ended the campaign marked down.
        cluster = summary["engine"]["cluster"]
        assert cluster["failovers"] >= 1
        assert cluster["per_backend"][proxy.address]["up"] is False
        assert cluster["per_backend"][live_address]["up"] is True
        # At most one exchange went through the proxy before it died.
        assert proxy.served <= 1


# --------------------------------------------------------------------------- #
# Cache shipping (export / import)
# --------------------------------------------------------------------------- #


class TestArchive:
    @staticmethod
    def _seed_store(root) -> tuple:
        store = store_for(root)
        entries = {}
        for region in ("fit", "extrapolation"):
            for i in range(6):
                key = f"{region}key{i:02d}" * 4  # store keys are digest-like
                value = {"region": region, "i": i, "curve": [float(i), 2.0 * i]}
                assert store.put(region, key, value)
                entries[(region, key)] = value
        return store, entries

    def test_round_trip_all_entries(self, tmp_path):
        store, entries = self._seed_store(tmp_path / "host_a")
        archive = tmp_path / "warm.tar.gz"
        summary = export_store(store, archive)
        assert summary["entries"] == len(entries)
        assert summary["skipped"] == 0
        assert summary["archive_schema"] == ARCHIVE_SCHEMA_VERSION

        target = store_for(tmp_path / "host_b")
        result = import_archive(archive, target)
        assert result["imported"] == len(entries)
        assert result["skipped_invalid"] == 0 and result["skipped_other_shard"] == 0
        for (region, key), value in entries.items():
            assert target.get(region, key) == value

    def test_region_filtered_export(self, tmp_path):
        store, entries = self._seed_store(tmp_path / "host_a")
        archive = tmp_path / "fits-only.tar.gz"
        summary = export_store(store, archive, regions=["fit"])
        assert summary["regions"] == {"fit": 6}
        target = store_for(tmp_path / "host_b")
        result = import_archive(archive, target)
        assert result["regions"] == {"fit": 6}

    def test_ring_filtered_import_partitions_exactly(self, tmp_path):
        """Each shard imports exactly its ring slice; the slices partition
        the archive (no overlap, no gaps) and agree with the pure ring."""
        store, entries = self._seed_store(tmp_path / "host_a")
        archive = tmp_path / "warm.tar.gz"
        export_store(store, archive)
        ring = HashRing(PINNED_NODES)
        imported_by_node = {}
        for node in PINNED_NODES:
            target = store_for(tmp_path / f"shard_{node.replace(':', '_')}")
            result = import_archive(archive, target, ring=ring, node=node)
            assert result["imported"] + result["skipped_other_shard"] == len(entries)
            owned = {
                (region, key)
                for (region, key) in entries
                if ring.node_for(key) == node
            }
            for region, key in owned:
                assert target.get(region, key) == entries[(region, key)]
            imported_by_node[node] = result["imported"]
        assert sum(imported_by_node.values()) == len(entries)

    def test_ring_filter_validation(self, tmp_path):
        store, _ = self._seed_store(tmp_path / "host_a")
        archive = tmp_path / "warm.tar.gz"
        export_store(store, archive)
        target = store_for(tmp_path / "host_b")
        ring = HashRing(PINNED_NODES)
        with pytest.raises(ValueError, match="both a ring and a node"):
            import_archive(archive, target, ring=ring)
        with pytest.raises(ValueError, match="both a ring and a node"):
            import_archive(archive, target, node=PINNED_NODES[0])
        with pytest.raises(ValueError, match="not on the ring"):
            import_archive(archive, target, ring=ring, node="other:1")

    def test_schema_mismatch_refused(self, tmp_path):
        import tarfile as tarfile_mod

        archive = tmp_path / "stale.tar.gz"
        manifest = json.dumps(
            {"archive_schema": 99, "store_schema": 1, "entries": 0, "regions": {}}
        ).encode()
        with tarfile_mod.open(archive, "w:gz") as tar:
            import io as io_mod

            info = tarfile_mod.TarInfo(name="manifest.json")
            info.size = len(manifest)
            tar.addfile(info, io_mod.BytesIO(manifest))
        with pytest.raises(ValueError, match="archive schema"):
            import_archive(archive, store_for(tmp_path / "host_b"))
        with pytest.raises(ValueError, match="not a cache archive"):
            import_archive(tmp_path / "missing.tar.gz", store_for(tmp_path / "b2"))

    def test_tampered_entry_skipped(self, tmp_path):
        """A member whose embedded digest does not match its path is counted
        and skipped — never stored under the wrong key."""
        import tarfile as tarfile_mod

        store, entries = self._seed_store(tmp_path / "host_a")
        archive = tmp_path / "warm.tar.gz"
        export_store(store, archive)
        tampered = tmp_path / "tampered.tar.gz"
        import io as io_mod

        with tarfile_mod.open(archive, "r:gz") as src, tarfile_mod.open(
            tampered, "w:gz"
        ) as dst:
            renamed = 0
            for member in src:
                blob = src.extractfile(member).read()
                if not renamed and member.name.startswith("fit/"):
                    # Same payload under a different key: the embedded
                    # digest no longer matches the member's path.
                    member.name = "fit/" + "f" * 32 + ".entry"
                    renamed = 1
                member.size = len(blob)
                dst.addfile(member, io_mod.BytesIO(blob))
        target = store_for(tmp_path / "host_b")
        result = import_archive(tampered, target)
        assert result["skipped_invalid"] == 1
        assert result["imported"] == len(entries) - 1

    def test_warm_restart_refits_zero_kernels(self, tmp_path):
        """Satellite pin: export host A's fit cache, import on host B — a
        cold process on B re-fits zero kernels (every fit is a disk hit)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent.parent / "src"
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("ESTIMA_")
        }
        env["PYTHONPATH"] = str(src)
        host_a = tmp_path / "host_a_cache"
        host_b = tmp_path / "host_b_cache"

        def run_campaign(cache_dir: Path) -> dict:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "campaign",
                    "--machine", "xeon20",
                    "--measure-cores", "10",
                    "--workloads", "genome",
                    "--core-counts", ",".join(str(c) for c in CAMPAIGN_CORE_COUNTS),
                    "--targets", "half=16,full=20",
                    "--fit-cache", "--cache-dir", str(cache_dir),
                    "--json",
                ],
                capture_output=True, text=True, env=env, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        cold = run_campaign(host_a)
        cold_fit = cold["engine"]["caches"]["fit"]
        assert cold_fit["disk_misses"] > 0  # host A actually fitted kernels

        archive = tmp_path / "warm-fits.tar.gz"
        export_store(store_for(host_a), archive)
        import_archive(archive, store_for(host_b))

        warm = run_campaign(host_b)
        warm_caches = warm["engine"]["caches"]
        # Zero recomputation in either region: the shipped extrapolation
        # entries hit first (short-circuiting the fit stage entirely), so
        # the hits land there while both regions' miss counters stay zero.
        assert warm_caches["fit"]["disk_misses"] == 0  # zero kernels re-fitted
        assert warm_caches["extrapolation"]["disk_misses"] == 0
        total_disk_hits = sum(c["disk_hits"] for c in warm_caches.values())
        assert total_disk_hits > 0  # served from the shipped archive
        # And the rows did not change because of where the fits came from.
        assert json.dumps(warm["rows"], sort_keys=True) == json.dumps(
            cold["rows"], sort_keys=True
        )
