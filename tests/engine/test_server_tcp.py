"""Tests for multi-process TCP serving and streamed campaigns.

Three contracts of the serving subsystem are pinned here:

* **determinism** — campaign rows streamed over the serve protocol are
  bit-identical (same JSON payloads, same order) to batch ``estima campaign
  --json`` output, across the serial and parallel executors;
* **concurrency** — many concurrent TCP clients issuing mixed
  predict/campaign ops against a 2-worker pool observe no dropped,
  duplicated or reordered responses per connection, and the pool's merged
  per-worker counters add up to the traffic actually sent;
* **supervision** — a crashed worker is detected and replaced, and the pool
  keeps serving.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.core import EstimaConfig, EstimaPredictor
from repro.engine.pool import WorkerPool, parse_serve_workers, parse_tcp_address
from repro.engine.server import PredictionServer, serve_tcp

CAMPAIGN_CORE_COUNTS = "1,2,3,4,6,8,10,12,16,20"
CAMPAIGN_WORKLOADS = ["genome", "blackscholes"]
CAMPAIGN_TARGETS = {"half": 16, "full": 20}


@pytest.fixture(scope="module")
def measured(xeon20_simulator):
    from repro.workloads import get_workload

    sweep = xeon20_simulator.sweep(
        get_workload("genome"), core_counts=[1, 2, 3, 4, 6, 8, 10]
    )
    return sweep.restrict_to(10)


def _campaign_request(request_id, executor=None, workloads=None):
    payload = {
        "id": request_id,
        "op": "campaign",
        "machine": "xeon20",
        "measure_cores": 10,
        "targets": CAMPAIGN_TARGETS,
        "workloads": workloads or CAMPAIGN_WORKLOADS,
        "core_counts": [int(c) for c in CAMPAIGN_CORE_COUNTS.split(",")],
    }
    if executor is not None:
        payload["executor"] = executor
    return payload


def _client_roundtrip(address, lines: list[str]) -> list[dict]:
    """Send NDJSON lines over one TCP connection; return all response docs."""
    sock = socket.create_connection(address, timeout=600)
    try:
        stream = sock.makefile("rwb")
        for line in lines:
            stream.write(line.encode() + b"\n")
        stream.flush()
        sock.shutdown(socket.SHUT_WR)
        return [json.loads(line) for line in stream]
    finally:
        sock.close()


class TestParseHelpers:
    def test_tcp_address_host_port(self):
        assert parse_tcp_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert parse_tcp_address("0.0.0.0:0") == ("0.0.0.0", 0)

    def test_tcp_address_ipv6_brackets(self):
        assert parse_tcp_address("[::1]:9000") == ("::1", 9000)

    def test_tcp_address_rejects_malformed(self):
        for bad in ("nonsense", "8000", ":8000", "host:", "host:abc", "host:-1", "host:65536", "[]:1"):
            with pytest.raises(ValueError):
                parse_tcp_address(bad)

    def test_serve_workers_parses_and_rejects(self):
        assert parse_serve_workers("4") == 4
        assert parse_serve_workers(0) == 0
        with pytest.raises(ValueError, match="ESTIMA_SERVE_WORKERS"):
            parse_serve_workers("many", source="ESTIMA_SERVE_WORKERS")
        with pytest.raises(ValueError):
            parse_serve_workers(-2)


class _TcpServer:
    """In-process (single worker) asyncio TCP server driven from a thread.

    Runs the event loop in a background thread so synchronous socket clients
    (like the ones tests and real deployments use) can talk to it.
    """

    def __init__(self, server: PredictionServer) -> None:
        self.server = server
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
                serve_tcp(
                    self.server,
                    "127.0.0.1",
                    0,
                    on_listening=lambda addr: (
                        setattr(self, "address", addr),
                        self._ready.set(),
                    ),
                )
            )
            await self._stop.wait()
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            await self.server.stop()

        asyncio.run(body())

    def __enter__(self) -> "_TcpServer":
        self._thread.start()
        assert self._ready.wait(timeout=30), "TCP server did not come up"
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


class TestTcpTransport:
    def test_round_trip_and_request_order(self, measured):
        """Predict responses come back ok, bit-identical, and in request order."""
        payloads = [
            {"id": f"r{i}", "target_cores": target, "measurements": measured.to_dict()}
            for i, target in enumerate((20, 16, 20))
        ]
        with _TcpServer(PredictionServer(EstimaConfig(), batch_window_ms=20.0)) as tcp:
            responses = _client_roundtrip(tcp.address, [json.dumps(p) for p in payloads])
        assert [r["id"] for r in responses] == ["r0", "r1", "r2"]
        assert all(r["ok"] for r in responses)
        for target in (16, 20):
            direct = EstimaPredictor(EstimaConfig()).predict(measured, target_cores=target)
            for response in responses:
                if response["result"]["target_cores"] == target:
                    assert response["result"]["predicted_times_s"] == [
                        float(t) for t in direct.predicted_times
                    ]

    def test_malformed_and_unknown_op_keep_slot_order(self):
        with _TcpServer(PredictionServer(EstimaConfig())) as tcp:
            responses = _client_roundtrip(
                tcp.address,
                [
                    '{"id": 0, "target_cores": 5}',  # parse error (cheap)
                    "this is not json",
                    '{"id": 2, "op": "mystery"}',
                ],
            )
        assert [r["id"] for r in responses] == [0, None, 2]
        assert not any(r["ok"] for r in responses)
        assert "bad JSON" in responses[1]["error"]
        assert "unknown op" in responses[2]["error"]


class TestStreamedCampaignDeterminism:
    """Satellite pin: streamed rows == `estima campaign --json`, all executors."""

    @pytest.fixture(scope="class")
    def batch(self):
        """The batch reference, straight from the CLI (run once per class)."""
        import contextlib
        import io

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(
                [
                    "campaign",
                    "--machine",
                    "xeon20",
                    "--measure-cores",
                    "10",
                    "--workloads",
                    ",".join(CAMPAIGN_WORKLOADS),
                    "--core-counts",
                    CAMPAIGN_CORE_COUNTS,
                    "--targets",
                    "half=16,full=20",
                    "--json",
                ]
            )
        assert code == 0
        return json.loads(stdout.getvalue())

    @pytest.mark.parametrize("executor", [None, "parallel:2"])
    def test_streamed_rows_bit_identical_to_batch_json(self, executor, batch):
        with _TcpServer(PredictionServer(EstimaConfig())) as tcp:
            responses = _client_roundtrip(
                tcp.address, [json.dumps(_campaign_request("c", executor=executor))]
            )
        *rows, final = responses
        assert final["ok"] and final["done"] and final["rows"] == len(CAMPAIGN_WORKLOADS)
        # One row per workload, streamed in campaign (= batch) order, and
        # each streamed row is the same JSON payload as the batch row.
        assert [r["row"]["workload"] for r in rows] == CAMPAIGN_WORKLOADS
        for streamed, batch_row in zip(rows, batch["rows"]):
            assert json.dumps(streamed["row"], sort_keys=True) == json.dumps(
                batch_row, sort_keys=True
            )
        assert json.dumps(final["summary"]["rows"], sort_keys=True) == json.dumps(
            batch["rows"], sort_keys=True
        )
        assert json.dumps(final["summary"]["aggregates"], sort_keys=True) == json.dumps(
            batch["aggregates"], sort_keys=True
        )


    @pytest.mark.parametrize("executor", ["threads:2", "remote:127.0.0.1:7070"])
    def test_removed_executor_is_a_request_error(self, executor):
        with _TcpServer(PredictionServer(EstimaConfig())) as tcp:
            [response] = _client_roundtrip(
                tcp.address, [json.dumps(_campaign_request("c", executor=executor))]
            )
        assert response["id"] == "c"
        assert response["ok"] is False
        assert response["error_kind"] == "request"
        assert "unknown executor" in response["error"]


class TestWorkerPool:
    @pytest.mark.slow
    def test_concurrency_stress_no_drops_dups_or_reorders(self, tmp_path, measured):
        """Stress variant: mixed predict/campaign clients against 2 workers.

        Probabilistic by nature (real forked workers, OS scheduling); the
        deterministic scripted-schedule variant of the same per-connection
        FIFO contract is ``TestScriptedClientSchedule`` below.
        """
        config = EstimaConfig(use_fit_cache=True, cache_dir=str(tmp_path / "tier2"))
        pool = WorkerPool(
            config, workers=2, tcp="127.0.0.1:0", batch_window_ms=2.0
        ).start()
        measured_doc = measured.to_dict()
        n_clients = 6
        campaign_clients = {0, 1}  # two clients mix a campaign into their stream

        def client_lines(client: int) -> list[str]:
            lines = []
            for i, target in enumerate((16, 20, 16)):
                lines.append(
                    json.dumps(
                        {
                            "id": f"c{client}-p{i}",
                            "target_cores": target,
                            "measurements": measured_doc,
                        }
                    )
                )
                if i == 1 and client in campaign_clients:
                    lines.append(
                        json.dumps(
                            _campaign_request(f"c{client}-camp", workloads=["genome"])
                        )
                    )
            return lines

        results: dict[int, list[dict]] = {}
        errors: list[BaseException] = []

        def run_client(client: int) -> None:
            try:
                results[client] = _client_roundtrip(pool.address, client_lines(client))
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=run_client, args=(client,)) for client in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        try:
            assert not errors, errors
            assert set(results) == set(range(n_clients))
            for client, responses in results.items():
                # Reconstruct the exact expected response id sequence: one
                # response per predict, rows+final for the campaign, all in
                # request order — any drop/dup/reorder breaks the equality.
                expected: list[str] = []
                for line in client_lines(client):
                    request = json.loads(line)
                    if request.get("op") == "campaign":
                        expected.extend([request["id"]] * 2)  # 1 row + final
                    else:
                        expected.append(request["id"])
                assert [r["id"] for r in responses] == expected, f"client {client}"
                assert all(r["ok"] for r in responses), f"client {client}"
                campaign_docs = [r for r in responses if r.get("op") == "campaign"]
                if client in campaign_clients:
                    assert campaign_docs[0]["row"]["workload"] == "genome"
                    assert campaign_docs[-1]["done"] and campaign_docs[-1]["rows"] == 1

            # Merged per-worker stats add up to the traffic actually sent.
            stats = pool.stats()
            merged = stats["merged"]["server"]
            n_predicts = 3 * n_clients
            n_campaigns = len(campaign_clients)
            assert merged["requests"] == n_predicts + n_campaigns
            assert merged["responses"] == n_predicts + n_campaigns
            assert merged["errors"] == 0
            assert merged["campaigns"] == n_campaigns
            assert merged["campaign_rows"] == n_campaigns  # one workload each
            assert len(stats["per_worker"]) == 2
            assert (
                sum(w["server"]["responses"] for w in stats["per_worker"] if w)
                == merged["responses"]
            )
        finally:
            pool.stop()

    def test_scripted_client_interleaving_keeps_per_connection_fifo(self):
        """Deterministic variant of the concurrency stress: the schedule
        controller fixes the exact global order of the clients' sends, so
        the per-connection FIFO contract is checked under one scripted
        interleaving instead of whatever the OS happened to produce."""
        from repro.testing import ScheduleController, sync_point

        results: dict[str, list[dict]] = {}

        def client(tcp, name: str) -> None:
            sock = socket.create_connection(tcp.address, timeout=30)
            try:
                stream = sock.makefile("rwb")
                for i in range(2):
                    # Cheap error-path request: parse fails, id survives.
                    line = json.dumps({"id": f"{name}-{i}", "target_cores": 5})
                    stream.write(line.encode() + b"\n")
                    stream.flush()
                    sync_point("test.client.sent")
                sock.shutdown(socket.SHUT_WR)
                results[name] = [json.loads(line) for line in stream]
            finally:
                sock.close()

        with _TcpServer(PredictionServer(EstimaConfig())) as tcp:
            controller = ScheduleController(stall_timeout=0.1, deadlock_timeout=15.0)
            with controller.install():
                for name in ("a", "b", "c"):
                    controller.spawn(name, client, tcp, name)
                # First requests land c, a, b; second requests b, c, a —
                # a fixed cross-connection order no stress run guarantees.
                controller.drive([
                    "c", "a", "b",
                    "b@test.client.sent",
                    "c@test.client.sent",
                    "a@test.client.sent",
                ])
        for name in ("a", "b", "c"):
            assert [r["id"] for r in results[name]] == [f"{name}-0", f"{name}-1"]
            assert not any(r["ok"] for r in results[name])

    def test_worker_restart_on_crash(self):
        pool = WorkerPool(
            EstimaConfig(), workers=1, tcp="127.0.0.1:0", health_interval_s=0.05
        ).start()
        try:
            assert pool.ping() == [True]
            [pid] = pool.worker_pids()
            os.kill(pid, signal.SIGKILL)
            deadline = time.time() + 30
            while time.time() < deadline:
                if pool.restarts >= 1 and pool.ping() == [True]:
                    break
                time.sleep(0.05)
            assert pool.restarts >= 1
            assert pool.worker_pids() != [pid]
            # The replacement worker serves traffic (cheap request error).
            [response] = _client_roundtrip(pool.address, ['{"id": 7, "target_cores": 5}'])
            assert response["id"] == 7 and not response["ok"]
        finally:
            summary = pool.stop()
        assert summary["restarts"] >= 1

    def test_unix_socket_transport(self, tmp_path):
        socket_path = str(tmp_path / "pool.sock")
        pool = WorkerPool(
            EstimaConfig(), workers=1, unix_socket=socket_path
        ).start()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(socket_path)
            stream = sock.makefile("rwb")
            stream.write(b'{"id": 1, "target_cores": 5}\n')
            stream.flush()
            sock.shutdown(socket.SHUT_WR)
            [response] = [json.loads(line) for line in stream]
            sock.close()
            assert response["id"] == 1 and not response["ok"]
        finally:
            pool.stop()
        assert not os.path.exists(socket_path)  # cleaned up on stop

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(EstimaConfig(), workers=0, tcp="127.0.0.1:0")
        with pytest.raises(ValueError, match="exactly one"):
            WorkerPool(EstimaConfig(), workers=1)
        with pytest.raises(ValueError, match="exactly one"):
            WorkerPool(EstimaConfig(), workers=1, tcp="h:1", unix_socket="/tmp/x")


class TestServeCliTcp:
    def test_cli_tcp_worker_pool_subprocess(self, tmp_path):
        """End-to-end: `estima serve --tcp ... --workers 2` as a subprocess."""
        import re
        import subprocess
        import sys as _sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent.parent / "src"
        proc = subprocess.Popen(
            [
                _sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--stats",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            banner = proc.stderr.readline()
            match = re.search(r"serving on tcp 127\.0\.0\.1:(\d+) with 2 workers", banner)
            assert match, banner
            port = int(match.group(1))
            [response] = _client_roundtrip(("127.0.0.1", port), ['{"id": 3, "target_cores": 5}'])
            assert response["id"] == 3 and not response["ok"]
            proc.send_signal(signal.SIGINT)
            _, stderr_rest = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr_rest
        summary = json.loads(stderr_rest.strip().splitlines()[-1])
        assert summary["workers"] == 2
        assert summary["merged"]["server"]["requests"] >= 1
