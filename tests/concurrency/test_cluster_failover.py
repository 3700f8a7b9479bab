"""Backend-dies-mid-campaign failover under scripted and explored schedules.

Backend A owns the campaign key.  It serves row 1 of the campaign and
then hangs; a killer actor drops it (listener and live connections) at a
schedule-controlled moment — before the client connects, between send
and first row, or mid-stream.  Backend B serves the complete campaign.

The invariant on every schedule: the documents returned by
``BackendPool.request`` contain each campaign row **exactly once** (the
partial stream from A is discarded wholesale, never spliced), exactly
one failover is recorded, A ends marked down and B up, and the
exponential backoff fired exactly once per retry on the dead owner.

The module also pins the health-probe boundary behaviour the router
depends on: down hosts are deferred (not skipped), ``mark_probe`` heals
them back to the front of the failover order, and a probe that lied
costs exactly one more exhausted attempt budget before the host is
re-marked down.
"""

from __future__ import annotations

import json
import socket
import threading

from repro.engine.cluster.remote import BackendPool, RemoteUnavailableError
from repro.testing import Scenario, ScheduleController, explore, sync_point

FULL_CAMPAIGN = [
    {"ok": True, "op": "campaign", "row": 1},
    {"ok": True, "op": "campaign", "row": 2},
    {"ok": True, "op": "campaign", "done": True},
]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _key_owned_by(pool: BackendPool, address: str) -> str:
    for i in range(200):
        key = f"probe-key-{i}"
        if pool.ring.node_for(key) == address:
            return key
    raise AssertionError(f"no probe key owned by {address}")


class _NdjsonBackend(threading.Thread):
    """Scripted NDJSON backend: one response list per request line."""

    def __init__(self, documents) -> None:
        super().__init__(daemon=True)
        self._documents = documents
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]

    def run(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                stream = conn.makefile("rwb")
                for raw in stream:
                    json.loads(raw)
                    for document in self._documents:
                        stream.write(json.dumps(document).encode() + b"\n")
                    stream.flush()
            except (OSError, ValueError):
                pass
            finally:
                conn.close()

    def close(self) -> None:
        for fn in (lambda: self._listener.shutdown(socket.SHUT_RDWR), self._listener.close):
            try:
                fn()
            except OSError:
                pass


class _DyingBackend(threading.Thread):
    """Serves row 1 of the campaign, then hangs until :meth:`kill`.

    ``kill`` closes the listener and every live connection — exactly what
    the OS does to a crashed ``estima serve`` host: in-flight streams see
    EOF mid-stream, later connects are refused.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._die = threading.Event()
        self._conns: list[socket.socket] = []
        self._lock = threading.Lock()

    def run(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self._conns.append(conn)
            try:
                stream = conn.makefile("rwb")
                raw = stream.readline()
                if raw:
                    stream.write(json.dumps(FULL_CAMPAIGN[0]).encode() + b"\n")
                    stream.flush()
                    self._die.wait()
            except (OSError, ValueError):
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def kill(self) -> None:
        self._die.set()
        # shutdown() before close(): a close alone does not wake a thread
        # blocked in accept() — the in-flight syscall pins the kernel
        # socket, and one more connect could slip in and be served.
        for fn in (lambda: self._listener.shutdown(socket.SHUT_RDWR), self._listener.close):
            try:
                fn()
            except OSError:
                pass
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            for fn in (lambda: conn.shutdown(socket.SHUT_RDWR), conn.close):
                try:
                    fn()
                except OSError:
                    pass


class MidCampaignFailover(Scenario):
    """A client's campaign races backend A's death; B has the replica."""

    name = "backend-dies-mid-campaign"
    stall_timeout = 0.1
    deadlock_timeout = 15.0

    def start(self, controller):
        dying = _DyingBackend()
        healthy = _NdjsonBackend(FULL_CAMPAIGN)
        dying.start()
        healthy.start()
        sleeps: list[float] = []
        pool = BackendPool(
            [dying.address, healthy.address],
            retries=1,
            backoff_base_s=0.001,
            sleep=sleeps.append,
        )
        context = {
            "dying": dying,
            "healthy": healthy,
            "pool": pool,
            "sleeps": sleeps,
            "key": _key_owned_by(pool, dying.address),
            "documents": None,
        }

        def client():
            context["documents"] = pool.request(context["key"], {"op": "campaign", "id": 7})

        def killer():
            sync_point("test.backend.kill")
            dying.kill()

        controller.spawn("client", client)
        controller.spawn("killer", killer)
        return context

    def check(self, context):
        pool = context["pool"]
        documents = context["documents"]
        assert documents is not None, "client never completed"
        # Each campaign row exactly once: the partial stream from A is
        # discarded wholesale — the returned exchange is B's, complete.
        rows = [doc["row"] for doc in documents if "row" in doc]
        assert rows == [1, 2], f"campaign rows duplicated/dropped/reordered: {rows}"
        assert [doc for doc in documents if doc.get("done")] == [FULL_CAMPAIGN[-1]]
        stats = pool.stats()
        assert stats["failovers"] == 1, stats
        assert stats["per_backend"][context["dying"].address]["up"] is False
        assert stats["per_backend"][context["healthy"].address]["up"] is True
        # Exponential backoff fired exactly once per retry on the dead
        # owner (retries=1 -> one sleep of the base), never on B.
        assert context["sleeps"] == [0.001], context["sleeps"]

    def cleanup(self, context):
        context["pool"].close()
        context["dying"].kill()
        context["healthy"].close()


class TestMidCampaignFailoverExploration:
    def test_every_kill_timing_preserves_rows_exactly_once(self):
        result = explore(MidCampaignFailover(), max_depth=8, max_schedules=200)
        assert not result.failures, result.failures[0].describe(result.scenario)
        assert result.schedules >= 5, result.summary()
        assert not result.truncated, result.summary()
        assert result.divergences == 0, result.summary()

    def test_scripted_kill_mid_stream_discards_partial_rows(self):
        # The client has already read row 1 from A when the host dies:
        # the mid-stream EOF must throw away the partial exchange and the
        # returned documents must be B's complete campaign.
        scenario = MidCampaignFailover()
        controller = ScheduleController(stall_timeout=0.1, deadlock_timeout=15.0)
        with controller.install():
            context = scenario.start(controller)
            try:
                controller.drive([
                    "client",                        # start -> first attempt
                    "client@cluster.pool.attempt",   # send to A
                    "client@cluster.client.sent",    # read row 1 from A
                    "killer",                        # start -> poised to kill
                    "killer@test.backend.kill",      # A dies under the stream
                ])
                points = [point for _, point in controller.trace]
                assert "cluster.pool.failover" in points
                scenario.check(context)
            finally:
                scenario.cleanup(context)

    def test_scripted_kill_before_connect_fails_over_without_sending(self):
        # A dies before the client ever connects: every attempt on A is a
        # refused connect (no bytes sent), so the one and only successful
        # send of the whole exchange is to B.
        scenario = MidCampaignFailover()
        controller = ScheduleController(stall_timeout=0.1, deadlock_timeout=15.0)
        with controller.install():
            context = scenario.start(controller)
            try:
                controller.drive([
                    "killer",
                    "killer@test.backend.kill",
                    "client",
                ])
                sends = [actor for actor, point in controller.trace
                         if point == "cluster.client.sent"]
                assert sends == ["client"], sends
                scenario.check(context)
            finally:
                scenario.cleanup(context)


class TestHealthProbeBoundaries:
    """healthy -> dead -> probed -> healed, with backoff pinned exactly."""

    def test_probe_heals_then_lying_probe_costs_one_budget(self):
        healthy = _NdjsonBackend([{"ok": True, "echo": 1}])
        healthy.start()
        dead_address = f"127.0.0.1:{_free_port()}"
        sleeps: list[float] = []
        pool = BackendPool(
            [dead_address, healthy.address],
            retries=2,
            backoff_base_s=0.001,
            sleep=sleeps.append,
        )
        try:
            key = _key_owned_by(pool, dead_address)
            # Healthy -> dead: 1 + retries attempts on the owner, backoff
            # strictly between attempts (none before the first, none after
            # the last): exactly ``retries`` sleeps, doubling from base.
            assert pool.request(key, {"id": 1}) == [{"ok": True, "echo": 1}]
            assert sleeps == [0.001, 0.002], sleeps
            assert not pool.host_up(dead_address)
            # Down hosts are deferred, not retried: the next request goes
            # straight to the healthy replica with zero sleeps and no new
            # failover (rank 0 of the reordered schedule succeeds).
            sleeps.clear()
            assert pool.request(key, {"id": 2}) == [{"ok": True, "echo": 1}]
            assert sleeps == []
            assert pool.stats()["failovers"] == 1
            # Probed -> healed: the probe flips the host up and back to the
            # front of the failover order.
            pool.mark_probe(dead_address, up=True)
            assert pool.host_up(dead_address)
            # The probe lied (host still refuses connects): exactly one
            # more exhausted budget — same backoff ladder — then down again.
            sleeps.clear()
            assert pool.request(key, {"id": 3}) == [{"ok": True, "echo": 1}]
            assert sleeps == [0.001, 0.002], sleeps
            assert not pool.host_up(dead_address)
            assert pool.stats()["failovers"] == 2
        finally:
            pool.close()
            healthy.close()

    def test_zero_retries_means_one_attempt_and_no_backoff(self):
        healthy = _NdjsonBackend([{"ok": True, "echo": 2}])
        healthy.start()
        dead_address = f"127.0.0.1:{_free_port()}"
        sleeps: list[float] = []
        pool = BackendPool(
            [dead_address, healthy.address],
            retries=0,
            backoff_base_s=0.001,
            sleep=sleeps.append,
        )
        try:
            key = _key_owned_by(pool, dead_address)
            assert pool.request(key, {"id": 4}) == [{"ok": True, "echo": 2}]
            assert sleeps == [], "backoff must not fire before the first attempt"
            stats = pool.stats()
            assert stats["per_backend"][dead_address]["retries"] == 0
            assert stats["per_backend"][dead_address]["requests"] == 1
        finally:
            pool.close()
            healthy.close()


class _ScriptedClient:
    """Stands in for a ``RemoteClient``: each request runs the next script step."""

    def __init__(self, steps) -> None:
        self._steps = list(steps)
        self._lock = threading.Lock()

    def request(self, payload):
        with self._lock:
            step = self._steps.pop(0)
        return step(payload)

    def close(self) -> None:
        pass


class TestLateSuccessAfterFailure:
    """Two shards on one host: a late success must not revive a host that died."""

    def test_late_success_does_not_mark_a_failed_host_up(self):
        pool = BackendPool(["127.0.0.1:1", "127.0.0.1:2"], retries=0, sleep=lambda _s: None)
        dying = pool.ring.node_for("shard-a")
        other = next(a for a in pool.backends if a != dying)
        key_b = _key_owned_by(pool, dying)
        a_in_flight = threading.Event()
        release_a = threading.Event()

        def shard_a_blocks_then_answers(payload):
            a_in_flight.set()
            assert release_a.wait(10)
            return [{"ok": True, "shard": payload["shard"]}]

        def shard_b_fails(payload):
            raise RemoteUnavailableError("connection reset")

        pool._clients[dying] = _ScriptedClient([shard_a_blocks_then_answers, shard_b_fails])
        pool._clients[other] = _ScriptedClient([lambda payload: [{"ok": True, "shard": payload["shard"]}]])
        answers = {}
        shard_a = threading.Thread(
            target=lambda: answers.setdefault("a", pool.request("shard-a", {"shard": "a"}))
        )
        shard_a.start()
        try:
            assert a_in_flight.wait(10)
            # Shard B's exchange on the same host fails: the host is down and
            # B is answered by the next ring node.
            assert pool.request(key_b, {"shard": "b"}) == [{"ok": True, "shard": "b"}]
            assert not pool.host_up(dying)
        finally:
            release_a.set()
            shard_a.join(10)
        # Shard A's exchange began before the failure; its late answer is
        # returned, but it says nothing about the host after the failure.
        assert answers["a"] == [{"ok": True, "shard": "a"}]
        assert not pool.host_up(dying)
        stats = pool.stats()["per_backend"][dying]
        assert stats == {"up": False, "requests": 2, "failures": 1, "retries": 0}
        # A success that starts after the failure heals the host as before.
        pool._clients[dying] = _ScriptedClient([lambda payload: [{"ok": True}]])
        pool.mark_probe(dying, up=True)
        assert pool.request(key_b, {"shard": "c"}) == [{"ok": True}]
        assert pool.host_up(dying)
