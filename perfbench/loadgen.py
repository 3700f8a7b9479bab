"""Single-process asyncio load generator speaking HTTP/1.1 keep-alive.

Open loop: every request has a due time on a fixed schedule and is timed
from when it was due, not from when it was sent, so a stall also charges the
wait it imposes on the requests behind it.  The generator records how late
it dispatched each request (``lag``); a run whose generator fell behind its
own schedule is flagged.  Closed loop: each connection sends its next
request as soon as the previous answer arrives.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

#: A run whose dispatch lag p99 exceeds this is flagged as invalid.
LAG_LIMIT_S = 0.010


@dataclass
class Result:
    """One request's outcome; ``status`` 0 means the connection failed."""

    tag: Any
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from due to answer; ``inf`` for a failed or refused request."""
        return self.done - self.due if self.status == 200 else math.inf


@dataclass
class Stream:
    """Requests of one traffic source and the connections that carry them."""

    connections: Sequence["Connection"]
    results: list[Result] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)


class Connection:
    """One keep-alive HTTP/1.1 client connection (one request at a time)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """Send one request; ``(0, b"")`` when the connection fails."""
        try:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            )
            self._writer.write(head.encode() + body)
            await self._writer.drain()
            status_line = await self._reader.readline()
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            return status, await self._reader.readexactly(length)
        except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
            await self.close()
            return 0, b""

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def open_loop(
    stream: Stream, schedule: Sequence[tuple[float, Any, bytes]], start: float, path: str
) -> None:
    """Send ``(offset_s, tag, body)`` requests at ``start + offset_s``.

    A request due while every connection is busy waits for the next free
    one; that wait is part of its latency.
    """
    queue: asyncio.Queue = asyncio.Queue()

    async def dispatch() -> None:
        for offset, tag, body in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            stream.lags.append(max(0.0, time.perf_counter() - due))
            queue.put_nowait((due, tag, body))
        for _ in stream.connections:
            queue.put_nowait(None)

    async def worker(connection: Connection) -> None:
        while (item := await queue.get()) is not None:
            due, tag, body = item
            sent = time.perf_counter()
            status, answer = await connection.request("POST", path, body)
            stream.results.append(Result(tag, due, sent, time.perf_counter(), status, answer))

    await asyncio.gather(dispatch(), *(worker(c) for c in stream.connections))


async def closed_loop(
    stream: Stream, next_request: Callable[[], tuple[Any, bytes]], until: float, path: str
) -> None:
    """Each connection sends back to back until ``until`` (perf_counter time)."""

    async def worker(connection: Connection) -> None:
        while time.perf_counter() < until:
            tag, body = next_request()
            sent = time.perf_counter()
            status, answer = await connection.request("POST", path, body)
            stream.results.append(Result(tag, sent, sent, time.perf_counter(), status, answer))

    await asyncio.gather(*(worker(c) for c in stream.connections))
