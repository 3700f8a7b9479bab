"""Machine topology: sockets, chips, cores and thread placement.

ESTIMA "discovers the topology of the cores and uses cores within the same
socket first" (Section 4.1).  The simulator needs the same information to know
how many sockets and chips a run of *n* threads touches — that is what drives
shared-cache pressure, coherence distance and NUMA traffic.

The AMD Opteron 6172 of the paper is a multi-chip module: each package holds
two 6-core chips, so even a single-socket run crosses a chip boundary (the
reason the paper gives for NUMA effects being visible in Opteron measurements,
Section 5.5).  The topology model keeps socket and chip as separate levels to
reproduce this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["CorePlacement", "Topology"]


def _fill(threads: int, capacity: int) -> tuple[int, ...]:
    """Occupancy of consecutive units of ``capacity`` contexts filled in order."""
    full, rest = divmod(threads, capacity)
    return (capacity,) * full + ((rest,) if rest else ())


@dataclass(frozen=True)
class CorePlacement:
    """How *n* threads are spread over the machine (socket-first fill)."""

    threads: int
    sockets_used: int
    chips_used: int
    threads_per_chip: tuple[int, ...]  # length == chips_used
    threads_per_socket: tuple[int, ...]  # length == sockets_used
    max_threads_per_chip: int
    max_threads_per_socket: int

    @property
    def crosses_socket(self) -> bool:
        return self.sockets_used > 1

    @property
    def crosses_chip(self) -> bool:
        return self.chips_used > 1


@dataclass(frozen=True)
class Topology:
    """Physical layout of a machine.

    Attributes
    ----------
    sockets:
        Number of CPU packages.
    chips_per_socket:
        Dies per package (2 for the Opteron 6172 multi-chip module).
    cores_per_chip:
        Physical cores per die.
    smt:
        Hardware threads per core (2 for the Haswell desktop with
        hyper-threading, 1 elsewhere in the paper's machines).
    """

    sockets: int
    chips_per_socket: int
    cores_per_chip: int
    smt: int = 1

    def __post_init__(self) -> None:
        for name in ("sockets", "chips_per_socket", "cores_per_chip", "smt"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def total_chips(self) -> int:
        return self.sockets * self.chips_per_socket

    @property
    def total_cores(self) -> int:
        return self.total_chips * self.cores_per_chip

    @property
    def total_threads(self) -> int:
        """Total hardware contexts (cores x SMT)."""
        return self.total_cores * self.smt

    @property
    def threads_per_chip(self) -> int:
        return self.cores_per_chip * self.smt

    @property
    def threads_per_socket(self) -> int:
        return self.threads_per_chip * self.chips_per_socket

    def core_order(self) -> Iterator[tuple[int, int, int]]:
        """Enumerate hardware contexts socket-first: (socket, chip, context).

        This is the order ESTIMA pins threads in — fill a chip, then the next
        chip of the same socket, then move to the next socket.
        """
        for socket in range(self.sockets):
            for chip in range(self.chips_per_socket):
                for ctx in range(self.threads_per_chip):
                    yield socket, chip, ctx

    def place(self, threads: int) -> CorePlacement:
        """Place ``threads`` hardware threads socket-first and summarise."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if threads > self.total_threads:
            raise ValueError(
                f"machine has {self.total_threads} hardware threads, requested {threads}"
            )
        # Socket-first fill (the order of core_order()): every chip before
        # the last used one is full, and so is every socket.
        per_chip = _fill(threads, self.threads_per_chip)
        per_socket = _fill(threads, self.threads_per_socket)
        return CorePlacement(
            threads=threads,
            sockets_used=len(per_socket),
            chips_used=len(per_chip),
            threads_per_chip=per_chip,
            threads_per_socket=per_socket,
            max_threads_per_chip=per_chip[0],
            max_threads_per_socket=per_socket[0],
        )

    def core_counts(self, *, step: int = 1, include_one: bool = True) -> list[int]:
        """Measurement core counts 1..total_threads (used by the harness)."""
        counts = list(range(step, self.total_threads + 1, step))
        if include_one and 1 not in counts:
            counts = [1] + counts
        return counts
