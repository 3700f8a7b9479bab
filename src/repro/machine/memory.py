"""Memory-system model: DRAM latency, bandwidth saturation and NUMA.

Two effects dominate how the memory system limits scalability:

* **Bandwidth saturation** — the aggregate miss traffic of all threads on a
  socket competes for that socket's memory controllers.  Below saturation the
  latency is flat; approaching it, queueing inflates the effective latency
  (modelled with an M/M/1-style ``1 / (1 - utilisation)`` term, capped).
* **NUMA** — accesses served by a remote socket (or the other die of a
  multi-chip module) pay an interconnect penalty.  The remote fraction grows
  with how much of the data is shared and how many sockets the run spans.

Both effects feed the `memory latency` and `store pressure` stall sources of
:mod:`repro.machine.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clamp import clamp
from .topology import CorePlacement

__all__ = ["MemorySystem", "MemoryBehaviour"]

_CACHE_LINE_BYTES = 64.0
_MAX_QUEUE_INFLATION = 4.0


@dataclass(frozen=True)
class MemoryBehaviour:
    """Effective memory behaviour for one run."""

    effective_latency_cycles: float  # average DRAM access latency seen by a load
    remote_fraction: float  # fraction of DRAM accesses served remotely
    bandwidth_utilisation: float  # 0..1 per-socket demand vs capacity
    queue_inflation: float  # latency multiplier from bandwidth queueing


@dataclass(frozen=True)
class MemorySystem:
    """Per-socket DRAM characteristics plus the NUMA interconnect penalty."""

    local_latency_ns: float
    bandwidth_gbs_per_socket: float
    numa_factor: float  # remote latency / local latency (sockets)
    intra_socket_factor: float = 1.0  # chip-to-chip penalty inside an MCM package

    def __post_init__(self) -> None:
        if self.local_latency_ns <= 0:
            raise ValueError("local_latency_ns must be positive")
        if self.bandwidth_gbs_per_socket <= 0:
            raise ValueError("bandwidth_gbs_per_socket must be positive")
        if self.numa_factor < 1.0:
            raise ValueError("numa_factor must be >= 1.0")
        if self.intra_socket_factor < 1.0:
            raise ValueError("intra_socket_factor must be >= 1.0")

    def latency_cycles(self, frequency_ghz: float) -> float:
        """Local DRAM latency expressed in core cycles."""
        return self.local_latency_ns * frequency_ghz

    def remote_access_fraction(
        self, placement: CorePlacement, shared_access_fraction: float
    ) -> float:
        """Fraction of DRAM accesses that cross a socket (or die) boundary.

        Shared data is assumed spread uniformly across the sockets in use
        (first-touch by whichever thread allocated it), so a thread finds
        ``(sockets_used - 1) / sockets_used`` of it remote.  Private data stays
        local.
        """
        shared_access_fraction = clamp(shared_access_fraction, 0.0, 1.0)
        if placement.sockets_used <= 1:
            return 0.0
        spread = (placement.sockets_used - 1) / placement.sockets_used
        return shared_access_fraction * spread

    def cross_chip_fraction(
        self, placement: CorePlacement, shared_access_fraction: float
    ) -> float:
        """Fraction of accesses crossing dies *within* a socket (Opteron MCM)."""
        shared_access_fraction = clamp(shared_access_fraction, 0.0, 1.0)
        chips_in_sockets = placement.chips_used - (placement.sockets_used - 1)
        if placement.chips_used <= placement.sockets_used:
            return 0.0
        spread = (placement.chips_used - 1) / placement.chips_used
        del chips_in_sockets
        return shared_access_fraction * spread

    def behaviour(
        self,
        *,
        placement: CorePlacement,
        frequency_ghz: float,
        misses_per_second_per_thread: float,
        shared_access_fraction: float,
    ) -> MemoryBehaviour:
        """Compute the effective DRAM latency for one run.

        ``misses_per_second_per_thread`` is the demand the cache model predicts
        at nominal (uninflated) speed; utilisation computed from it slightly
        overestimates pressure near saturation, which matches the sharp knees
        real bandwidth-bound applications (streamcluster) show.
        """
        base_latency = self.latency_cycles(frequency_ghz)

        # Bandwidth: demand of the busiest socket vs one socket's capacity.
        threads_on_busiest = placement.max_threads_per_socket
        bytes_per_second = misses_per_second_per_thread * _CACHE_LINE_BYTES * threads_on_busiest
        capacity = self.bandwidth_gbs_per_socket * 1e9
        utilisation = clamp(bytes_per_second / capacity, 0.0, 0.999)
        queue_inflation = min(1.0 / (1.0 - utilisation), _MAX_QUEUE_INFLATION)

        remote = self.remote_access_fraction(placement, shared_access_fraction)
        cross_chip = self.cross_chip_fraction(placement, shared_access_fraction)
        local = 1.0 - remote - cross_chip
        local = max(local, 0.0)
        avg_factor = (
            local * 1.0 + cross_chip * self.intra_socket_factor + remote * self.numa_factor
        )

        effective = base_latency * avg_factor * queue_inflation
        return MemoryBehaviour(
            effective_latency_cycles=float(effective),
            remote_fraction=float(remote + cross_chip),
            bandwidth_utilisation=utilisation,
            queue_inflation=float(queue_inflation),
        )
