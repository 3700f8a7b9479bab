"""Lock-free (CAS retry) synchronization model.

Lock-free data structures (the lock-free hash table and skip list
microbenchmarks) never block, but contended compare-and-swap operations fail
and retry.  A failed CAS wastes the read-compute-retry path; the wasted cycles
are software stalls in the paper's sense, while the successful CAS and the
cache-line transfers it forces are hardware-visible coherence traffic.

CAS failure probability is modelled like lock utilisation: the chance that
another thread updated the same location between the read and the CAS grows
with the number of concurrent updaters per hot location.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.clamp import clamp

from .stats import SyncCost

__all__ = ["LockFreeModel"]

_CAS_CYCLES = 40.0
_MAX_FAILURE = 0.9


@dataclass(frozen=True)
class LockFreeModel:
    """Retry model for CAS-based lock-free structures.

    Attributes
    ----------
    cas_per_op:
        Compare-and-swap attempts per operation on the success path.
    retry_body_cycles:
        Cycles re-executed when a CAS fails (re-read, re-traverse, re-compute).
    hot_locations:
        Number of distinct contended locations (e.g. hash buckets actually
        being updated concurrently); more locations = less contention.
    update_fraction:
        Fraction of operations that actually modify the structure (reads never
        retry in these benchmarks).
    """

    cas_per_op: float
    retry_body_cycles: float
    hot_locations: float
    update_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.cas_per_op < 0:
            raise ValueError("cas_per_op must be non-negative")
        if self.retry_body_cycles < 0:
            raise ValueError("retry_body_cycles must be non-negative")
        if self.hot_locations <= 0:
            raise ValueError("hot_locations must be positive")
        if not 0.0 <= self.update_fraction <= 1.0:
            raise ValueError("update_fraction must be within [0, 1]")

    def failure_probability(self, threads: int) -> float:
        """Probability one CAS attempt fails at ``threads`` threads."""
        if threads <= 1 or self.cas_per_op == 0.0 or self.update_fraction == 0.0:
            return 0.0
        contenders = (threads - 1) * self.update_fraction
        p = contenders / (contenders + self.hot_locations)
        return clamp(p, 0.0, _MAX_FAILURE)

    def cost(self, threads: int, work_cycles_per_op: float) -> SyncCost:
        """Per-operation retry cost (reported as ``cas_retry_cycles``)."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        del work_cycles_per_op
        if self.cas_per_op == 0.0:
            return SyncCost()
        p_fail = self.failure_probability(threads)
        # Expected retries per successful CAS: p / (1 - p).
        retries = p_fail / (1.0 - p_fail)
        wasted = (
            self.update_fraction
            * self.cas_per_op
            * retries
            * (self.retry_body_cycles + _CAS_CYCLES)
        )
        coherence = self.update_fraction * self.cas_per_op * (1.0 + retries)
        return SyncCost(
            software_stall_cycles={"cas_retry_cycles": float(wasted)},
            extra_coherence_accesses=float(coherence),
            serialized_cycles=float(self.update_fraction * self.cas_per_op * _CAS_CYCLES * 0.2),
        )
