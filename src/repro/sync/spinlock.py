"""Spinlock contention models (test-and-set and ticket locks).

A thread that finds a lock busy spins, burning cycles that the paper counts as
software stalls ("spinning on a busy lock").  The model is a standard
closed-system contention estimate:

* lock utilisation  ``rho = arrival_rate x holding_time`` where the arrival
  rate aggregates every *other* thread mapped onto the same lock instance,
* expected waiting time grows as ``rho / (1 - rho)`` (queueing) and, for
  test-and-set locks, an extra factor for the cache-line storm every release
  triggers when many waiters re-try simultaneously.

Ticket locks serve waiters in FIFO order, so they avoid the storm factor but
still pay the queueing delay; this distinction is what the Figure-11
streamcluster optimisation (pthread mutex -> test-and-set spinlock) exercises
in reverse, and what lets tests check that lower-overhead locks reduce
software stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.clamp import clamp

from .stats import SyncCost

__all__ = ["SpinlockModel"]

# Cycles for one atomic read-modify-write on a contended line (cache-to-cache).
_ATOMIC_RMW_CYCLES = 40.0
_MAX_QUEUE = 50.0


@dataclass(frozen=True)
class SpinlockModel:
    """Contention model for spin-based locks.

    Attributes
    ----------
    acquires_per_op:
        Lock acquisitions per application operation.
    critical_section_cycles:
        Cycles spent holding the lock per acquisition.
    num_locks:
        Distinct lock instances operations spread over (1 = one global lock).
    kind:
        ``"ttas"`` (test-and-test-and-set) or ``"ticket"``.
    """

    acquires_per_op: float
    critical_section_cycles: float
    num_locks: int = 1
    kind: str = "ttas"

    def __post_init__(self) -> None:
        if self.acquires_per_op < 0:
            raise ValueError("acquires_per_op must be non-negative")
        if self.critical_section_cycles < 0:
            raise ValueError("critical_section_cycles must be non-negative")
        if self.num_locks < 1:
            raise ValueError("num_locks must be >= 1")
        if self.kind not in ("ttas", "ticket"):
            raise ValueError("kind must be 'ttas' or 'ticket'")

    def utilisation(self, threads: int, work_cycles_per_op: float) -> float:
        """Fraction of time the busiest lock is held, seen by one contender."""
        if threads <= 1 or self.acquires_per_op == 0.0:
            return 0.0
        cycles_per_op = max(work_cycles_per_op, 1.0)
        # Rate (per cycle) at which the *other* threads hit the same lock.
        arrival = (threads - 1) * self.acquires_per_op / (cycles_per_op * self.num_locks)
        holding = self.critical_section_cycles + _ATOMIC_RMW_CYCLES
        return clamp(arrival * holding, 0.0, 0.98)

    def cost(self, threads: int, work_cycles_per_op: float) -> SyncCost:
        """Per-operation cost of this lock at ``threads`` threads.

        ``work_cycles_per_op`` is the (stall-inclusive) length of one
        application operation, which sets how often each thread comes back for
        the lock.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        acquire_cost = self.acquires_per_op * _ATOMIC_RMW_CYCLES * 0.25
        # Different lock instances serialize independently, so the per-run
        # serialization floor is the critical-section work of the busiest lock.
        serialized = self.acquires_per_op * self.critical_section_cycles / self.num_locks
        if threads == 1 or self.acquires_per_op == 0.0:
            return SyncCost(
                software_stall_cycles={"lock_spin_cycles": 0.0},
                extra_coherence_accesses=self.acquires_per_op,
                serialized_cycles=serialized,
            )

        rho = self.utilisation(threads, work_cycles_per_op)
        queue = min(rho / (1.0 - rho), _MAX_QUEUE)
        wait = queue * (self.critical_section_cycles + _ATOMIC_RMW_CYCLES)
        if self.kind == "ttas":
            # Release storm: every waiter retries, invalidating the line
            # O(waiters) times.  The number of plausible waiters grows with rho.
            waiters = rho * (threads - 1)
            wait *= 1.0 + 0.15 * waiters
        spin_cycles = self.acquires_per_op * wait

        coherence = self.acquires_per_op * (1.0 + rho * (threads - 1) * 0.5)
        if self.kind == "ttas":
            # Release storms also lengthen the effective critical section: the
            # handoff itself costs O(waiters) line transfers.
            serialized *= 1.0 + 0.10 * rho * (threads - 1)
        return SyncCost(
            software_stall_cycles={"lock_spin_cycles": float(spin_cycles + acquire_cost)},
            extra_coherence_accesses=float(coherence),
            serialized_cycles=float(serialized),
        )
