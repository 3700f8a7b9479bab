"""pthread-mutex contention model (blocking locks and trylock loops).

PARSEC's stock synchronization uses ``pthread_mutex_t``; under contention a
pthread mutex first spins briefly, then parks the thread in the kernel.  The
futex round-trip makes each contended acquisition far more expensive than a
user-level spinlock — which is exactly why replacing PARSEC's mutexes with
test-and-set spinlocks speeds streamcluster up in the paper's Section 4.6
experiment.

``trylock_loop=True`` models the pattern the paper calls out in the PARSEC
barrier implementation: threads looping on ``pthread_mutex_trylock``, burning
cycles on every failed attempt instead of blocking.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.clamp import clamp

from .stats import SyncCost

__all__ = ["MutexModel"]

_ATOMIC_RMW_CYCLES = 40.0
# A futex sleep/wake round trip (syscall, context switch, wakeup latency).
_FUTEX_ROUNDTRIP_CYCLES = 4000.0
_TRYLOCK_ATTEMPT_CYCLES = 60.0
_MAX_QUEUE = 50.0


@dataclass(frozen=True)
class MutexModel:
    """Contention model for blocking pthread mutexes."""

    acquires_per_op: float
    critical_section_cycles: float
    num_locks: int = 1
    trylock_loop: bool = False

    def __post_init__(self) -> None:
        if self.acquires_per_op < 0:
            raise ValueError("acquires_per_op must be non-negative")
        if self.critical_section_cycles < 0:
            raise ValueError("critical_section_cycles must be non-negative")
        if self.num_locks < 1:
            raise ValueError("num_locks must be >= 1")

    def utilisation(self, threads: int, work_cycles_per_op: float) -> float:
        """Probability an acquisition finds the mutex busy."""
        if threads <= 1 or self.acquires_per_op == 0.0:
            return 0.0
        cycles_per_op = max(work_cycles_per_op, 1.0)
        arrival = (threads - 1) * self.acquires_per_op / (cycles_per_op * self.num_locks)
        holding = self.critical_section_cycles + _ATOMIC_RMW_CYCLES
        return clamp(arrival * holding, 0.0, 0.98)

    def cost(self, threads: int, work_cycles_per_op: float) -> SyncCost:
        """Per-operation mutex cost (reported as ``lock_block_cycles``)."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        base = self.acquires_per_op * _ATOMIC_RMW_CYCLES * 0.25
        # Striped mutexes serialize only per lock instance.
        serialized = self.acquires_per_op * self.critical_section_cycles / self.num_locks
        if threads == 1 or self.acquires_per_op == 0.0:
            return SyncCost(
                software_stall_cycles={"lock_block_cycles": 0.0},
                extra_coherence_accesses=self.acquires_per_op,
                serialized_cycles=serialized,
            )

        rho = self.utilisation(threads, work_cycles_per_op)
        queue = min(rho / (1.0 - rho), _MAX_QUEUE)
        wait = queue * (self.critical_section_cycles + _ATOMIC_RMW_CYCLES)
        # Contended acquisitions pay the futex round trip with probability rho.
        blocked = rho * _FUTEX_ROUNDTRIP_CYCLES
        if self.trylock_loop:
            # Failed trylock attempts spin in user space instead of sleeping,
            # with attempts proportional to how long the lock stays busy.
            attempts = queue * (self.critical_section_cycles / _TRYLOCK_ATTEMPT_CYCLES + 1.0)
            blocked = attempts * _TRYLOCK_ATTEMPT_CYCLES * (threads - 1) * 0.1

        cycles = self.acquires_per_op * (wait + blocked)
        coherence = self.acquires_per_op * (1.0 + rho * (threads - 1) * 0.5)
        # Wake-up latency after a futex sleep lengthens the effective handoff
        # and with it the serialization floor under heavy contention.
        serialized *= 1.0 + 0.15 * rho * min(threads - 1, 32)
        return SyncCost(
            software_stall_cycles={"lock_block_cycles": float(cycles + base)},
            extra_coherence_accesses=float(coherence),
            serialized_cycles=float(serialized),
        )
