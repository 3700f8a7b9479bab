"""Software transactional memory (SwissTM-like) conflict and abort model.

The STAMP applications synchronize with STM; the cycles of *aborted*
transactions are pure software stalls — instructions retire at the hardware
level but all their work is discarded on abort.  The paper configures the
SwissTM runtime to report exactly these cycles and feeds them to ESTIMA as a
software-stall category.

Conflict model
--------------
A transaction writing ``write_footprint`` of the workload's
``conflict_table_size`` hot locations conflicts with one concurrent
transaction with probability ``p ~ footprint^2 / table_size`` (birthday
estimate).  Under a contention manager with restart backoff, the *number of
aborted attempts per commit* observed in practice grows polynomially with the
number of concurrent transactions rather than exploding as the closed-form
``1/(1-p)`` queueing estimate would suggest, so the model uses

    aborts_per_commit(n) = min(p_pair * (n - 1)^contention_growth, cap)

with ``contention_growth`` in the 1-2.5 range (1 for uniformly spread
conflicts, >2 for structures whose hot set keeps shrinking as occupancy rises,
e.g. intruder's packet queues).  Each aborted attempt wastes on average half
the transaction body plus its instrumentation before the conflict is detected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.clamp import clamp

from .stats import SyncCost

__all__ = ["StmModel"]

# Per-access instrumentation overhead of the STM read/write barriers (cycles).
_BARRIER_OVERHEAD_CYCLES = 6.0
# Commit-time validation / locking cost per transaction (cycles).
_COMMIT_CYCLES = 120.0
# Upper bound on aborted attempts per commit (the contention manager
# serializes transactions long before the queue grows further).
_MAX_ABORTS_PER_COMMIT = 40.0


@dataclass(frozen=True)
class StmModel:
    """SwissTM-style STM cost model.

    Attributes
    ----------
    tx_per_op:
        Transactions per application operation.
    tx_body_cycles:
        Cycles of useful work inside one transaction.
    tx_accesses:
        Shared-memory accesses (read+write barriers) per transaction.
    write_footprint:
        Distinct *hot* locations written per transaction.
    conflict_table_size:
        Number of hot shared locations transactions contend on; small tables
        (intruder's packet queues, yada's mesh cavity) mean high conflict.
    contention_growth:
        Polynomial exponent of conflict growth with the number of concurrent
        transactions (see the module docstring).
    """

    tx_per_op: float
    tx_body_cycles: float
    tx_accesses: float
    write_footprint: float
    conflict_table_size: float
    contention_growth: float = 1.0

    def __post_init__(self) -> None:
        if self.tx_per_op < 0:
            raise ValueError("tx_per_op must be non-negative")
        if self.tx_body_cycles < 0:
            raise ValueError("tx_body_cycles must be non-negative")
        if self.tx_accesses < 0:
            raise ValueError("tx_accesses must be non-negative")
        if self.write_footprint < 0:
            raise ValueError("write_footprint must be non-negative")
        if self.conflict_table_size <= 0:
            raise ValueError("conflict_table_size must be positive")
        if self.contention_growth <= 0:
            raise ValueError("contention_growth must be positive")

    def pairwise_conflict_probability(self) -> float:
        """Probability two concurrent transactions conflict."""
        p = (self.write_footprint * (self.write_footprint + 1.0)) / self.conflict_table_size
        return clamp(p, 0.0, 1.0)

    def aborts_per_commit(self, threads: int) -> float:
        """Expected aborted attempts for every committed transaction."""
        if threads <= 1 or self.tx_per_op == 0.0:
            return 0.0
        p_pair = self.pairwise_conflict_probability()
        aborted = p_pair * (threads - 1) ** self.contention_growth
        return float(min(aborted, _MAX_ABORTS_PER_COMMIT))

    def abort_probability(self, threads: int) -> float:
        """Probability one transaction attempt aborts at ``threads`` threads."""
        aborts = self.aborts_per_commit(threads)
        return float(aborts / (1.0 + aborts))

    def expected_attempts(self, threads: int) -> float:
        """Expected executions of the transaction body until one commits."""
        return float(1.0 + self.aborts_per_commit(threads))

    def cost(self, threads: int, work_cycles_per_op: float) -> SyncCost:
        """Per-operation STM cost; aborted work reported as software stalls."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        del work_cycles_per_op
        if self.tx_per_op == 0.0:
            return SyncCost()

        instrumented = self.tx_accesses * _BARRIER_OVERHEAD_CYCLES + _COMMIT_CYCLES
        aborts = self.aborts_per_commit(threads)
        p_abort = self.abort_probability(threads)
        # Every aborted attempt wastes, on average, half the body plus its
        # instrumentation before the conflict is detected.
        wasted_per_abort = 0.5 * (self.tx_body_cycles + instrumented)
        aborted_cycles = self.tx_per_op * aborts * wasted_per_abort

        # Instrumentation of the committing attempt is overhead too, but it is
        # *useful-path* overhead, not a stall; it lands in serialized/coherence
        # effects instead of the aborted-cycles category.
        coherence = self.tx_per_op * (
            self.write_footprint * (1.0 + aborts) + 2.0 * p_abort * self.write_footprint
        )
        serialized = self.tx_per_op * _COMMIT_CYCLES * 0.3
        return SyncCost(
            software_stall_cycles={"stm_aborted_tx_cycles": float(aborted_cycles)},
            extra_coherence_accesses=float(coherence),
            serialized_cycles=float(serialized),
        )

    def committed_overhead_cycles(self) -> float:
        """Instrumentation cycles per operation on the committing path."""
        return float(
            self.tx_per_op * (self.tx_accesses * _BARRIER_OVERHEAD_CYCLES + _COMMIT_CYCLES)
        )
