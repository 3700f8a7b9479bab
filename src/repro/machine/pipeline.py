"""Backend-stall decomposition of exposed latencies.

Given the average memory behaviour of a run (from the cache and memory models)
and the workload's instruction mix, this module splits the cycles one
operation spends *not* retiring useful work into the vendor-neutral stall
sources of :mod:`repro.machine.counters`:

* loads that miss and fill the re-order buffer  -> ``MEMORY_LATENCY``
* stores backing up the store queue / write bandwidth -> ``STORE_PRESSURE``
* dependent instructions starving the scheduler -> ``DEPENDENCY``
* long-latency floating-point pipes -> ``FPU_PRESSURE``
* mispredicted branches draining to retire -> ``BRANCH_RECOVERY``
* generic allocation backpressure -> ``ALLOCATION``
* instruction-fetch misses / decode starvation -> frontend sources

The decomposition is deliberately simple — ESTIMA only needs stall categories
whose *trends* with core count are faithful, not a cycle-accurate pipeline.
Out-of-order overlap is modelled with a memory-level-parallelism (MLP) factor
that hides part of the miss latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caches import CacheBehaviour
from .clamp import clamp
from .counters import StallSource
from .memory import MemoryBehaviour

__all__ = ["InstructionMix", "StallBreakdown", "decompose_stalls"]

# Penalty (cycles) to re-steer and refill the pipeline after a mispredict.
_BRANCH_MISS_PENALTY = 15.0
# Fraction of a store's occupancy that backs up into dispatch once write
# bandwidth saturates.
_STORE_BACKPRESSURE = 0.35
# Long-latency FP operations (div/sqrt-ish) expose this many cycles each when
# dependent work cannot cover them.
_FP_EXPOSED_LATENCY = 4.0


@dataclass(frozen=True)
class InstructionMix:
    """Per-operation instruction profile of a workload."""

    instructions_per_op: float
    mem_refs_per_op: float
    store_fraction: float  # of mem refs
    flop_fraction: float  # of instructions
    branch_fraction: float  # of instructions
    branch_miss_rate: float  # mispredictions per branch
    base_ipc: float = 1.6  # retirement rate with no stalls at all
    mlp: float = 2.0  # memory-level parallelism: misses overlapped

    def __post_init__(self) -> None:
        if self.instructions_per_op <= 0:
            raise ValueError("instructions_per_op must be positive")
        if self.mem_refs_per_op < 0:
            raise ValueError("mem_refs_per_op must be non-negative")
        for name in ("store_fraction", "flop_fraction", "branch_fraction", "branch_miss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.base_ipc <= 0:
            raise ValueError("base_ipc must be positive")
        if self.mlp < 1.0:
            raise ValueError("mlp must be >= 1.0")

    @property
    def useful_cycles_per_op(self) -> float:
        """Cycles per operation if nothing ever stalled."""
        return self.instructions_per_op / self.base_ipc


@dataclass(frozen=True)
class StallBreakdown:
    """Backend and frontend stall cycles per operation, by source."""

    backend: dict[StallSource, float]
    frontend: dict[StallSource, float]

    @property
    def total_backend(self) -> float:
        return float(sum(self.backend.values()))

    @property
    def total_frontend(self) -> float:
        return float(sum(self.frontend.values()))


def decompose_stalls(
    mix: InstructionMix,
    cache: CacheBehaviour,
    memory: MemoryBehaviour,
    *,
    icache_miss_rate: float = 0.002,
) -> StallBreakdown:
    """Split one operation's exposed latency into stall sources.

    Parameters
    ----------
    mix:
        The workload's instruction mix.
    cache / memory:
        Behaviour predicted by :class:`~repro.machine.caches.CacheHierarchy`
        and :class:`~repro.machine.memory.MemorySystem` for this run.
    icache_miss_rate:
        Instruction-cache misses per instruction (frontend; roughly
        independent of core count, as the paper observes).
    """
    loads_per_op = mix.mem_refs_per_op * (1.0 - mix.store_fraction)
    stores_per_op = mix.mem_refs_per_op * mix.store_fraction

    dram_fraction = cache.memory_fraction + cache.coherence_fraction
    dram_latency = memory.effective_latency_cycles

    # --- MEMORY_LATENCY: load misses fill the ROB; MLP hides part of it. ----
    load_miss_per_op = loads_per_op * dram_fraction
    exposed_load_latency = load_miss_per_op * dram_latency / mix.mlp
    # Cache hits beyond L1 also expose some latency (smaller, but it is what
    # keeps the single-thread stall count non-zero, as real counters are).
    # Cache hits mostly pipeline away; only a small fraction of their latency
    # is exposed as dispatch stalls (keeps single-thread stall counts non-zero,
    # as real counters are, without dominating the budget).
    exposed_hit_latency = loads_per_op * cache.avg_hit_latency_cycles * 0.05

    # --- STORE_PRESSURE: stores stall dispatch once buffers fill, which they
    # do in proportion to how congested the memory system is. --------------
    store_miss_per_op = stores_per_op * dram_fraction
    store_stalls = (
        store_miss_per_op * dram_latency * _STORE_BACKPRESSURE * memory.queue_inflation / mix.mlp
    )

    # --- DEPENDENCY: scheduler starvation scales with how much of the window
    # is already blocked on memory (dependent work cannot be found). --------
    window_pressure = clamp(exposed_load_latency / (exposed_load_latency + 50.0), 0.0, 1.0)
    dependency_stalls = mix.useful_cycles_per_op * 0.15 * (0.3 + window_pressure)

    # --- FPU_PRESSURE: long-latency FP pipes back up. -----------------------
    fp_ops = mix.instructions_per_op * mix.flop_fraction
    fpu_stalls = fp_ops * _FP_EXPOSED_LATENCY * 0.15

    # --- BRANCH_RECOVERY: mispredicts drain to retire. ----------------------
    branches = mix.instructions_per_op * mix.branch_fraction
    branch_stalls = branches * mix.branch_miss_rate * _BRANCH_MISS_PENALTY

    # --- ALLOCATION: generic backpressure proportional to everything else. --
    allocation_stalls = 0.05 * (exposed_load_latency + store_stalls + dependency_stalls)

    backend = {
        StallSource.MEMORY_LATENCY: float(exposed_load_latency + exposed_hit_latency),
        StallSource.STORE_PRESSURE: float(store_stalls),
        StallSource.DEPENDENCY: float(dependency_stalls),
        StallSource.FPU_PRESSURE: float(fpu_stalls),
        StallSource.BRANCH_RECOVERY: float(branch_stalls),
        StallSource.ALLOCATION: float(allocation_stalls),
    }

    # Frontend: instruction fetch misses and decode starvation are essentially
    # flat in core count (Section 2.2) — they depend on the code footprint.
    icache_stalls = mix.instructions_per_op * icache_miss_rate * 20.0
    decode_stalls = mix.instructions_per_op * 0.01
    frontend = {
        StallSource.FRONTEND_ICACHE: float(icache_stalls),
        StallSource.FRONTEND_DECODE: float(decode_stalls),
    }
    return StallBreakdown(backend=backend, frontend=frontend)
