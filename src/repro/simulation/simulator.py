"""The machine simulator: workload x machine x thread count -> counters + time.

This is the substrate that replaces the paper's real hardware and ``perf``
runs.  For one run it composes the component models:

1. **Placement** — threads fill cores socket-first
   (:class:`repro.machine.topology.Topology`).
2. **Caches** — per-thread working set vs (shared) cache capacities gives the
   miss structure, plus coherence misses from shared writes
   (:class:`repro.machine.caches.CacheHierarchy`).
3. **Memory** — miss traffic vs per-socket bandwidth gives queueing-inflated
   DRAM latency; cross-die/cross-socket accesses pay the NUMA factor
   (:class:`repro.machine.memory.MemorySystem`).
4. **Synchronization** — lock, barrier, STM and CAS models yield software
   stall cycles, extra coherence traffic, and serialized cycles
   (:mod:`repro.sync`).
5. **Pipeline** — exposed latencies are decomposed into the vendor-neutral
   backend stall sources and mapped onto the machine's counter events
   (:mod:`repro.machine.pipeline`, :mod:`repro.machine.counters`).

Steps 2-4 are mutually dependent (lock arrival rates and bandwidth demand
depend on how long an operation takes, which depends on the stalls), so the
simulator iterates the composition to a fixed point — a few iterations settle
it well within the noise level.

All randomness is deterministic: the jitter applied to times and counters is
seeded from (machine, workload, threads, dataset), so repeated runs — and the
test suite — see identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.measurement import MeasurementSet
from repro.machine.counters import FALLBACK_SOURCE, StallSource
from repro.machine.machines import MachineSpec
from repro.machine.memory import MemoryBehaviour
from repro.machine.pipeline import StallBreakdown, decompose_stalls
from repro.sync import SyncCost, combine_costs
from repro.workloads.base import Workload, WorkloadProfile

from .result import SimulationDetails, SimulationResult

__all__ = ["MachineSimulator"]

_FIXED_POINT_ITERATIONS = 4
# Cache-to-cache transfer cost for a coherence access injected by sync (cycles).
_COHERENCE_TRANSFER_CYCLES = 80.0


def _stable_seed(*parts) -> int:
    """Deterministic 32-bit seed from arbitrary hashable parts."""
    text = "|".join(str(p) for p in parts)
    h = 2166136261
    for ch in text.encode():
        h = (h ^ ch) * 16777619 & 0xFFFFFFFF
    return h


@dataclass
class MachineSimulator:
    """Simulate profiled runs of workloads on one machine.

    Parameters
    ----------
    machine:
        The machine specification.
    noise:
        Base relative jitter applied to times and counters (scaled further by
        each workload's ``noise_level``).  Set to 0.0 for exact model output.
    """

    machine: MachineSpec
    noise: float = 1.0

    # ------------------------------------------------------------------ #
    # Single run
    # ------------------------------------------------------------------ #
    def run(
        self,
        workload: Workload | WorkloadProfile,
        threads: int,
        *,
        dataset_scale: float = 1.0,
    ) -> SimulationResult:
        """Simulate one run at ``threads`` threads.

        ``dataset_scale`` multiplies the workload's default dataset; the total
        work and working sets grow proportionally (weak-scaling runs pass 2.0).
        """
        profile = (
            workload.profile(dataset_scale) if isinstance(workload, Workload) else workload
        )
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if threads > self.machine.total_threads:
            raise ValueError(
                f"{self.machine.name} has {self.machine.total_threads} hardware threads, "
                f"requested {threads}"
            )

        placement = self.machine.topology.place(threads)
        mix = profile.mix
        freq_hz = self.machine.frequency_ghz * 1e9

        total_ops = profile.total_ops
        ops_per_thread = total_ops / threads

        private_ws_kb = profile.private_working_set_mb * 1024.0
        if profile.partitioned_private:
            private_ws_kb /= threads
        shared_ws_kb = profile.shared_working_set_mb * 1024.0

        # The cache model depends on the working sets and the placement only,
        # so it stays fixed while the fixed point iterates.
        cache = self.machine.caches.behaviour(
            private_working_set_kb=private_ws_kb,
            shared_working_set_kb=shared_ws_kb,
            threads_on_chip=placement.max_threads_per_chip,
            shared_access_fraction=profile.shared_access_fraction,
            shared_write_fraction=profile.shared_write_fraction,
            total_threads=threads,
            locality=profile.locality,
        )
        miss_rate = cache.miss_rate()
        sync_models = profile.sync_models()

        # Fixed point over (cycles per op) <-> (contention, bandwidth demand).
        cycles_per_op = mix.useful_cycles_per_op * 2.0
        memory: MemoryBehaviour | None = None
        breakdown: StallBreakdown | None = None
        sync_cost: SyncCost = SyncCost()
        backend = {}
        for _ in range(_FIXED_POINT_ITERATIONS):
            sync_cost = combine_costs(*(model.cost(threads, cycles_per_op) for model in sync_models))
            mem_refs = mix.mem_refs_per_op + sync_cost.extra_coherence_accesses
            misses_per_op = mem_refs * miss_rate
            ops_per_second = freq_hz / max(cycles_per_op, 1.0)
            memory = self.machine.memory.behaviour(
                placement=placement,
                frequency_ghz=self.machine.frequency_ghz,
                misses_per_second_per_thread=misses_per_op * ops_per_second,
                shared_access_fraction=profile.shared_access_fraction,
            )
            breakdown = decompose_stalls(
                mix, cache, memory, icache_miss_rate=profile.icache_miss_rate
            )
            backend = dict(breakdown.backend)
            # Coherence traffic injected by the synchronization protocol shows
            # up as additional memory-latency stalls at the hardware level.
            backend[StallSource.MEMORY_LATENCY] += (
                sync_cost.extra_coherence_accesses * _COHERENCE_TRANSFER_CYCLES / mix.mlp
            )
            backend_total = sum(backend.values())
            cycles_per_op = (
                mix.useful_cycles_per_op + backend_total + sync_cost.total_software_cycles
            )

        assert memory is not None and breakdown is not None
        frontend = breakdown.frontend
        software_total = sync_cost.total_software_cycles

        # --- Execution time ------------------------------------------------
        parallel_cycles = ops_per_thread * cycles_per_op
        # Serial section: executed by one thread while the others idle.
        serial_cycles = profile.serial_fraction * total_ops * mix.useful_cycles_per_op
        # Serialized synchronization (critical sections, commits) bounds the
        # run regardless of thread count.
        serialized_floor = total_ops * sync_cost.serialized_cycles
        time_cycles = serial_cycles + max(parallel_cycles, serialized_floor)
        time_seconds = time_cycles / freq_hz

        # --- Counters (totals over all cores, like a perf aggregate) -------
        hardware = self._map_backend_counters(backend, total_ops)
        software = {
            name: value * total_ops for name, value in sync_cost.software_stall_cycles.items()
        }
        if not profile.software_stall_report:
            # The runtime cannot report software stalls for this workload;
            # the information simply is not available to ESTIMA.
            software = {}
        frontend_counters = {
            self._frontend_name(source): value * total_ops for source, value in frontend.items()
        }

        # --- Deterministic measurement jitter -------------------------------
        sigma = self.noise * profile.noise_level
        if sigma > 0.0:
            rng = np.random.default_rng(
                _stable_seed(self.machine.name, profile.name, threads, dataset_scale)
            )
            # One lognormal factor per value, drawn in the order time,
            # hardware, software, frontend (the same stream as one draw each).
            count = 1 + len(hardware) + len(software) + len(frontend_counters)
            factors = iter(np.exp(rng.normal(0.0, sigma, count)).tolist())
            time_seconds *= next(factors)
            hardware = {k: v * next(factors) for k, v in hardware.items()}
            software = {k: v * next(factors) for k, v in software.items()}
            frontend_counters = {k: v * next(factors) for k, v in frontend_counters.items()}

        details = SimulationDetails(
            useful_cycles_per_op=mix.useful_cycles_per_op,
            backend_stall_cycles_per_op=float(backend_total),
            software_stall_cycles_per_op=float(software_total),
            cycles_per_op=float(cycles_per_op),
            cache_miss_fraction=float(cache.memory_fraction),
            coherence_fraction=float(cache.coherence_fraction),
            memory_latency_cycles=float(memory.effective_latency_cycles),
            bandwidth_utilisation=float(memory.bandwidth_utilisation),
            remote_access_fraction=float(memory.remote_fraction),
            stm_abort_probability=(
                profile.stm.abort_probability(threads) if profile.stm is not None else 0.0
            ),
            lock_utilisation=(
                profile.locks.utilisation(threads, cycles_per_op)
                if profile.locks is not None
                else 0.0
            ),
            sockets_used=placement.sockets_used,
            chips_used=placement.chips_used,
        )
        return SimulationResult(
            workload=profile.name,
            machine=self.machine.name,
            threads=threads,
            dataset_scale=dataset_scale,
            time=float(time_seconds),
            hardware_stalls=hardware,
            software_stalls=software,
            frontend_stalls=frontend_counters,
            memory_footprint_mb=float(profile.total_working_set_mb),
            details=details,
        )

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def sweep(
        self,
        workload: Workload | WorkloadProfile,
        core_counts: list[int] | None = None,
        *,
        dataset_scale: float = 1.0,
        include_software: bool = True,
    ) -> MeasurementSet:
        """Simulate a full core-count sweep and package it as a MeasurementSet."""
        if core_counts is None:
            core_counts = self.machine.core_counts()
        profile = (
            workload.profile(dataset_scale) if isinstance(workload, Workload) else workload
        )
        results = [
            self.run(profile, threads, dataset_scale=dataset_scale) for threads in core_counts
        ]
        return MeasurementSet(
            measurements=tuple(
                r.to_measurement(include_software=include_software) for r in results
            ),
            workload=profile.name,
            machine=self.machine.name,
            frequency_ghz=self.machine.frequency_ghz,
            dataset_size=dataset_scale,
        )

    # ------------------------------------------------------------------ #
    # Counter mapping
    # ------------------------------------------------------------------ #
    def _map_backend_counters(
        self, backend: dict[StallSource, float], total_ops: float
    ) -> dict[str, float]:
        """Map vendor-neutral stall sources onto this machine's counter events."""
        by_source = self.machine.counters.backend_by_source()
        totals: dict[str, float] = {event.name: 0.0 for event in self.machine.counters.backend}
        for source, cycles_per_op in backend.items():
            target = source
            while target not in by_source:
                target = FALLBACK_SOURCE.get(target)
                if target is None:
                    break
            if target is None:
                # No counter measures this source on this machine; the cycles
                # are simply invisible to ESTIMA (as on real hardware).
                continue
            totals[by_source[target].name] += cycles_per_op * total_ops
        return totals

    def _frontend_name(self, source: StallSource) -> str:
        for event in self.machine.counters.frontend:
            if event.source == source:
                return event.name
        return source.value
