"""Cache-hierarchy model: locality, capacity and coherence misses.

The simulator does not track individual addresses; it estimates per-reference
outcome probabilities from three ingredients:

* **temporal locality** — the fraction of references that hit in the private
  levels (L1/L2) regardless of dataset size, because real access streams are
  heavily skewed towards a small hot set.  This is a workload property
  (``locality``) and is what keeps absolute miss rates in the realistic
  per-cent range even for multi-gigabyte working sets.
* **capacity** — the remaining "cold" references compete for the chip-shared
  last-level cache; their hit ratio follows a smooth capacity rule against the
  LLC share of each thread, so adding threads to a chip raises the miss rate.
* **coherence** — shared lines written by other threads miss regardless of
  capacity; the invalidation probability grows with the number of writers.

These three effects are exactly the ones whose growth with the thread count
feeds the ``reorder buffer full`` / ``LS full`` stall trends ESTIMA
extrapolates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .clamp import clamp

__all__ = ["CacheLevel", "CacheHierarchy", "CacheBehaviour"]

# Fraction of shared-written lines that actually bounce between caches per
# access (writes are bursty, not uniformly interleaved with every reader).
_COHERENCE_PROPENSITY = 0.12


@dataclass(frozen=True)
class CacheLevel:
    """One cache level; ``shared=True`` marks the chip-shared LLC."""

    name: str
    size_kb: float
    latency_cycles: float
    shared: bool = False

    def __post_init__(self) -> None:
        if self.size_kb <= 0:
            raise ValueError("cache size must be positive")
        if self.latency_cycles < 0:
            raise ValueError("latency must be non-negative")


@dataclass(frozen=True)
class CacheBehaviour:
    """Per-access outcome probabilities and average latencies for one run."""

    hit_fractions: dict[str, float]  # per level, fraction of accesses served there
    memory_fraction: float  # fraction of accesses going to DRAM
    coherence_fraction: float  # fraction of accesses that are coherence misses
    avg_hit_latency_cycles: float  # average latency of accesses served by caches

    def miss_rate(self) -> float:
        """Fraction of memory references that leave the cache hierarchy."""
        return self.memory_fraction + self.coherence_fraction


@dataclass(frozen=True)
class CacheHierarchy:
    """Private upper levels plus a chip-shared last-level cache."""

    levels: tuple[CacheLevel, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a cache hierarchy needs at least one level")

    @property
    def private_levels(self) -> tuple[CacheLevel, ...]:
        return tuple(level for level in self.levels if not level.shared)

    @property
    def shared_level(self) -> CacheLevel | None:
        for level in self.levels:
            if level.shared:
                return level
        return None

    @staticmethod
    def _capacity_hit_ratio(working_set_kb: float, capacity_kb: float) -> float:
        """Smooth capacity rule for the cold-reference stream.

        Full hits while the cold set fits; a square-root tail (approximating
        set-associative behaviour) once it does not.
        """
        if working_set_kb <= 0.0:
            return 1.0
        ratio = capacity_kb / working_set_kb
        if ratio >= 1.0:
            return 1.0
        return math.sqrt(ratio)

    def behaviour(
        self,
        *,
        private_working_set_kb: float,
        shared_working_set_kb: float,
        threads_on_chip: int,
        shared_access_fraction: float,
        shared_write_fraction: float,
        total_threads: int,
        locality: float = 0.97,
    ) -> CacheBehaviour:
        """Estimate the access-outcome structure for one thread of the run.

        Parameters
        ----------
        private_working_set_kb / shared_working_set_kb:
            Data only this thread touches, and data all threads touch.
        threads_on_chip:
            Threads competing for this chip's shared LLC.
        shared_access_fraction / shared_write_fraction:
            Of all references, the fraction touching shared data, and of those
            the fraction that are writes (drives invalidations).
        total_threads:
            Total threads in the run (coherence needs a second thread).
        locality:
            Fraction of references absorbed by the private levels thanks to
            temporal locality, independent of the dataset size.
        """
        if threads_on_chip < 1 or total_threads < 1:
            raise ValueError("thread counts must be >= 1")
        if not 0.0 <= locality <= 1.0:
            raise ValueError("locality must be within [0, 1]")
        shared_access_fraction = clamp(shared_access_fraction, 0.0, 1.0)
        shared_write_fraction = clamp(shared_write_fraction, 0.0, 1.0)

        ws_kb = private_working_set_kb + shared_working_set_kb
        hit_fractions: dict[str, float] = {level.name: 0.0 for level in self.levels}
        weighted_latency = 0.0

        # Hot references: served by the private levels (mostly the first one).
        privates = self.private_levels or self.levels[:1]
        hot = locality
        first_share = 0.8  # bulk of hot hits land in the first level
        if len(privates) == 1:
            shares = [1.0]
        else:
            rest = (1.0 - first_share) / (len(privates) - 1)
            shares = [first_share] + [rest] * (len(privates) - 1)
        for level, share in zip(privates, shares):
            served = hot * share
            hit_fractions[level.name] += served
            weighted_latency += served * level.latency_cycles

        # Cold references: capacity rule against this thread's LLC share.
        cold = 1.0 - locality
        llc = self.shared_level
        if llc is not None and cold > 0.0:
            llc_share_kb = llc.size_kb / threads_on_chip
            llc_hit = self._capacity_hit_ratio(ws_kb, llc_share_kb)
            served = cold * llc_hit
            hit_fractions[llc.name] += served
            weighted_latency += served * llc.latency_cycles
            remaining = cold - served
        else:
            remaining = cold

        # Coherence: shared lines written by another thread are invalid in any
        # cache.  Applies to the shared slice of all references.
        sharing_penalty = shared_access_fraction * shared_write_fraction
        coherence = (
            _COHERENCE_PROPENSITY * sharing_penalty * (1.0 - 1.0 / total_threads)
        )
        coherence = clamp(coherence, 0.0, 0.5)

        cache_served = sum(hit_fractions.values())
        stolen = min(coherence, cache_served)
        if cache_served > 0.0 and stolen > 0.0:
            shrink = (cache_served - stolen) / cache_served
            for name in hit_fractions:
                hit_fractions[name] *= shrink
            weighted_latency *= shrink

        total_hits = sum(hit_fractions.values())
        avg_hit_latency = weighted_latency / total_hits if total_hits > 0 else 0.0
        return CacheBehaviour(
            hit_fractions=hit_fractions,
            memory_fraction=float(max(remaining, 0.0)),
            coherence_fraction=float(stolen),
            avg_hit_latency_cycles=float(avg_hit_latency),
        )
