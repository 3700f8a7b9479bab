"""Multi-workload measurement campaigns (the paper's Tables 4, 5 and 7).

A campaign runs the same experiment over a list of workloads and collects the
per-workload maximum prediction errors for one or more prediction targets —
exactly the structure of Table 4 ("maximum prediction errors with measurements
on one processor of each machine") and Table 7 (Xeon20-to-Xeon48).

Campaigns execute on the engine layer: workloads are independent tasks mapped
through a pluggable :class:`~repro.engine.executor.Executor` (serial by
default, process-pool parallel on request), and the per-target predictions of
each workload are served by a :class:`~repro.engine.service.PredictionService`
that computes the pipeline once at the largest target and slices the curve for
the smaller ones — the same numbers the original serial loop produced, now
computed once.  Serial, parallel and cached runs are verified to produce
identical rows by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core import EstimaConfig
from repro.engine.executor import Executor, executor_for_config
from repro.engine.profiling import PROFILER, profile_delta
from repro.engine.service import PredictionRequest, PredictionService
from repro.machine.machines import MachineSpec
from repro.workloads.registry import TABLE4_WORKLOADS, get_workload

from .experiment import Experiment, scaling_behaviour_correct

__all__ = ["CampaignRow", "CampaignResult", "ErrorCampaign"]


@dataclass(frozen=True)
class CampaignRow:
    """Per-workload error summary, one column per prediction target."""

    workload: str
    max_errors_pct: Mapping[str, float]  # target label -> max error (%)
    baseline_errors_pct: Mapping[str, float]
    behaviour_correct: bool


@dataclass(frozen=True)
class CampaignResult:
    """All rows of one campaign plus aggregate statistics.

    ``engine_stats`` records how the run was executed (backend name, cache
    hit/miss counters); it is diagnostic only and excluded from equality so
    that serial, parallel and cached runs with identical rows compare equal.
    """

    machine: str
    measurement_cores: int
    rows: tuple[CampaignRow, ...]
    target_labels: tuple[str, ...]
    engine_stats: Mapping[str, object] | None = field(default=None, compare=False)

    def errors_for(self, label: str) -> np.ndarray:
        return np.asarray([row.max_errors_pct[label] for row in self.rows], dtype=float)

    def average_error(self, label: str) -> float:
        return float(np.mean(self.errors_for(label)))

    def std_error(self, label: str) -> float:
        return float(np.std(self.errors_for(label)))

    def max_error(self, label: str) -> float:
        return float(np.max(self.errors_for(label)))

    def workloads_below(self, label: str, threshold_pct: float) -> int:
        """How many workloads stay below an error threshold (paper's headline counts)."""
        return int(np.sum(self.errors_for(label) < threshold_pct))

    def all_behaviours_correct(self) -> bool:
        """The paper's qualitative claim: no workload's behaviour is mispredicted."""
        return all(row.behaviour_correct for row in self.rows)

    def format_table(self, *, decimals: int = 1) -> str:
        """Render a Table-4 style text table."""
        header = f"{'Benchmark':<18s} " + "  ".join(f"{l:>10s}" for l in self.target_labels)
        lines = [header, "-" * len(header)]
        for row in self.rows:
            cells = "  ".join(
                f"{row.max_errors_pct[l]:>10.{decimals}f}" for l in self.target_labels
            )
            lines.append(f"{row.workload:<18s} {cells}")
        lines.append("-" * len(header))
        for stat_name, stat in (
            ("Average", self.average_error),
            ("Std. Dev.", self.std_error),
            ("Max.", self.max_error),
        ):
            cells = "  ".join(f"{stat(l):>10.{decimals}f}" for l in self.target_labels)
            lines.append(f"{stat_name:<18s} {cells}")
        return "\n".join(lines)


@dataclass(frozen=True)
class _CampaignTask:
    """Picklable description of one campaign workload (one output row)."""

    workload: str
    machine: MachineSpec
    measurement_cores: int
    targets: tuple[tuple[str, int], ...]
    config: EstimaConfig
    include_software_stalls: bool
    core_counts: tuple[int, ...] | None


def _run_campaign_task(
    task: _CampaignTask, service: PredictionService | None = None
) -> tuple[CampaignRow, dict[str, dict[str, int]]]:
    """Produce one campaign row (module-level so process pools can pickle it).

    The ground truth is simulated once, then every (estima, baseline) x target
    prediction is served by the prediction service: the service computes each
    pipeline once at the largest requested target and slices the curve for the
    smaller targets, which is exactly how the original serial loop evaluated
    its per-target errors.  Returns the row plus the cache counters observed
    while producing it (global regions reported as deltas so parallel workers
    can be summed without double counting).
    """
    experiment = Experiment(
        machine=task.machine,
        config=task.config,
        include_software_stalls=task.include_software_stalls,
    )
    truth = experiment.ground_truth(
        get_workload(task.workload),
        core_counts=list(task.core_counts) if task.core_counts is not None else None,
    )
    measured = truth.restrict_to(task.measurement_cores)

    service = service if service is not None else PredictionService(task.config)
    before = service.cache_stats()
    requests = [
        PredictionRequest(measured, target, baseline=baseline)
        for baseline in (False, True)
        for _, target in task.targets
    ]
    predictions = service.predict_batch(requests)
    estima_preds = predictions[: len(task.targets)]
    baseline_preds = predictions[len(task.targets) :]

    errors: dict[str, float] = {}
    baseline_errors: dict[str, float] = {}
    for (label, target), estima, baseline in zip(task.targets, estima_preds, baseline_preds):
        eval_cores = [
            int(c) for c in truth.cores if task.measurement_cores < c <= target
        ]
        errors[label] = estima.evaluate(truth, core_counts=eval_cores).max_error_pct
        baseline_errors[label] = baseline.evaluate(truth, core_counts=eval_cores).max_error_pct

    # Behaviour is judged on the full (largest-target) prediction, as before.
    full_estima = max(estima_preds, key=lambda p: p.target_cores)
    row = CampaignRow(
        workload=task.workload,
        max_errors_pct=errors,
        baseline_errors_pct=baseline_errors,
        behaviour_correct=scaling_behaviour_correct(
            truth, full_estima, task.measurement_cores
        ),
    )
    return row, _stats_delta(before, service.cache_stats())


def _stats_delta(
    before: Mapping[str, Mapping[str, int]], after: Mapping[str, Mapping[str, int]]
) -> dict[str, dict[str, int]]:
    """Per-region (hits, misses) accumulated between two stats snapshots."""
    delta: dict[str, dict[str, int]] = {}
    for region, counts in after.items():
        prior = before.get(region, {})
        delta[region] = {
            key: int(counts.get(key, 0)) - int(prior.get(key, 0)) for key in counts
        }
    return delta


def _merge_stats(
    totals: dict[str, dict[str, int]], part: Mapping[str, Mapping[str, int]]
) -> None:
    for region, counts in part.items():
        bucket = totals.setdefault(region, {})
        for key, value in counts.items():
            bucket[key] = bucket.get(key, 0) + int(value)


@dataclass
class ErrorCampaign:
    """Run ESTIMA over many workloads and several prediction targets.

    The per-workload tasks are independent and run through the engine layer:
    ``executor`` (an :class:`~repro.engine.executor.Executor` instance or
    backend name) overrides ``config.executor`` / ``ESTIMA_EXECUTOR``; the
    default serial backend reproduces the seed numbers bit for bit, and the
    parallel backend produces the same rows from worker processes.  Setting
    ``config.use_fit_cache`` additionally memoizes kernel fits and chosen
    extrapolations inside each process.
    """

    machine: MachineSpec
    measurement_cores: int
    targets: Mapping[str, int]  # label -> target core count
    config: EstimaConfig = field(default_factory=EstimaConfig)
    include_software_stalls: bool = True
    core_counts: Sequence[int] | None = None
    executor: Executor | str | None = None

    def run(
        self,
        workload_names: Iterable[str] | None = None,
        *,
        on_row: Callable[[CampaignRow], None] | None = None,
    ) -> CampaignResult:
        """Run the campaign; returns one row per workload (in input order).

        ``on_row`` streams progress: it is invoked with each finished
        :class:`CampaignRow` as soon as it completes, always in input order
        (the serve protocol's ``campaign`` op emits one NDJSON line per
        callback).  The returned result is identical with or without a
        callback — streaming changes when rows become visible, never their
        values.
        """
        names = tuple(workload_names) if workload_names is not None else TABLE4_WORKLOADS
        tasks = [
            _CampaignTask(
                workload=name,
                machine=self.machine,
                measurement_cores=self.measurement_cores,
                targets=tuple(self.targets.items()),
                config=self.config,
                include_software_stalls=self.include_software_stalls,
                core_counts=tuple(self.core_counts) if self.core_counts is not None else None,
            )
            for name in names
        ]
        executor = executor_for_config(self.config, self.executor)
        if executor.requires_pickling:
            # Workers build their own service; tasks and results cross the
            # process boundary, the service (and its caches) do not.
            outcome_iter = executor.imap(_run_campaign_task, tasks)
        else:
            # In-process: share one service so identical measurement sets are
            # deduplicated across workloads too, not only across targets.
            service = PredictionService(self.config)
            outcome_iter = executor.imap(
                lambda task: _run_campaign_task(task, service), tasks
            )

        rows: list[CampaignRow] = []
        cache_totals: dict[str, dict[str, int]] = {}
        profile_before = PROFILER.snapshot()
        for row, stats in outcome_iter:
            rows.append(row)
            _merge_stats(cache_totals, stats)
            if on_row is not None:
                on_row(row)
        return CampaignResult(
            machine=self.machine.name,
            measurement_cores=self.measurement_cores,
            rows=tuple(rows),
            target_labels=tuple(self.targets),
            engine_stats={
                "executor": executor.name,
                "workloads": len(tasks),
                "caches": cache_totals,
                "executor_stats": executor.stats(),
                # Per-stage fit timings of this run (in-process stages only:
                # a process-pool backend fits in its workers, whose profilers
                # are per-process, so the delta is empty there).
                "profile": profile_delta(profile_before, PROFILER.snapshot()),
            },
        )
