"""Table 1: the extrapolation function kernels.

There is nothing to measure in the paper's Table 1 itself — it defines the
kernel set — so this bench validates and times what the kernels are for:
fitting measured stalled-cycle series.  Each kernel is fitted to the intruder
ROB-stall series measured up to 12 cores (8 points of the Opteron grid),
holding out the last ``EstimaConfig().checkpoints`` points, and its RMSE at
those checkpoints is reported.
"""

from __future__ import annotations

import numpy as np

from conftest import OPTERON_GRID, run_once
from repro.core import EstimaConfig
from repro.core.fitting import fit_kernel
from repro.core.kernels import KERNELS


def bench_tab01_kernel_fit_quality(benchmark, sweep_cache):
    sweep = sweep_cache("opteron48", "intruder", OPTERON_GRID)
    measured = sweep.restrict_to(12)
    cores = measured.cores.astype(float)
    series = measured.category_series("dispatch_stall_reorder_buffer_full")

    train = cores.size - EstimaConfig().checkpoints

    def pipeline():
        results = {}
        for name, kernel in KERNELS.items():
            fitted = fit_kernel(kernel, cores[:train], series[:train])
            if fitted is None:
                results[name] = float("nan")
                continue
            checkpoints = fitted(cores[train:])
            results[name] = float(np.sqrt(np.mean((checkpoints - series[train:]) ** 2)))
        return results

    rmse_by_kernel = run_once(benchmark, pipeline)
    print()
    print("# Table 1: kernel families and their checkpoint RMSE on intruder ROB stalls")
    print(f"{'kernel':<10s} {'function':<50s} {'checkpoint RMSE':>16s}")
    for name, kernel in KERNELS.items():
        print(f"{name:<10s} {kernel.description:<50s} {rmse_by_kernel[name]:>16.3e}")
    assert set(rmse_by_kernel) == set(EstimaConfig().kernel_names)
    assert all(np.isfinite(value) for value in rmse_by_kernel.values()), rmse_by_kernel
