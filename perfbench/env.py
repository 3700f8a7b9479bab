"""Hermetic environment and host fingerprint of a benchmark run."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def make_hermetic() -> None:
    """Drop every ``ESTIMA_*`` variable before ``repro`` is imported.

    ``ESTIMA_EXECUTOR``, ``ESTIMA_FIT_SCREEN``, ``ESTIMA_CACHE_DIR`` and
    friends would otherwise silently change what is measured; every setting
    the benchmark needs is passed as an explicit argument instead.
    """
    for name in [n for n in os.environ if n.startswith("ESTIMA_")]:
        del os.environ[name]


def child_env() -> dict[str, str]:
    """Environment of a subprocess: hermetic, with ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ESTIMA_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` in an exported tree."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True, cwd=ROOT,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def fingerprint(seed: int) -> dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }
