"""Golden pin of the machine simulator's output, bit for bit.

The simulator stands in for the paper's full-machine runs: every Table-4
error is scored against its sweeps.  A speed-up of the simulator is only
acceptable if it reproduces every simulated float exactly, so this module
pins two SHA-256 digests per machine against ``simulator_golden.json``:

* ``sweeps`` covers every value of ``MachineSimulator.sweep`` for all
  workloads at dataset scales 0.5, 1, 2 and 4 (default core counts);
* ``runs`` covers the :class:`SimulationDetails`, the time and the three
  stall dicts of ``MachineSimulator.run`` at 1 thread, half the hardware
  threads and all of them (dataset scale 1).

Floats are hashed through ``float.hex`` and dict keys in insertion order, so
a changed last bit, a changed key order or a float turning into an int all
change the digest.  A digest change is a failure, not a fixture update.
Regenerate the fixture only for a deliberate change of the simulated
numbers, and state why::

    PYTHONPATH=src python tests/simulation/test_simulator_golden.py --reason "..."

The measurement jitter is drawn with numpy's random generator, so the
fixture records the numpy version it was made with.  Under another numpy
version the digest comparisons are skipped (with that reason); the
structural checks still run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # allow regeneration from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.machine.machines import MACHINES, get_machine  # noqa: E402
from repro.simulation import MachineSimulator  # noqa: E402
from repro.workloads import get_workload, workload_names  # noqa: E402

FIXTURE = Path(__file__).with_name("simulator_golden.json")
SCALES = (0.5, 1.0, 2.0, 4.0)


def _canonical(value: object) -> str:
    """Exact, order-preserving text form of a JSON-like value."""
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{_canonical(k)}:{_canonical(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def _run_thread_counts(machine) -> tuple[int, ...]:
    total = machine.total_threads
    return tuple(sorted({1, max(total // 2, 1), total}))


def sweep_digests() -> dict[str, str]:
    """Per machine: SHA-256 over every sweep value, all workloads and scales."""
    out = {}
    for machine_name in sorted(MACHINES):
        sim = MachineSimulator(get_machine(machine_name))
        h = hashlib.sha256()
        for workload_name in workload_names():
            workload = get_workload(workload_name)
            for scale in SCALES:
                payload = sim.sweep(workload, dataset_scale=scale).to_dict()
                h.update(_canonical(payload).encode())
                h.update(b"\n")
        out[machine_name] = h.hexdigest()
    return out


def run_digests() -> dict[str, str]:
    """Per machine: SHA-256 over ``run`` details and stall dicts at 1/half/all threads."""
    out = {}
    for machine_name in sorted(MACHINES):
        machine = get_machine(machine_name)
        sim = MachineSimulator(machine)
        h = hashlib.sha256()
        for workload_name in workload_names():
            workload = get_workload(workload_name)
            for threads in _run_thread_counts(machine):
                result = sim.run(workload, threads)
                payload = {
                    "threads": result.threads,
                    "time": result.time,
                    "details": dataclasses.asdict(result.details),
                    "hardware_stalls": dict(result.hardware_stalls),
                    "software_stalls": dict(result.software_stalls),
                    "frontend_stalls": dict(result.frontend_stalls),
                    "memory_footprint_mb": result.memory_footprint_mb,
                }
                h.update(_canonical(payload).encode())
                h.update(b"\n")
        out[machine_name] = h.hexdigest()
    return out


def _combined(per_machine: dict[str, str]) -> str:
    return hashlib.sha256(
        "".join(f"{name}={per_machine[name]}\n" for name in sorted(per_machine)).encode()
    ).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def _require_same_numpy(golden: dict) -> None:
    if golden["numpy"] != np.__version__:
        pytest.skip(
            f"fixture made with numpy {golden['numpy']}, running {np.__version__}: the "
            "simulator's measurement jitter comes from numpy's random generator, whose "
            "bits may differ between versions"
        )


class TestSimulatorGolden:
    def test_fixture_covers_every_machine(self, golden):
        assert set(golden["sweeps"]) == set(MACHINES)
        assert set(golden["runs"]) == set(MACHINES)
        assert golden["workloads"] == list(workload_names())
        assert golden["scales"] == list(SCALES)
        assert golden["reason"]

    def test_sweeps_are_bit_identical(self, golden):
        _require_same_numpy(golden)
        digests = sweep_digests()
        assert digests == golden["sweeps"]
        assert _combined(digests) == golden["sweeps_sha256"]

    def test_runs_are_bit_identical(self, golden):
        _require_same_numpy(golden)
        digests = run_digests()
        assert digests == golden["runs"]
        assert _combined(digests) == golden["runs_sha256"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate simulator_golden.json.")
    parser.add_argument("--reason", required=True, help="why the simulated numbers changed")
    args = parser.parse_args(argv)
    sweeps, runs = sweep_digests(), run_digests()
    fixture = {
        "reason": args.reason,
        "numpy": np.__version__,
        "workloads": list(workload_names()),
        "scales": list(SCALES),
        "sweeps_sha256": _combined(sweeps),
        "runs_sha256": _combined(runs),
        "sweeps": sweeps,
        "runs": runs,
    }
    FIXTURE.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
