"""Golden answers: generation and the checks the benchmark applies.

Regenerate (takes a few minutes; run from the repository root)::

    python3 perfbench/golden.py

It computes, with the repository's reference pipeline, every answer any
seed can draw: the Table-4 campaign rows of all 19 workloads and every
warm-pool and miss prediction of :mod:`inputs`.  The file records the
regeneration command and the git sha it was generated at.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: Predicted times may differ by this relative amount before a response
#: counts as wrong.
TIME_REL_TOL = 1e-6
#: Table-4 errors may differ by this many percentage points.
ERROR_PP_TOL = 0.1


def _answer(payload: dict) -> dict:
    """The part of a prediction payload the golden file pins."""
    answer = {"predicted_times_s": [float(f"{t:.12g}") for t in payload["predicted_times_s"]]}
    if "category_kernels" in payload:
        answer["category_kernels"] = payload["category_kernels"]
        answer["scaling_kernel"] = payload["scaling_factor"]["kernel"]
    else:
        answer["kernel"] = payload["kernel"]
    return answer


def check_prediction(golden: dict, payload: dict) -> str | None:
    """Why ``payload`` (a served result document) differs from ``golden``, or None."""
    try:
        answer = _answer(payload)
    except (KeyError, TypeError) as exc:
        return f"malformed result: {exc!r}"
    for field in ("category_kernels", "scaling_kernel", "kernel"):
        if golden.get(field) != answer.get(field):
            return f"{field}: {answer.get(field)!r} != golden {golden.get(field)!r}"
    want, got = golden["predicted_times_s"], answer["predicted_times_s"]
    if len(want) != len(got):
        return f"{len(got)} predicted times != golden {len(want)}"
    for i, (w, g) in enumerate(zip(want, got)):
        if not math.isclose(w, g, rel_tol=TIME_REL_TOL, abs_tol=0.0):
            return f"predicted time at {i + 1} cores: {g!r} != golden {w!r}"
    return None


def check_row(golden: dict, row: dict) -> str | None:
    """Why a campaign row payload differs from its golden row, or None."""
    if row.get("behaviour_correct") != golden["behaviour_correct"]:
        return f"{row.get('workload')}: behaviour flag {row.get('behaviour_correct')!r}"
    for field in ("max_errors_pct", "baseline_errors_pct"):
        for label, want in golden[field].items():
            got = row.get(field, {}).get(label)
            if got is None or not abs(got - want) <= ERROR_PP_TOL:
                return f"{row.get('workload')}: {field}[{label}] {got!r} != golden {want!r}"
    return None


def generate() -> dict:
    from repro.core import EstimaConfig, EstimaPredictor, TimeExtrapolation
    from repro.engine.cache import caches_enabled
    from repro.machine.machines import get_machine
    from repro.runner.campaign import ErrorCampaign
    from repro.runner.io import baseline_payload, campaign_row_payload, prediction_payload

    import env
    import inputs

    config = EstimaConfig()
    campaign = ErrorCampaign(
        machine=get_machine(inputs.CAMPAIGN_MACHINE),
        measurement_cores=inputs.CAMPAIGN_MEASURE_CORES,
        targets=inputs.CAMPAIGN_TARGETS,
        config=config,
        executor="serial",
    )
    rows: dict[str, dict] = {}
    for name in sorted(w for stratum in inputs.CAMPAIGN_STRATA for w in stratum):
        [row] = campaign.run([name]).rows
        rows[name] = campaign_row_payload(row)
        del rows[name]["workload"]
        print(f"campaign row {name}", file=sys.stderr, flush=True)

    from repro.core.measurement import MeasurementSet

    predictions: dict[str, dict] = {}
    # The fit cache only shares fits between the requests of one measurement
    # set; cached answers are bit-identical to computed ones.
    with caches_enabled(True):
        for request in inputs.all_serve_requests():
            measured = MeasurementSet.from_dict(
                inputs.measurements(request.workload, request.machine, request.scale)
            )
            if request.kind == "baseline":
                payload = baseline_payload(
                    TimeExtrapolation(config).predict(measured, target_cores=request.target)
                )
            else:
                payload = prediction_payload(
                    EstimaPredictor(config).predict(measured, target_cores=request.target)
                )
            predictions[request.key] = _answer(payload)
            print(f"prediction {request.key}", file=sys.stderr, flush=True)
    return {
        "generated_by": "python3 perfbench/golden.py",
        "git_sha": env.git_sha(),
        "tolerances": {"time_rel": TIME_REL_TOL, "table4_error_pp": ERROR_PP_TOL},
        "campaign": {
            "machine": inputs.CAMPAIGN_MACHINE,
            "measure_cores": inputs.CAMPAIGN_MEASURE_CORES,
            "targets": inputs.CAMPAIGN_TARGETS,
            "rows": rows,
        },
        "predictions": predictions,
    }


if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    import env

    env.make_hermetic()
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
