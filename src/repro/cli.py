"""Command-line interface: an ``estima``-style tool around the library.

The original ESTIMA is driven from the command line: point it at an
application, let it collect counters for increasing core counts, and get a
scalability prediction back.  This CLI mirrors that workflow on top of the
simulation substrate:

``estima predict --workload intruder --machine opteron48 --measure-cores 12 --target-cores 48``
    Simulate the measurement runs, run the extrapolation, print the predicted
    execution times and the bottleneck report.

``estima measure --workload intruder --machine opteron48 --cores 12 --output meas.json``
    Only collect (simulated) measurements and write them to a JSON file that
    ``estima predict --input meas.json`` can consume later — the same
    file-oriented flow the original tool uses with real ``perf`` data.

``estima campaign --machine opteron48 --measure-cores 12 --targets "2 CPUs=24,4 CPUs=48" --workloads genome,intruder``
    Run a multi-workload, multi-target error campaign (a Table-4 style run)
    on the execution engine.  ``--executor parallel[:N]`` fans the workloads
    out over a process pool and ``--fit-cache`` memoizes kernel fits; both are
    verified to produce the same numbers as the serial default.

``estima serve --socket /tmp/estima.sock`` / ``--tcp HOST:PORT`` / ``--http HOST:PORT``
    Long-lived serving mode: accept JSON prediction requests (the
    ``estima predict --json`` schema) over stdin/stdout, a unix socket, a
    raw-TCP NDJSON listener, or the HTTP/JSON gateway (``POST
    /v1/predict``, ``POST /v1/predict_batch``, streamed ``POST
    /v1/campaign``, ``GET /healthz``, ``GET /metrics`` — see
    ``docs/serve-protocol.md``); coalesce concurrent requests into
    micro-batches on the prediction service; with ``--stats``, print the
    throughput/latency/cache counters on shutdown (the same snapshot ``GET
    /metrics`` renders).  ``--workers N`` (or ``ESTIMA_SERVE_WORKERS``)
    forks N worker processes behind the socket — NDJSON and HTTP alike —
    sharing the persistent disk cache tier; a ``{"op": "campaign"}``
    request streams Table-4 style campaign rows over the same protocol as
    they complete.

``estima route --http HOST:PORT --backends host1:port,host2:port``
    Cluster router: serve the gateway's exact HTTP surface but shard every
    predict/batch/campaign request across downstream ``estima serve``
    backends by consistent-hash digest (same request -> same backend -> hot
    shard caches), with per-host retries, health tracking and ring failover;
    ``GET /healthz`` probes the backends, ``GET /metrics`` aggregates router
    and per-backend counters.  ``ESTIMA_ROUTE_BACKENDS`` provides the
    backend-list default.

``estima cache stats|clear|warm|export|import``
    Manage the persistent disk tier of the fit/extrapolation caches
    (``--cache-dir`` / ``ESTIMA_CACHE_DIR``): show per-region entry counts,
    wipe it, or pre-populate it for a workload set so later runs start warm.
    ``export --output fits.tar.gz`` packs the tier into a schema-versioned
    archive and ``import --input fits.tar.gz`` loads one (digest-verified;
    with ``--ring-backends``/``--ring-node`` only this shard's slice) — warm
    fits computed once ship to every serving host.

``estima profile --workload intruder --machine opteron48 --measure-cores 12 --target-cores 48``
    Run the prediction once with cold caches and print its wall time and a
    per-stage timing table (design solves, non-linear solves, realism
    screening, checkpoint scoring).  ``--json`` emits the same numbers
    machine-readably.

``estima list``
    Show the available workloads and machines.

``estima predict --json`` emits a machine-readable JSON document instead of
text tables so downstream tooling can consume predictions without scraping;
``--stats`` appends engine cache hit/miss and executor counters to either
output form.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro.analysis.bottleneck import BottleneckReport
from repro.core import EstimaConfig, EstimaPredictor, MeasurementSet, TimeExtrapolation
from repro.engine.cache import cache_stats, caches_enabled, clear_caches, disk_tier
from repro.engine.executor import get_executor
from repro.engine.profiling import PROFILER, profile_delta
from repro.engine.store import default_cache_dir, store_for
from repro.machine.machines import MACHINES, get_machine
from repro.runner.campaign import ErrorCampaign
from repro.runner.io import campaign_result_payload, prediction_payload, save_table
from repro.simulation import MachineSimulator
from repro.workloads.registry import TABLE4_WORKLOADS, WORKLOADS, get_workload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="estima",
        description="Extrapolate the scalability of in-memory applications from stalled cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list available workloads and machines")
    list_cmd.set_defaults(func=_cmd_list)

    measure = sub.add_parser("measure", help="collect (simulated) measurements to a JSON file")
    measure.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    measure.add_argument("--machine", required=True, choices=sorted(MACHINES))
    measure.add_argument("--cores", type=int, default=None, help="highest core count to measure")
    measure.add_argument("--dataset-scale", type=float, default=1.0)
    measure.add_argument("--output", required=True, help="output JSON path")
    measure.set_defaults(func=_cmd_measure)

    predict = sub.add_parser("predict", help="predict scalability for a larger core count")
    predict.add_argument("--workload", choices=sorted(WORKLOADS), help="workload to simulate")
    predict.add_argument("--machine", choices=sorted(MACHINES), help="machine to simulate on")
    predict.add_argument("--input", help="measurement JSON produced by 'estima measure'")
    predict.add_argument("--measure-cores", type=int, default=None)
    predict.add_argument("--target-cores", type=int, required=True)
    predict.add_argument("--checkpoints", type=int, default=2)
    predict.add_argument("--no-software-stalls", action="store_true")
    predict.add_argument("--baseline", action="store_true", help="also run time extrapolation")
    predict.add_argument("--dataset-ratio", type=float, default=1.0)
    predict.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a machine-readable JSON document instead of text tables",
    )
    predict.add_argument(
        "--executor",
        default=None,
        help="execution backend: serial or parallel[:N]",
    )
    predict.add_argument(
        "--fit-cache",
        action="store_true",
        help="memoize kernel fits and extrapolations (identical numbers, fewer solves)",
    )
    predict.add_argument(
        "--cache-dir",
        default=None,
        help="persistent disk tier for the fit cache; implies --fit-cache (default: $ESTIMA_CACHE_DIR)",
    )
    predict.add_argument(
        "--stats",
        action="store_true",
        help="print engine cache hit/miss and executor counters after the run",
    )
    predict.set_defaults(func=_cmd_predict)

    campaign = sub.add_parser(
        "campaign", help="run a multi-workload, multi-target error campaign"
    )
    campaign.add_argument("--machine", required=True, choices=sorted(MACHINES))
    campaign.add_argument("--measure-cores", type=int, required=True)
    campaign.add_argument(
        "--targets",
        required=True,
        help="comma-separated prediction targets, each 'label=cores' or a bare core count",
    )
    campaign.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names (default: the Table-4 set)",
    )
    campaign.add_argument(
        "--core-counts",
        default=None,
        help="comma-separated core counts to sweep (default: every machine core count)",
    )
    campaign.add_argument(
        "--executor",
        default=None,
        help="execution backend: serial or parallel[:N] "
        "(workload-level; default: $ESTIMA_EXECUTOR or serial)",
    )
    campaign.add_argument(
        "--fit-cache",
        action="store_true",
        help="memoize kernel fits and extrapolations (identical numbers, fewer solves)",
    )
    campaign.add_argument(
        "--cache-dir",
        default=None,
        help="persistent disk tier for the fit cache; implies --fit-cache (default: $ESTIMA_CACHE_DIR)",
    )
    campaign.add_argument(
        "--stats",
        action="store_true",
        help="print detailed engine cache and executor counters after the run",
    )
    campaign.add_argument("--no-software-stalls", action="store_true")
    campaign.add_argument("--output", default=None, help="also write the rows as CSV")
    campaign.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit rows and aggregates as JSON instead of the text table",
    )
    campaign.set_defaults(func=_cmd_campaign)

    serve = sub.add_parser(
        "serve",
        help="serve JSON prediction requests over stdin/stdout, a unix socket, TCP or HTTP",
    )
    serve.add_argument(
        "--socket", default=None, help="unix socket path (default: stdin/stdout)"
    )
    serve.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="NDJSON TCP listening address (port 0 picks a free port)",
    )
    serve.add_argument(
        "--http",
        default=None,
        metavar="HOST:PORT",
        help="HTTP/JSON gateway listening address (predict/predict_batch/campaign/"
        "healthz/metrics routes; default: $ESTIMA_SERVE_HTTP; port 0 picks a free port)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes behind the socket "
        "(default: $ESTIMA_SERVE_WORKERS or 0 = serve in-process; needs --tcp or --socket)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=None, help="micro-batch size bound"
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=None,
        help="how long to wait for more requests after the first of a batch",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=None, help="bounded request queue (backpressure)"
    )
    serve.add_argument("--fit-cache", action="store_true")
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="persistent disk tier for warm restarts; implies --fit-cache (default: $ESTIMA_CACHE_DIR)",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="print the stats snapshot (one JSON line, the same counters GET /metrics "
        "reports) to stderr on shutdown",
    )
    serve.set_defaults(func=_cmd_serve)

    route = sub.add_parser(
        "route",
        help="HTTP router sharding requests across estima serve backends by digest",
    )
    route.add_argument(
        "--http",
        required=True,
        metavar="HOST:PORT",
        help="router listening address (port 0 picks a free port)",
    )
    route.add_argument(
        "--backends",
        default=None,
        metavar="HOST:PORT,...",
        help="downstream estima serve NDJSON backends "
        "(default: $ESTIMA_ROUTE_BACKENDS)",
    )
    route.add_argument(
        "--vnodes",
        type=int,
        default=None,
        help="virtual nodes per backend on the hash ring (placement knob)",
    )
    route.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request backend socket timeout in seconds "
        "(default: $ESTIMA_REMOTE_TIMEOUT or 30)",
    )
    route.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries per backend before ring failover "
        "(default: $ESTIMA_REMOTE_RETRIES or 2)",
    )
    route.add_argument(
        "--stats",
        action="store_true",
        help="print the router stats snapshot (one JSON line, the same counters "
        "GET /metrics reports) to stderr on shutdown",
    )
    route.set_defaults(func=_cmd_route)

    cache = sub.add_parser(
        "cache", help="inspect or manage the persistent fit-cache disk tier"
    )
    cache.add_argument("action", choices=["stats", "clear", "warm", "export", "import"])
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="disk tier directory (default: $ESTIMA_CACHE_DIR or ~/.cache/estima)",
    )
    cache.add_argument(
        "--json", action="store_true", dest="as_json", help="machine-readable output"
    )
    cache.add_argument(
        "--machine", choices=sorted(MACHINES), help="warm: machine to simulate on"
    )
    cache.add_argument(
        "--workloads",
        default=None,
        help="warm: comma-separated workload names (default: the Table-4 set)",
    )
    cache.add_argument("--measure-cores", type=int, default=None, help="warm: measurement window")
    cache.add_argument("--target-cores", type=int, default=None, help="warm: prediction target")
    cache.add_argument(
        "--output", default=None, help="export: archive path to write (tar.gz)"
    )
    cache.add_argument(
        "--input", default=None, help="import: archive path to read"
    )
    cache.add_argument(
        "--regions",
        default=None,
        help="export: comma-separated region subset (default: every region)",
    )
    cache.add_argument(
        "--ring-backends",
        default=None,
        metavar="HOST:PORT,...",
        help="import: the cluster's backend list; keeps only --ring-node's slice",
    )
    cache.add_argument(
        "--ring-node",
        default=None,
        metavar="HOST:PORT",
        help="import: this host's entry in --ring-backends",
    )
    cache.add_argument(
        "--vnodes",
        type=int,
        default=None,
        help="import: virtual nodes per backend (must match the router's)",
    )
    cache.set_defaults(func=_cmd_cache)

    profile = sub.add_parser(
        "profile",
        help="time one cold prediction, stage by stage",
    )
    profile.add_argument("--workload", choices=sorted(WORKLOADS), help="workload to simulate")
    profile.add_argument("--machine", choices=sorted(MACHINES), help="machine to simulate on")
    profile.add_argument("--input", help="measurement JSON produced by 'estima measure'")
    profile.add_argument("--measure-cores", type=int, default=None)
    profile.add_argument("--target-cores", type=int, required=True)
    profile.add_argument("--checkpoints", type=int, default=2)
    profile.add_argument("--no-software-stalls", action="store_true")
    profile.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the wall time and stage timings as a JSON document",
    )
    profile.set_defaults(func=_cmd_profile)
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    print("Workloads:")
    for name in sorted(WORKLOADS):
        workload = get_workload(name)
        print(f"  {name:<24s} [{workload.suite:<10s}] {workload.description}")
    print("\nMachines:")
    for name in sorted(MACHINES):
        print(f"  {get_machine(name).describe()}")
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    workload = get_workload(args.workload)
    cores = args.cores or machine.total_threads
    simulator = MachineSimulator(machine)
    measurements = simulator.sweep(
        workload,
        core_counts=[c for c in machine.core_counts() if c <= cores],
        dataset_scale=args.dataset_scale,
    )
    measurements.save(args.output)
    print(
        f"wrote {len(measurements)} measurements of {workload.name} on {machine.name} "
        f"to {args.output}"
    )
    return 0


def _stats_delta(before, after) -> dict[str, dict[str, int]]:
    """Per-region counter deltas between two ``cache_stats()`` snapshots."""
    delta: dict[str, dict[str, int]] = {}
    for region, counts in after.items():
        prior = before.get(region, {})
        delta[region] = {
            key: int(counts.get(key, 0)) - int(prior.get(key, 0)) for key in counts
        }
    return delta


def _format_cache_lines(caches) -> list[str]:
    """Human-readable per-region, per-tier cache counter lines."""
    lines = []
    for region, counts in sorted(caches.items()):
        lookups = counts.get("hits", 0) + counts.get("misses", 0)
        disk_lookups = counts.get("disk_hits", 0) + counts.get("disk_misses", 0)
        if not lookups and not disk_lookups:
            continue
        line = f"  {region:>13s}: memory {counts.get('hits', 0)}/{lookups} hits"
        if disk_lookups:
            line += f", disk {counts.get('disk_hits', 0)}/{disk_lookups} hits"
        lines.append(line)
    return lines


def _format_profile_lines(profile) -> list[str]:
    """Human-readable per-stage fit timing lines (see repro.engine.profiling)."""
    lines = []
    for stage, stats in sorted(profile.items()):
        calls = int(stats.get("calls", 0))
        if not calls:
            continue
        wall = stats.get("wall_s", 0.0)
        if wall:
            lines.append(f"  {stage:>22s}: {calls:>6d} calls  {wall:>9.4f}s wall")
        else:
            lines.append(f"  {stage:>22s}: {calls:>6d} events")
    return lines


def _cmd_predict(args: argparse.Namespace) -> int:
    if args.input:
        measurements = MeasurementSet.load(Path(args.input))
    elif args.workload and args.machine:
        machine = get_machine(args.machine)
        workload = get_workload(args.workload)
        cores = args.measure_cores or machine.total_threads
        measurements = MachineSimulator(machine).sweep(
            workload, core_counts=[c for c in machine.core_counts() if c <= cores]
        )
    else:
        print("predict needs either --input or both --workload and --machine", file=sys.stderr)
        return 2

    if args.measure_cores:
        measurements = measurements.restrict_to(args.measure_cores)

    if args.executor is not None:
        try:
            get_executor(args.executor)
        except ValueError as exc:
            print(f"invalid --executor: {exc}", file=sys.stderr)
            return 2
    config = EstimaConfig(
        checkpoints=args.checkpoints,
        use_software_stalls=not args.no_software_stalls,
        dataset_ratio=args.dataset_ratio,
        executor=args.executor or "serial",
        # An explicit --cache-dir would be silently useless without the fit
        # cache, so it implies --fit-cache.
        use_fit_cache=args.fit_cache or bool(args.cache_dir),
        **({"cache_dir": args.cache_dir} if args.cache_dir else {}),
    )
    disk_ctx = (
        disk_tier(config.cache_dir, max_bytes=config.cache_max_bytes)
        if config.use_fit_cache and config.cache_dir
        else nullcontext()
    )
    stats_before = cache_stats()
    profile_before = PROFILER.snapshot()
    # Enable (and afterwards restore) the global regions only when asked, so
    # in-process callers of main() keep their cache state.
    cache_ctx = caches_enabled(True) if config.use_fit_cache else nullcontext()
    with disk_ctx, cache_ctx:
        prediction = EstimaPredictor(config).predict(
            measurements, target_cores=args.target_cores
        )
        baseline = (
            TimeExtrapolation(config).predict(
                measurements, target_cores=args.target_cores
            )
            if args.baseline
            else None
        )
    engine_block = {
        "executor": config.executor,
        "caches": _stats_delta(stats_before, cache_stats()),
        "profile": profile_delta(profile_before, PROFILER.snapshot()),
    }

    if args.as_json:
        payload = prediction_payload(prediction)
        if baseline is not None:
            payload["baseline"] = {
                "predicted_peak_cores": baseline.predicted_peak_cores(),
                "predicted_times_s": [float(t) for t in baseline.predicted_times],
            }
        if args.stats:
            payload["engine"] = engine_block
        print(json.dumps(payload, indent=2))
        return 0

    print(prediction.summary())
    print()
    print(f"{'cores':>6s} {'predicted time (s)':>20s} {'stalls/core':>16s}")
    for i, cores in enumerate(prediction.prediction_cores):
        print(
            f"{int(cores):>6d} {prediction.predicted_times[i]:>20.4f} "
            f"{prediction.stalls_per_core[i]:>16.3e}"
        )
    print()
    print(BottleneckReport.from_prediction(prediction).format_report())

    if baseline is not None:
        print("\nTime-extrapolation baseline:")
        print(f"  predicted best core count: {baseline.predicted_peak_cores()}")
    if args.stats:
        print(f"\nengine: executor={config.executor}")
        cache_lines = _format_cache_lines(engine_block["caches"])
        print("\n".join(cache_lines) if cache_lines else "  (no cache lookups)")
        profile_lines = _format_profile_lines(engine_block["profile"])
        if profile_lines:
            print("fit stages:")
            print("\n".join(profile_lines))
    return 0


def _parse_targets(spec: str) -> dict[str, int]:
    """Parse ``"2 CPUs=24,4 CPUs=48"`` or ``"24,48"`` into label -> cores."""
    targets: dict[str, int] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        label, sep, cores = entry.partition("=")
        if sep:
            targets[label.strip()] = int(cores)
        else:
            targets[f"{int(entry)} cores"] = int(entry)
    if not targets:
        raise ValueError(f"no prediction targets in {spec!r}")
    return targets


def _cmd_campaign(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    try:
        targets = _parse_targets(args.targets)
    except ValueError as exc:
        print(f"invalid --targets: {exc}", file=sys.stderr)
        return 2
    workloads = (
        [w.strip() for w in args.workloads.split(",") if w.strip()]
        if args.workloads
        else list(TABLE4_WORKLOADS)
    )
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.executor is not None:
        try:
            get_executor(args.executor)
        except ValueError as exc:
            print(f"invalid --executor: {exc}", file=sys.stderr)
            return 2
    try:
        core_counts = (
            [int(c) for c in args.core_counts.split(",")] if args.core_counts else None
        )
    except ValueError:
        print(
            f"invalid --core-counts: expected comma-separated integers, got {args.core_counts!r}",
            file=sys.stderr,
        )
        return 2

    config = EstimaConfig(
        use_software_stalls=not args.no_software_stalls,
        # An explicit --cache-dir would be silently useless without the fit
        # cache, so it implies --fit-cache.
        use_fit_cache=args.fit_cache or bool(args.cache_dir),
        **({"cache_dir": args.cache_dir} if args.cache_dir else {}),
    )
    campaign = ErrorCampaign(
        machine=machine,
        measurement_cores=args.measure_cores,
        targets=targets,
        config=config,
        core_counts=core_counts,
        executor=args.executor,
    )
    # Scope the disk tier to this run: the campaign's service attaches it to
    # the process-global regions; restore whatever was attached before so
    # in-process callers of main() keep their cache state.
    disk_ctx = (
        disk_tier(config.cache_dir, max_bytes=config.cache_max_bytes)
        if config.use_fit_cache and config.cache_dir
        else nullcontext()
    )
    with disk_ctx:
        result = campaign.run(workloads)

    if args.output:
        rows = [
            {
                "workload": row.workload,
                **{f"estima[{label}]": row.max_errors_pct[label] for label in targets},
                **{f"baseline[{label}]": row.baseline_errors_pct[label] for label in targets},
                "behaviour_correct": row.behaviour_correct,
            }
            for row in result.rows
        ]
        save_table(rows, args.output)

    if args.as_json:
        # Built by the same helper the serve protocol streams rows through,
        # so `estima serve` campaign rows are bit-identical to this output.
        payload = campaign_result_payload(result)
        payload["engine"] = result.engine_stats
        print(json.dumps(payload, indent=2))
        return 0

    print(result.format_table())
    stats = result.engine_stats or {}
    caches = stats.get("caches", {})
    cache_text = ", ".join(
        f"{region} {counts.get('hits', 0)}/{counts.get('hits', 0) + counts.get('misses', 0)} hits"
        for region, counts in sorted(caches.items())
        if counts.get("hits", 0) or counts.get("misses", 0)
    )
    print(
        f"\nengine: executor={stats.get('executor', '?')} "
        f"workloads={stats.get('workloads', len(result.rows))}"
        + (f" | cache: {cache_text}" if cache_text else "")
    )
    if args.stats:
        executor_stats = stats.get("executor_stats", {})
        detail = " ".join(f"{k}={v}" for k, v in executor_stats.items())
        print(f"executor counters: {detail}" if detail else "executor counters: (none)")
        cache_lines = _format_cache_lines(caches)
        if cache_lines:
            print("cache tiers:")
            print("\n".join(cache_lines))
        profile_lines = _format_profile_lines(stats.get("profile", {}))
        if profile_lines:
            print("fit stages:")
            print("\n".join(profile_lines))
    if args.output:
        print(f"rows written to {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine.pool import (
        WorkerPool,
        parse_tcp_address,
        serve_http_from_env,
        serve_workers_from_env,
    )
    from repro.engine.server import PredictionServer, serve_stdio, serve_tcp, serve_unix

    if sum(1 for transport in (args.tcp, args.socket, args.http) if transport) > 1:
        print("serve takes at most one of --tcp / --socket / --http", file=sys.stderr)
        return 2
    try:
        workers = args.workers if args.workers is not None else serve_workers_from_env()
        http_address = args.http
        if http_address is None and not (args.tcp or args.socket):
            http_address = serve_http_from_env()
        config = EstimaConfig(
            # An explicit --cache-dir would be silently useless without the
            # fit cache, so it implies --fit-cache.
            use_fit_cache=args.fit_cache or bool(args.cache_dir),
            serve_workers=workers,
            serve_tcp=args.tcp,
            serve_http=http_address,
            **({"cache_dir": args.cache_dir} if args.cache_dir else {}),
        )
    except ValueError as exc:
        print(f"invalid serve configuration: {exc}", file=sys.stderr)
        return 2

    if config.serve_workers:
        # Worker-pool mode: a supervisor accepts on the listening socket and
        # dispatches connections to N forked worker processes, each running
        # the full NDJSON server (or the HTTP gateway on top of it).
        if not (args.tcp or args.socket or config.serve_http):
            print(
                "--workers needs a socket transport (--tcp, --http or --socket)",
                file=sys.stderr,
            )
            return 2
        pool = WorkerPool(
            config,
            workers=config.serve_workers,
            tcp=config.serve_http or args.tcp,
            unix_socket=args.socket,
            max_batch=args.max_batch,
            batch_window_ms=args.batch_window_ms,
            queue_limit=args.queue_limit,
            protocol="http" if config.serve_http else "ndjson",
        )
        pool.start()
        if args.socket:
            print(
                f"serving on unix socket {args.socket} with {config.serve_workers} workers",
                file=sys.stderr,
                flush=True,
            )
        else:
            scheme = "http" if config.serve_http else "tcp"
            host, port = pool.address
            print(
                f"serving on {scheme} {host}:{port} with {config.serve_workers} workers",
                file=sys.stderr,
                flush=True,
            )
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        summary = pool.stop()
        if args.stats:
            # One machine-readable line: per-worker snapshots (each the dict
            # that worker's /metrics renders) plus the supervisor's merged
            # totals, which no single /metrics scrape can see.
            print(json.dumps(summary), file=sys.stderr)
        return 0

    server = PredictionServer(
        config,
        max_batch=args.max_batch,
        batch_window_ms=args.batch_window_ms,
        queue_limit=args.queue_limit,
    )
    stats_source = server.stats

    def announce(scheme: str):
        def on_listening(address: tuple) -> None:
            print(
                f"serving on {scheme} {address[0]}:{address[1]}", file=sys.stderr, flush=True
            )

        return on_listening

    async def run() -> None:
        try:
            if config.serve_http:
                from repro.engine.gateway import HttpGateway, serve_http

                gateway = HttpGateway(server)
                # The shutdown line and GET /metrics now share one snapshot
                # assembly (HttpGateway.stats): they can never disagree.
                nonlocal stats_source
                stats_source = gateway.stats
                host, port = parse_tcp_address(config.serve_http)
                await serve_http(gateway, host, port, on_listening=announce("http"))
            elif args.tcp:
                host, port = parse_tcp_address(args.tcp)
                await serve_tcp(server, host, port, on_listening=announce("tcp"))
            elif args.socket:
                print(f"serving on unix socket {args.socket}", file=sys.stderr, flush=True)
                await serve_unix(server, args.socket)
            else:
                await serve_stdio(server)
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    if args.stats:
        # Shutdown report: one machine-readable line so wrappers can scrape
        # it — the exact snapshot GET /metrics renders in HTTP mode.
        print(json.dumps(stats_source()), file=sys.stderr)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.engine.cluster.remote import route_backends_from_env
    from repro.engine.cluster.ring import DEFAULT_VNODES
    from repro.engine.cluster.router import Router, serve_route
    from repro.engine.pool import parse_tcp_address

    try:
        backends_spec = args.backends or route_backends_from_env()
        if not backends_spec:
            print(
                "route needs --backends (or ESTIMA_ROUTE_BACKENDS)", file=sys.stderr
            )
            return 2
        host, port = parse_tcp_address(args.http)
        # EstimaConfig validates the backend list (and every ESTIMA_* serving
        # variable) strictly up front, the same contract as `estima serve`.
        config = EstimaConfig(route_backends=backends_spec)
        router = Router(
            config.route_backends,
            config=config,
            vnodes=args.vnodes if args.vnodes is not None else DEFAULT_VNODES,
            timeout=args.timeout,
            retries=args.retries,
        )
    except ValueError as exc:
        print(f"invalid route configuration: {exc}", file=sys.stderr)
        return 2

    def on_listening(address: tuple) -> None:
        print(
            f"routing on http {address[0]}:{address[1]} across "
            f"{len(router.pool.backends)} backend(s)",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(serve_route(router, host, port, on_listening=on_listening))
    except KeyboardInterrupt:
        pass
    finally:
        router.close()
    if args.stats:
        # Shutdown report: one machine-readable line, the exact snapshot the
        # router's GET /metrics renders.
        print(json.dumps(router.stats()), file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir or str(default_cache_dir())
    store = store_for(cache_dir)

    if args.action == "export":
        if not args.output:
            print("cache export needs --output", file=sys.stderr)
            return 2
        from repro.engine.cluster.archive import export_store

        regions = (
            [r.strip() for r in args.regions.split(",") if r.strip()]
            if args.regions
            else None
        )
        summary = export_store(store, args.output, regions=regions)
        if args.as_json:
            print(json.dumps(summary, indent=2))
        else:
            skipped = summary["skipped"]
            print(
                f"exported {summary['entries']} entries ({summary['bytes']} bytes) "
                f"from {cache_dir} to {summary['path']}"
                + (f", skipped {skipped} unreadable/stale" if skipped else "")
            )
        return 0

    if args.action == "import":
        if not args.input:
            print("cache import needs --input", file=sys.stderr)
            return 2
        from repro.engine.cluster.archive import import_archive

        ring = None
        if args.ring_backends or args.ring_node:
            if not (args.ring_backends and args.ring_node):
                print(
                    "cache import ring filtering needs both --ring-backends and --ring-node",
                    file=sys.stderr,
                )
                return 2
            from repro.engine.cluster.remote import parse_backends
            from repro.engine.cluster.ring import DEFAULT_VNODES, HashRing

            try:
                ring = HashRing(
                    parse_backends(args.ring_backends),
                    vnodes=args.vnodes if args.vnodes is not None else DEFAULT_VNODES,
                )
            except ValueError as exc:
                print(f"invalid --ring-backends: {exc}", file=sys.stderr)
                return 2
        try:
            summary = import_archive(args.input, store, ring=ring, node=args.ring_node)
        except ValueError as exc:
            print(f"cache import failed: {exc}", file=sys.stderr)
            return 2
        if args.as_json:
            print(json.dumps(summary, indent=2))
        else:
            print(
                f"imported {summary['imported']} entries into {cache_dir}"
                + (
                    f", skipped {summary['skipped_other_shard']} other-shard"
                    if summary["skipped_other_shard"]
                    else ""
                )
                + (
                    f", skipped {summary['skipped_invalid']} invalid"
                    if summary["skipped_invalid"]
                    else ""
                )
            )
        return 0

    if args.action == "clear":
        removed = store.clear()
        if args.as_json:
            print(json.dumps({"cache_dir": cache_dir, "removed": removed}))
        else:
            print(f"removed {removed} entries from {cache_dir}")
        return 0

    if args.action == "warm":
        if not args.machine or not args.target_cores:
            print("cache warm needs --machine and --target-cores", file=sys.stderr)
            return 2
        workloads = (
            [w.strip() for w in args.workloads.split(",") if w.strip()]
            if args.workloads
            else list(TABLE4_WORKLOADS)
        )
        unknown = [w for w in workloads if w not in WORKLOADS]
        if unknown:
            print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
            return 2
        machine = get_machine(args.machine)
        measure_cores = args.measure_cores or machine.total_threads
        config = EstimaConfig(use_fit_cache=True, cache_dir=cache_dir)
        from repro.engine.service import PredictionRequest, PredictionService

        simulator = MachineSimulator(machine)
        with disk_tier(cache_dir, max_bytes=config.cache_max_bytes):
            service = PredictionService(config, share_max_target=False)
            # Start from a cold memory tier: a memory hit would skip the disk
            # write, leaving the tier this command exists to populate
            # incomplete.
            clear_caches()
            with caches_enabled(True):
                for name in workloads:
                    sweep = simulator.sweep(
                        get_workload(name),
                        core_counts=[c for c in machine.core_counts() if c <= measure_cores],
                    )
                    service.predict_batch(
                        [
                            PredictionRequest(sweep, args.target_cores),
                            PredictionRequest(sweep, args.target_cores, baseline=True),
                        ]
                    )
        summary = store.describe()
        if args.as_json:
            print(json.dumps({"warmed": workloads, "store": summary}, indent=2))
        else:
            print(
                f"warmed {len(workloads)} workload(s) into {cache_dir}: "
                f"{summary['entries']} entries, {summary['total_bytes']} bytes"
            )
        return 0

    # stats
    summary = store.describe()
    if args.as_json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"cache dir : {summary['root']}")
    print(f"entries   : {summary['entries']}")
    print(f"size      : {summary['total_bytes']} / {summary['max_bytes']} bytes")
    print(f"schema    : v{summary['schema_version']}")
    regions = summary["regions"]
    if regions:
        print("regions:")
        for region, counts in sorted(regions.items()):
            print(f"  {region:>13s}: {counts['entries']} entries, {counts['bytes']} bytes")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.input:
        measurements = MeasurementSet.load(Path(args.input))
        source = args.input
    elif args.workload and args.machine:
        machine = get_machine(args.machine)
        workload = get_workload(args.workload)
        cores = args.measure_cores or machine.total_threads
        measurements = MachineSimulator(machine).sweep(
            workload, core_counts=[c for c in machine.core_counts() if c <= cores]
        )
        source = f"{args.workload} on {args.machine}"
    else:
        print("profile needs either --input or both --workload and --machine", file=sys.stderr)
        return 2
    if args.measure_cores:
        measurements = measurements.restrict_to(args.measure_cores)

    config = EstimaConfig(
        checkpoints=args.checkpoints,
        use_software_stalls=not args.no_software_stalls,
    )
    clear_caches()  # the timed prediction runs cold
    profile_before = PROFILER.snapshot()
    started = time.perf_counter()
    EstimaPredictor(config).predict(measurements, target_cores=args.target_cores)
    wall_s = time.perf_counter() - started
    profile = profile_delta(profile_before, PROFILER.snapshot())

    if args.as_json:
        payload = {
            "source": source,
            "target_cores": args.target_cores,
            "wall_s": wall_s,
            "profile": profile,
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(f"profile: {source}, target {args.target_cores} cores (cold caches)")
    print(f"\nwall time: {wall_s:.3f}s")
    lines = _format_profile_lines(profile)
    print("\n".join(lines) if lines else "  (no instrumented stages ran)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
