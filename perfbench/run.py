#!/usr/bin/env python3
"""The ESTIMA benchmark: one command, three workloads, golden-checked answers.

    python3 perfbench/run.py --workload campaign_cold|serve_warm|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the last stdout line is a
JSON object carrying every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` the layers are wrapped (see :mod:`tracing`) and it carries
every per-layer metric instead.  Lines before it are a readable report:
the host fingerprint, each metric with its unit, and the workload's metrics
under the names the issue tracker uses.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

ROOT = env.ROOT
#: Served latency limit: a request answered later (or not at all) misses it.
LATENCY_LIMIT_S = 0.025
#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 3
#: Warm-pool measurement sets (three requests each) and disk-tier replays.
POOL_SETS = 4
REPLAYS = 40
#: Offered loads of the serve workloads (requests per second).
WARM_RPS = 100
MIXED_HIT_RPS = 20
#: Traffic comes in cycles; a serve_mixed cycle carries one miss and is
#: followed by a host-speed calibration while the server idles.
WARM_CYCLE_S = 3.0
MIXED_CYCLE_S = 5.0
#: Share of a serve_warm run spent in the open loop (the rest saturates).
OPEN_SHARE = 0.6


@dataclass
class Outcome:
    e2e: dict[str, float]  # calibrated times at reference host speed (see hostspeed)
    raw: dict[str, float]  # the same metrics, every time as measured
    host_speed: float
    attempted: int
    failed: int
    layers: dict[str, float] = field(default_factory=dict)
    report: dict[str, object] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Counters and per-layer metrics
# --------------------------------------------------------------------------- #


def _delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def _counter_layers(c: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics read from the program's own counters (a delta)."""

    def get(name: str) -> float:
        return c.get(f"estima_{name}", 0.0)

    def hit_ratio(region: str) -> float:
        hits = get(f"caches_{region}_hits")
        return stats.ratio(hits, hits + get(f"caches_{region}_misses"))

    regions = {k.split("_")[2] for k in c if k.startswith("estima_caches_")}
    disk_hits = sum(get(f"caches_{r}_disk_hits") for r in regions)
    disk_lookups = disk_hits + sum(get(f"caches_{r}_disk_misses") for r in regions)
    prediction = get("caches_prediction_hits") + get("caches_prediction_misses")
    return {
        "cache.prediction.hit_ratio": hit_ratio("prediction"),
        "cache.fit.hit_ratio": hit_ratio("fit"),
        "cache.extrapolation.hit_ratio": hit_ratio("extrapolation"),
        "cache.disk_hit_ratio": stats.ratio(disk_hits, disk_lookups),
        "service.dedup_hit_ratio": stats.ratio(
            get("caches_prediction_hits") + get("caches_prediction_disk_hits"), prediction
        ),
        "profile.nonlinear_solve.calls": get("profile_nonlinear_solve_calls"),
        "profile.nonlinear_solve.wall_s": get("profile_nonlinear_solve_wall_s"),
        "profile.nonlinear_solve.cpu_s": get("profile_nonlinear_solve_cpu_s"),
        "profile.design_solve.wall_s": get("profile_design_solve_wall_s"),
    }


def _span_layers(spans: list, start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of the program's layers, from the spans in a window."""
    import tracing

    window = tracing.in_window(spans, start, end)

    def ms(name: str) -> list[float]:
        return [1000.0 * d for d in tracing.durations(window, name)]

    batches = [s for s in window if s[tracing.NAME] == "service.predict_batch"]
    screens = [s[tracing.ATTRS] for s in window if s[tracing.NAME] == "fastfit.screen"]
    cells = sum(s[tracing.ATTRS]["cells"] for s in window if s[tracing.NAME] == "fastfit.fit_grid")
    parsed = {
        s[tracing.RID]: s[tracing.END] for s in window if s[tracing.NAME] == "server.parse"
    }
    served = [b for b in batches if any(rid in parsed for rid in b[tracing.ATTRS]["rids"])]
    queue_waits = [
        1000.0 * (b[tracing.START] - parsed[rid])
        for b in served
        for rid in b[tracing.ATTRS]["rids"]
        if rid in parsed
    ]
    return {
        "server.parse_ms_p50": stats.median(ms("server.parse")),
        "server.queue_wait_ms_p50": stats.median(queue_waits),
        "server.queue_wait_ms_p99": stats.percentile(queue_waits, 99),
        "server.batches": float(len(served)),
        "server.batch_size_mean": stats.ratio(
            sum(b[tracing.ATTRS]["size"] for b in served), len(served)
        ),
        "server.serialize_ms_p50": stats.median(ms("server.serialize")),
        "service.batch_ms_p50": stats.median(ms("service.predict_batch")),
        "service.batch_ms_p99": stats.percentile(ms("service.predict_batch"), 99),
        "cache.get_ms_total": sum(ms("cache.get")),
        "store.get.count": float(len(ms("store.get"))),
        "store.get_ms_p50": stats.median(ms("store.get")),
        "store.put.count": float(len(ms("store.put"))),
        "store.put_ms_p50": stats.median(ms("store.put")),
        "predictor.predict_s_p50": stats.median(ms("predictor.predict")) / 1000.0,
        "regression.extrapolations": float(len(ms("regression.extrapolate"))),
        "regression.extrapolate_ms_p50": stats.median(ms("regression.extrapolate")),
        "fastfit.fit_grid_s_total": sum(ms("fastfit.fit_grid")) / 1000.0,
        "fastfit.cells": float(cells),
        "fastfit.survivor_ratio": stats.ratio(
            sum(s["survivors"] for s in screens), sum(s["screened"] for s in screens)
        ),
        "scaling_factor.fit_ms_p50": stats.median(ms("scaling_factor.fit")),
        "time_extrapolation.predict_ms_p50": stats.median(ms("time_extrapolation.predict")),
        "simulation.sweep_ms_total": sum(ms("simulation.sweep")),
    }


def _self_time_report(spans: list, start: float, end: float) -> dict[str, float]:
    """Self seconds per span name, over the spans that started in the window."""
    import tracing

    inside = [s if s[tracing.END] is not None and start <= s[tracing.START] <= end
              else [s[tracing.NAME], 0.0, None, -1, None, None, None] for s in spans]
    return {name: round(t, 4) for name, t in sorted(tracing.self_times(inside).items())}


# --------------------------------------------------------------------------- #
# campaign_cold: ErrorCampaign.run, serial, closed loop in this process
# --------------------------------------------------------------------------- #


def _import_seconds() -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.runner.campaign"],
        env=env.child_env(), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def campaign_cold(seed: int, seconds: int, trace: bool, workdir: Path, golden: dict, smoke: bool) -> Outcome:
    setup_s = stats.median(_import_seconds() for _ in range(SETUP_REPEATS))
    from repro.core import EstimaConfig
    from repro.engine.cache import clear_caches
    from repro.engine.gateway import flatten_stats
    from repro.engine.profiling import PROFILER, profile_delta
    from repro.machine.machines import get_machine
    from repro.runner.campaign import ErrorCampaign
    from repro.runner.io import campaign_row_payload

    from golden import check_row

    recorder = None
    if trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    names = inputs.campaign_workloads(seed)[: 1 if smoke else None]
    campaign = ErrorCampaign(
        machine=get_machine(inputs.CAMPAIGN_MACHINE),
        measurement_cores=inputs.CAMPAIGN_MEASURE_CORES,
        targets=inputs.CAMPAIGN_TARGETS,
        config=EstimaConfig(use_fit_cache=True, cache_dir=str(workdir / "campaign-cache")),
        executor="serial",
    )
    speed = HostSpeed()
    failures: list[str] = []
    caches: dict[str, dict[str, int]] = {}
    rows_raw: list[float] = []
    rows_scaled: list[float] = []

    def run_pass(cold: bool) -> float:
        clear_caches()  # the memory tier starts empty; only the disk tier persists
        last = time.perf_counter()

        def on_row(row) -> None:
            nonlocal last
            if cold:  # calibrate between rows, while the program is idle
                rows_raw.append(time.perf_counter() - last)
                rows_scaled.append(rows_raw[-1] * speed.factor())
            last = time.perf_counter()

        started = time.perf_counter()
        result = campaign.run(names, on_row=on_row)
        elapsed = time.perf_counter() - started
        for row in result.rows:
            reason = check_row(golden["campaign"]["rows"][row.workload], campaign_row_payload(row))
            if reason:
                failures.append(reason)
        for region, counts in result.engine_stats["caches"].items():
            bucket = caches.setdefault(region, {})
            for key, value in counts.items():
                bucket[key] = bucket.get(key, 0) + value
        return elapsed

    profile_before = PROFILER.snapshot()
    window_start = time.perf_counter()
    speed.sample()
    run_pass(cold=True)
    replays_raw, replays_scaled = [], []
    for _ in range(3 if smoke else REPLAYS):
        replays_raw.append(1000.0 * run_pass(cold=False))
        replays_scaled.append(replays_raw[-1] * speed.factor())
    window_end = time.perf_counter()

    def metrics(cold: float, replays_ms: list[float]) -> dict[str, float]:
        summary = stats.latency_summary(replays_ms)
        return {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cold_s": cold,
            "warm_p50_ms": summary["p50"],
            "warm_tail_ms": summary["tail"],
            "warm_rps": 1000.0 * len(names) * len(replays_ms) / sum(replays_ms),
        }

    outcome = Outcome(
        e2e=metrics(sum(rows_scaled), replays_scaled),
        raw=metrics(sum(rows_raw), replays_raw),
        host_speed=speed.overall,
        attempted=len(names) * (1 + len(replays_raw)),
        failed=len(failures),
        report={
            "workloads": names,
            "warm_tail_percentile": stats.tail_percentile(len(replays_raw)),
            "replays": len(replays_raw),
            "failures": failures[:5],
        },
    )
    if recorder is not None:
        counters = flatten_stats(
            {"caches": caches, "profile": profile_delta(profile_before, PROFILER.snapshot())}
        )
        outcome.layers = {
            "loadgen.sent": float(outcome.attempted),
            "loadgen.lag_ms_p99": 0.0,
            "gateway.overhead_ms_p50": 0.0,
            "gateway.overhead_ms_p99": 0.0,
            **_counter_layers(counters),
            **_span_layers(recorder.spans, window_start, window_end),
            "runner.row_s_p50": stats.median(rows_raw),
        }
        outcome.report["self_time_s"] = _self_time_report(recorder.spans, window_start, window_end)
    return outcome


# --------------------------------------------------------------------------- #
# Serve workloads: `estima serve --http` in a subprocess, driven over HTTP
# --------------------------------------------------------------------------- #


class Server:
    """One ``estima serve --http 127.0.0.1:0`` subprocess with a fresh cache dir."""

    def __init__(self, workdir: Path, name: str, trace: bool) -> None:
        self.cache_dir = workdir / f"{name}-cache"
        self.trace_out = workdir / f"{name}-spans.json" if trace else None
        self.proc: subprocess.Popen | None = None
        self.stderr: list[str] = []
        self._drain: threading.Thread | None = None
        self.host, self.port = "127.0.0.1", 0

    def start(self) -> float:
        """Start the server; returns seconds until ``GET /healthz`` answers."""
        command = [sys.executable, str(HERE / "launcher.py")]
        if self.trace_out is not None:
            command += ["--trace-out", str(self.trace_out)]
        command += ["serve", "--http", "127.0.0.1:0", "--cache-dir", str(self.cache_dir)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, env=env.child_env(), cwd=ROOT, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        for line in self.proc.stderr:
            self.stderr.append(line)
            match = re.search(r"serving on http ([\d.]+):(\d+)", line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        else:
            raise RuntimeError("server exited before listening:\n" + "".join(self.stderr[-20:]))
        self._drain = threading.Thread(target=lambda: self.stderr.extend(self.proc.stderr), daemon=True)
        self._drain.start()
        while self._get("/healthz") is None:
            time.sleep(0.01)
        return time.perf_counter() - started

    def _get(self, path: str) -> str | None:
        try:
            with urllib.request.urlopen(f"http://{self.host}:{self.port}{path}", timeout=10) as r:
                return r.read().decode()
        except OSError:
            if self.proc.poll() is not None:
                raise RuntimeError("server died:\n" + "".join(self.stderr[-20:])) from None
            return None

    def counters(self) -> dict[str, float]:
        """``GET /metrics`` as ``{name: value}``."""
        text = self._get("/metrics") or ""
        return {
            name: float(value)
            for name, value in (line.split() for line in text.splitlines() if line and line[0] != "#")
        }

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)


class Traffic:
    """Request bodies, ids and answer checks of one serve run."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden["predictions"]
        self._measurements: dict[tuple, str] = {}
        self._ids = iter(range(1, 1 << 62))
        self.sent: dict[int, inputs.Request] = {}

    def body(self, request: inputs.Request) -> tuple[int, bytes]:
        key = (request.workload, request.machine, request.scale)
        if key not in self._measurements:
            self._measurements[key] = json.dumps(inputs.measurements(*key))
        request_id = next(self._ids)
        self.sent[request_id] = request
        text = (
            f'{{"id": {request_id}, "target_cores": {request.target}, '
            f'"baseline": {json.dumps(request.kind == "baseline")}, '
            f'"measurements": {self._measurements[key]}}}'
        )
        return request_id, text.encode()

    def check(self, result) -> str | None:
        """Why a response is wrong (or failed), or None when it is right."""
        if result.status != 200:
            return f"request {result.tag}: HTTP status {result.status}"
        document = json.loads(result.body)
        if document.get("id") != result.tag or not document.get("ok"):
            return f"request {result.tag}: {document.get('error', 'id mismatch')}"
        from golden import check_prediction

        reason = check_prediction(self.golden[self.sent[result.tag].key], document["result"])
        return f"request {result.tag} ({self.sent[result.tag].key}): {reason}" if reason else None


@dataclass
class Cycle:
    """One traffic cycle: its streams (hits first) and its length.

    ``factor`` converts the cycle's times to reference host speed; it stays
    1.0 for cycles that do no fitting, which are never calibrated.
    """

    streams: list
    seconds: float
    factor: float = 1.0


def _warm_up(server: Server, traffic: Traffic, pool: list, speed: HostSpeed) -> tuple[list, list, list]:
    """Send every pool request once, in order, on one connection.

    The first request of each measurement set is cold (it fits), and a
    calibration follows it.  Returns (cold raw s, cold scaled s, results).
    """
    import loadgen

    async def go():
        connection = loadgen.Connection(server.host, server.port)
        cold_raw, cold_scaled, results = [], [], []
        try:
            for request in pool:
                tag, body = traffic.body(request)
                sent = time.perf_counter()
                status, answer = await connection.request("POST", "/v1/predict", body)
                result = loadgen.Result(tag, sent, sent, time.perf_counter(), status, answer)
                results.append(result)
                if request.kind == "estima" and request.target == inputs.SERVE_MACHINES[request.machine][1][1]:
                    cold_raw.append(result.latency)
                    cold_scaled.append(result.latency * speed.factor())
        finally:
            await connection.close()
        return cold_raw, cold_scaled, results

    return asyncio.run(go())


def _serve_layers(server: Server, before: dict, after: dict, streams: list, start: float, end: float):
    import tracing

    spans = tracing.load(server.trace_out)
    window = tracing.in_window(spans, start, end)
    submit = {s[tracing.RID]: s[tracing.END] - s[tracing.START]
              for s in window if s[tracing.NAME] == "server.submit"}
    results = [r for stream in streams for r in stream.results]
    overhead = [1000.0 * (r.done - r.sent - submit[r.tag])
                for r in results if r.status == 200 and r.tag in submit]
    lags = [1000.0 * lag for stream in streams for lag in stream.lags]
    layers = {
        "loadgen.sent": float(len(results)),
        "loadgen.lag_ms_p99": stats.percentile(lags, 99),
        "gateway.overhead_ms_p50": stats.median(overhead),
        "gateway.overhead_ms_p99": stats.percentile(overhead, 99),
        **_counter_layers(_delta(before, after)),
        **_span_layers(spans, start, end),
        "runner.row_s_p50": 0.0,
    }
    return layers, _self_time_report(spans, start, end)


def _serve_e2e(
    cycles: list[Cycle], rate_cycles: list[Cycle], cold: list[float],
    setup_s: float, rss_mb: float, calibrated: bool,
) -> dict[str, float]:
    """End-to-end metrics of the timed cycles; hits are each cycle's first stream.

    Only the fit-bound times take the cycle's calibration: the misses and,
    on serve_mixed, the hit tail, which is the wait behind a miss.  The hit
    median and the hits within the limit are serving work, taken as measured.
    """

    def latencies(cycle: Cycle, f: float = 1.0) -> list[float]:
        return [r.latency * f for r in sorted(cycle.streams[0].results, key=lambda r: r.due)]

    open_cycles = [c for c in cycles if c.streams[0].lags]
    hits = [x for c in open_cycles for x in latencies(c)]
    # The median of the cycles' tails: one hiccup, or one slow miss, sets a
    # whole run's ten worst samples but only one cycle's.
    tail = stats.median(
        stats.latency_summary(latencies(c, c.factor if calibrated else 1.0))["tail"]
        for c in open_cycles
    )
    within = sum(stats.within_limit(latencies(c), LATENCY_LIMIT_S) for c in rate_cycles)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "cold_s": stats.median(cold),
        "warm_p50_ms": 1000.0 * stats.median(hits),
        "warm_tail_ms": 1000.0 * tail,
        "warm_rps": within / sum(c.seconds for c in rate_cycles),
    }


def serve(workload: str, seed: int, seconds: int, trace: bool, workdir: Path, golden: dict, smoke: bool) -> Outcome:
    import loadgen

    rng = random.Random(f"{workload}:{seed}")
    traffic = Traffic(golden)
    pool = inputs.warm_pool(seed, 1 if smoke else POOL_SETS)
    servers: list[Server] = []

    def start_server() -> float:
        if servers:
            servers[-1].stop()
        servers.append(Server(workdir, f"server{len(servers)}", trace))
        return servers[-1].start()

    try:
        setup_s = stats.median(start_server() for _ in range(SETUP_REPEATS))
        server = servers[-1]
        speed = HostSpeed()
        speed.sample()
        cold_raw, cold_scaled, warm_results = _warm_up(server, traffic, pool, speed)

        def hit() -> tuple[int, bytes]:
            return traffic.body(rng.choice(pool))

        # serve_warm: open-loop cycles at WARM_RPS over both connections, then
        # closed-loop saturation cycles.  serve_mixed: per cycle, hits at
        # MIXED_HIT_RPS on one connection and one never-seen miss on the
        # other, 0.5 s in.
        connections = [loadgen.Connection(server.host, server.port) for _ in range(2)]
        plan: list[tuple[Cycle, list]] = []
        if workload == "serve_warm":
            for _ in range(max(1, round(OPEN_SHARE * seconds / WARM_CYCLE_S))):
                schedule = [(i / WARM_RPS, *hit()) for i in range(int(WARM_RPS * WARM_CYCLE_S))]
                plan.append((Cycle([loadgen.Stream(connections)], WARM_CYCLE_S), [schedule]))
            for _ in range(max(1, round((1 - OPEN_SHARE) * seconds / WARM_CYCLE_S))):
                plan.append((Cycle([loadgen.Stream(connections)], WARM_CYCLE_S), []))
        else:
            for request in inputs.misses(seed, max(1, round(seconds / MIXED_CYCLE_S))):
                hits = [(i / MIXED_HIT_RPS, *hit()) for i in range(int(MIXED_HIT_RPS * MIXED_CYCLE_S))]
                miss = [(0.5, *traffic.body(request))]
                streams = [loadgen.Stream(connections[:1]), loadgen.Stream(connections[1:])]
                plan.append((Cycle(streams, MIXED_CYCLE_S), [hits, miss]))

        async def timed() -> None:
            try:
                for cycle, schedules in plan:
                    if schedules:
                        begin = time.perf_counter() + 0.01
                        await asyncio.gather(*(
                            loadgen.open_loop(stream, schedule, begin, "/v1/predict")
                            for stream, schedule in zip(cycle.streams, schedules)
                        ))
                    else:
                        begin = time.perf_counter()
                        await loadgen.closed_loop(
                            cycle.streams[0], hit, begin + cycle.seconds, "/v1/predict"
                        )
                        cycle.seconds = time.perf_counter() - begin
                    if workload == "serve_mixed":
                        cycle.factor = speed.factor()  # every answer is in: the server idles
            finally:
                for connection in connections:
                    await connection.close()

        before = server.counters()
        start = time.perf_counter()
        asyncio.run(timed())
        end = time.perf_counter()
        after = server.counters()
        peak_rss_mb = server.peak_rss_mb()
    finally:
        for each in servers:
            each.stop()

    cycles = [cycle for cycle, _ in plan]
    streams = [stream for cycle in cycles for stream in cycle.streams]
    results = [r for stream in streams for r in stream.results]
    failures = [reason for reason in map(traffic.check, warm_results + results) if reason]
    lags = [lag for stream in streams for lag in stream.lags]
    hit_cycles = [c for c in cycles if c.streams[0].lags]
    if workload == "serve_warm":
        rate_cycles = [c for c in cycles if not c.streams[0].lags]  # saturation
    else:
        rate_cycles = hit_cycles
        cold_raw = [r.latency for c in cycles for r in c.streams[1].results]
        cold_scaled = [r.latency * c.factor for c in cycles for r in c.streams[1].results]
    hits_per_cycle = len(hit_cycles[0].streams[0].results)
    outcome = Outcome(
        e2e=_serve_e2e(cycles, rate_cycles, cold_scaled, setup_s, peak_rss_mb, calibrated=True),
        raw=_serve_e2e(cycles, rate_cycles, cold_raw, setup_s, peak_rss_mb, calibrated=False),
        host_speed=speed.overall,
        attempted=len(warm_results) + len(results),
        failed=len(failures),
        report={
            "pool": sorted({f"{r.workload}/{r.machine}" for r in pool}),
            "cold_samples": len(cold_raw),
            "cycles": len(cycles),
            "warm_samples": hits_per_cycle * len(hit_cycles),
            "warm_tail_percentile": stats.tail_percentile(hits_per_cycle),
            "loadgen_lag_ms_p99": 1000.0 * stats.percentile(lags, 99),
            "loadgen_fell_behind": stats.percentile(lags, 99) > loadgen.LAG_LIMIT_S,
            "failures": failures[:5],
        },
    )
    if trace:
        outcome.layers, outcome.report["self_time_s"] = _serve_layers(
            server, before, after, streams, start, end
        )
    return outcome


#: The end-to-end metrics under the names the issue tracker uses:
#: (issue name, metric, factor) per workload.
ISSUE_NAMES = {
    "campaign_cold": (("campaign_cold_s", "cold_s", 1.0), ("campaign_warm_s", "warm_p50_ms", 1e-3)),
    "serve_warm": (
        ("warm_p50_ms", "warm_p50_ms", 1.0),
        ("warm_p99_ms", "warm_tail_ms", 1.0),
        ("warm_peak_rps", "warm_rps", 1.0),
    ),
    "serve_mixed": (
        ("mixed_hit_p50_ms", "warm_p50_ms", 1.0),
        ("mixed_hit_p99_ms", "warm_tail_ms", 1.0),
        ("mixed_miss_p50_s", "cold_s", 1.0),
    ),
}

WORKLOADS = {
    "campaign_cold": campaign_cold,
    "serve_warm": lambda *a: serve("serve_warm", *a),
    "serve_mixed": lambda *a: serve("serve_mixed", *a),
}


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def _declared_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    # A failed request has an infinite latency; JSON has no infinity.
    return {
        name: {"value": v if v != float("inf") else 1e9, "unit": units[name]}
        for name, v in values.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    parser.add_argument("--golden", type=Path, default=HERE / "golden.json",
                        help="golden answers to check against (self-tests perturb a copy)")
    args = parser.parse_args(argv)

    if not (env.SRC / "repro").is_dir():
        print(f"error: no program source at {env.SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    env.make_hermetic()
    sys.path.insert(0, str(env.SRC))
    e2e_units, layer_units = _declared_units()
    golden = json.loads(args.golden.read_text())

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir, golden, args.smoke
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is using it

    if args.trace:
        layers = dict(outcome.layers)
        layers.update({f"traced.{k}": v for k, v in outcome.e2e.items()})
        layers["host.speed_factor"] = outcome.host_speed
        metrics = _metrics(layers, layer_units)
    else:
        metrics = _metrics(outcome.e2e, e2e_units)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("host " + json.dumps(env.fingerprint(args.seed)))
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    e2e = outcome.e2e
    issue = {name: e2e[metric] * factor for name, metric, factor in ISSUE_NAMES[args.workload]}
    issue.update(
        setup_s=e2e["setup_s"],
        peak_rss_mb=e2e["peak_rss_mb"],
        error_rate=stats.ratio(outcome.failed, outcome.attempted),
    )
    print("issue names " + json.dumps(issue))
    print(f"  {outcome.failed} failed or wrong of {outcome.attempted} attempted")
    outcome.report.update(host_speed=outcome.host_speed, raw=outcome.raw)
    print("report " + json.dumps(outcome.report, default=str))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
