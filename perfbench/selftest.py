"""Self-tests of the benchmark (not collected by pytest; about two minutes).

    python3 perfbench/selftest.py

* smoke: every workload runs briefly with ``--trace 0`` and ``--trace 1``,
  and its last line carries exactly the metrics ``BENCHMARK.json`` names,
  each with its declared unit;
* a perturbed golden answer makes the run report failures;
* a refused request counts as missing the latency limit;
* without the program's source the benchmark fails without a result.
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import stats  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_declared_metric_is_printed_with_its_unit(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, out = run_bench(
                        "--workload", workload, "--seed", "1", "--seconds", "2",
                        "--trace", trace, "--smoke",
                    )
                    self.assertEqual(code, 0, out)
                    result = last_json(out)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared},
                    )


class GoldenPerturbation(unittest.TestCase):
    def test_a_wrong_golden_answer_is_counted_as_failed(self) -> None:
        golden = json.loads((HERE / "golden.json").read_text())
        for entry in golden["predictions"].values():
            entry["predicted_times_s"][-1] *= 1.001
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "golden.json"
            path.write_text(json.dumps(golden))
            code, out = run_bench(
                "--workload", "serve_warm", "--seed", "1", "--seconds", "2",
                "--trace", "0", "--smoke", "--golden", str(path),
            )
        self.assertEqual(code, 0, out)
        result = last_json(out)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_table4_error_tolerance(self) -> None:
        import golden as golden_mod

        row = dict(json.loads((HERE / "golden.json").read_text())["campaign"]["rows"]["genome"])
        self.assertIsNone(golden_mod.check_row(row, row))
        moved = dict(row, max_errors_pct={k: v + 0.11 for k, v in row["max_errors_pct"].items()})
        self.assertIsNotNone(golden_mod.check_row(row, moved))


class RefusedRequests(unittest.TestCase):
    def test_a_refused_request_misses_the_latency_limit(self) -> None:
        async def scenario() -> loadgen.Stream:
            async def refuse(reader, writer) -> None:
                await reader.readline()
                writer.close()  # refuse: close without answering

            server = await asyncio.start_server(refuse, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            stream = loadgen.Stream([loadgen.Connection("127.0.0.1", port)])
            await loadgen.open_loop(stream, [(0.0, 1, b"{}"), (0.01, 2, b"{}")],
                                    time.perf_counter(), "/v1/predict")
            await stream.connections[0].close()
            server.close()
            await server.wait_closed()
            return stream

        stream = asyncio.run(scenario())
        latencies = [r.latency for r in stream.results]
        self.assertEqual(len(latencies), 2)
        self.assertTrue(all(math.isinf(x) for x in latencies))
        self.assertEqual(stats.within_limit(latencies, 0.025), 0)
        # 12 refused among 42: they reach the tail percentile (p76.1), not the median.
        summary = stats.latency_summary(latencies * 6 + [0.001] * 30)
        self.assertTrue(math.isinf(summary["tail"]))
        self.assertEqual(summary["p50"], 0.001)


class MissingProgram(unittest.TestCase):
    def test_fails_without_a_result_when_only_the_benchmark_is_present(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "serve_warm",
                 "--seed", "1", "--seconds", "2", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
