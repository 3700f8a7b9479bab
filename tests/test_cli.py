"""Tests for the ``estima`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_predict_requires_target_cores(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--workload", "genome", "--machine", "xeon20"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["measure", "--workload", "doom", "--machine", "xeon20", "--output", "x.json"]
            )


class TestCommands:
    def test_list_prints_workloads_and_machines(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "intruder" in out
        assert "opteron48" in out

    def test_measure_writes_json(self, tmp_path, capsys):
        output = tmp_path / "meas.json"
        code = main(
            [
                "measure",
                "--workload",
                "genome",
                "--machine",
                "haswell_desktop",
                "--cores",
                "4",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["workload"] == "genome"
        assert len(payload["measurements"]) == 4

    def test_predict_from_measurement_file(self, tmp_path, capsys):
        output = tmp_path / "meas.json"
        main(
            [
                "measure",
                "--workload",
                "genome",
                "--machine",
                "xeon20",
                "--cores",
                "10",
                "--output",
                str(output),
            ]
        )
        code = main(["predict", "--input", str(output), "--target-cores", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ESTIMA prediction" in out
        assert "Bottleneck report" in out

    def test_predict_needs_input_or_workload(self, capsys):
        assert main(["predict", "--target-cores", "20"]) == 2

    def test_predict_simulating_directly_with_baseline(self, capsys):
        code = main(
            [
                "predict",
                "--workload",
                "blackscholes",
                "--machine",
                "xeon20",
                "--measure-cores",
                "10",
                "--target-cores",
                "20",
                "--baseline",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Time-extrapolation baseline" in out

    def test_predict_json_output_is_machine_readable(self, capsys):
        code = main(
            [
                "predict",
                "--workload",
                "genome",
                "--machine",
                "xeon20",
                "--measure-cores",
                "10",
                "--target-cores",
                "20",
                "--baseline",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "genome"
        assert payload["target_cores"] == 20
        assert len(payload["predicted_times_s"]) == 20
        assert payload["prediction_cores"] == list(range(1, 21))
        assert payload["scaling_factor"]["kernel"]
        assert isinstance(payload["predicted_peak_cores"], int)
        assert len(payload["baseline"]["predicted_times_s"]) == 20


CAMPAIGN_ARGS = [
    "campaign",
    "--machine",
    "xeon20",
    "--measure-cores",
    "10",
    "--workloads",
    "genome,blackscholes",
    "--core-counts",
    "1,2,3,4,6,8,10,12,16,20",
]


class TestCampaignCommand:
    def test_text_table_and_engine_line(self, capsys):
        code = main(CAMPAIGN_ARGS + ["--targets", "full=20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Benchmark" in out
        assert "genome" in out and "blackscholes" in out
        assert "executor=serial" in out

    def test_json_output_with_fit_cache(self, capsys):
        code = main(
            CAMPAIGN_ARGS + ["--targets", "half=16,full=20", "--fit-cache", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["workload"] for row in payload["rows"]} == {"genome", "blackscholes"}
        assert payload["target_labels"] == ["half", "full"]
        assert set(payload["aggregates"]) == {"half", "full"}
        caches = payload["engine"]["caches"]
        assert caches["prediction"]["hits"] > 0

    def test_bare_core_count_targets_and_csv_output(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        code = main(
            CAMPAIGN_ARGS + ["--targets", "20", "--output", str(out_csv)]
        )
        assert code == 0
        content = out_csv.read_text()
        assert "estima[20 cores]" in content
        assert "genome" in content

    def test_unknown_workload_rejected(self, capsys):
        code = main(
            ["campaign", "--machine", "xeon20", "--measure-cores", "10",
             "--targets", "20", "--workloads", "doom"]
        )
        assert code == 2
        assert "unknown workloads" in capsys.readouterr().err

    @pytest.mark.parametrize("executor", ["threads", "threads:2", "remote:127.0.0.1:7070"])
    def test_removed_executor_rejected(self, capsys, executor):
        code = main(
            ["campaign", "--machine", "xeon20", "--measure-cores", "10",
             "--targets", "20", "--workloads", "genome", "--executor", executor]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid --executor" in err and "unknown executor" in err

    def test_bad_targets_rejected(self, capsys):
        code = main(
            ["campaign", "--machine", "xeon20", "--measure-cores", "10",
             "--targets", " , "]
        )
        assert code == 2
        assert "invalid --targets" in capsys.readouterr().err

    def test_stats_flag_prints_executor_and_tier_counters(self, capsys):
        code = main(
            CAMPAIGN_ARGS + ["--targets", "full=20", "--fit-cache", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "executor counters:" in out
        assert "backend=serial" in out
        assert "cache tiers:" in out

    def test_json_engine_block_has_executor_stats(self, capsys):
        code = main(
            CAMPAIGN_ARGS + ["--targets", "full=20", "--stats", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        executor_stats = payload["engine"]["executor_stats"]
        assert executor_stats["backend"] == "serial"
        assert executor_stats["tasks"] == 2


class TestPredictStats:
    PREDICT_ARGS = [
        "predict", "--workload", "genome", "--machine", "xeon20",
        "--measure-cores", "10", "--target-cores", "20",
    ]

    def test_stats_text_block(self, capsys):
        code = main(self.PREDICT_ARGS + ["--fit-cache", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: executor=serial" in out
        assert "fit:" in out and "hits" in out

    def test_stats_json_block(self, capsys):
        code = main(self.PREDICT_ARGS + ["--fit-cache", "--stats", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        caches = payload["engine"]["caches"]
        # hits when an earlier in-process test already warmed the region,
        # misses otherwise — either way the fit cache was consulted.
        assert caches["fit"]["hits"] + caches["fit"]["misses"] > 0
        assert set(caches["fit"]) == {"hits", "misses", "disk_hits", "disk_misses"}

    def test_no_stats_flag_omits_engine_block(self, capsys):
        code = main(self.PREDICT_ARGS + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "engine" not in payload

    def test_invalid_executor_rejected(self, capsys):
        code = main(self.PREDICT_ARGS + ["--executor", "warp"])
        assert code == 2
        assert "invalid --executor" in capsys.readouterr().err

    def test_stats_includes_fit_stage_timings(self, capsys):
        code = main(self.PREDICT_ARGS + ["--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fit stages:" in out
        assert "nonlinear_solve" in out


class TestProfileCommand:
    PROFILE_ARGS = [
        "profile", "--workload", "genome", "--machine", "xeon20",
        "--measure-cores", "10", "--target-cores", "20",
    ]

    def test_text_report_lists_stages(self, capsys):
        code = main(self.PROFILE_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "wall time:" in out
        assert "nonlinear_solve" in out

    def test_json_report_is_machine_readable(self, capsys):
        code = main(self.PROFILE_ARGS + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target_cores"] == 20
        assert payload["wall_s"] > 0.0
        assert payload["profile"]["nonlinear_solve"]["calls"] > 0

    def test_needs_input_or_workload(self, capsys):
        assert main(["profile", "--target-cores", "20"]) == 2
        assert "profile needs" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_on_empty_dir(self, tmp_path, capsys):
        code = main(["cache", "stats", "--cache-dir", str(tmp_path / "c"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 0
        assert payload["schema_version"] >= 1

    def test_warm_then_stats_then_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        code = main(
            [
                "cache", "warm", "--cache-dir", cache_dir, "--machine", "xeon20",
                "--workloads", "genome", "--measure-cores", "10",
                "--target-cores", "20", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["warmed"] == ["genome"]
        assert payload["store"]["entries"] > 0
        assert "fit" in payload["store"]["regions"]

        # Simulate a process restart: drop the in-memory tier (the disk tier
        # survives), exactly what a fresh `estima predict` process would see.
        from repro.engine.cache import clear_caches

        clear_caches()

        # A later predict run in the same cache dir starts warm: the fit
        # region is served entirely from disk, re-fitting zero kernels.
        code = main(
            [
                "predict", "--workload", "genome", "--machine", "xeon20",
                "--measure-cores", "10", "--target-cores", "20",
                "--fit-cache", "--cache-dir", cache_dir, "--stats", "--json",
            ]
        )
        assert code == 0
        caches = json.loads(capsys.readouterr().out)["engine"]["caches"]
        assert caches["fit"]["disk_misses"] == 0
        assert caches["fit"]["disk_hits"] > 0
        assert caches["extrapolation"]["disk_misses"] == 0

        code = main(["cache", "clear", "--cache-dir", cache_dir, "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["removed"] > 0

    def test_cache_dir_implies_fit_cache(self, tmp_path, capsys):
        """--cache-dir alone must use the warmed tier, not silently ignore it."""
        cache_dir = str(tmp_path / "c")
        assert main(
            ["cache", "warm", "--cache-dir", cache_dir, "--machine", "xeon20",
             "--workloads", "genome", "--measure-cores", "10",
             "--target-cores", "20"]
        ) == 0
        capsys.readouterr()
        from repro.engine.cache import clear_caches

        clear_caches()  # simulated process restart
        code = main(
            ["predict", "--workload", "genome", "--machine", "xeon20",
             "--measure-cores", "10", "--target-cores", "20",
             "--cache-dir", cache_dir, "--stats", "--json"]  # no --fit-cache
        )
        assert code == 0
        caches = json.loads(capsys.readouterr().out)["engine"]["caches"]
        assert caches["fit"]["disk_hits"] > 0

    def test_warm_requires_machine_and_target(self, tmp_path, capsys):
        code = main(["cache", "warm", "--cache-dir", str(tmp_path / "c")])
        assert code == 2
        assert "needs --machine and --target-cores" in capsys.readouterr().err

    def test_warm_rejects_unknown_workloads(self, tmp_path, capsys):
        code = main(
            ["cache", "warm", "--cache-dir", str(tmp_path / "c"),
             "--machine", "xeon20", "--target-cores", "20", "--workloads", "doom"]
        )
        assert code == 2
        assert "unknown workloads" in capsys.readouterr().err


class TestServeConfigValidation:
    """Satellite: malformed ESTIMA_SERVE_WORKERS / --tcp values fail fast."""

    def test_malformed_env_serve_workers_rejected_at_config(self, monkeypatch):
        from repro.core import EstimaConfig

        monkeypatch.setenv("ESTIMA_SERVE_WORKERS", "many")
        with pytest.raises(ValueError, match="ESTIMA_SERVE_WORKERS"):
            EstimaConfig()

    def test_valid_env_serve_workers_accepted(self, monkeypatch):
        from repro.core import EstimaConfig

        monkeypatch.setenv("ESTIMA_SERVE_WORKERS", "4")
        EstimaConfig()  # must not raise

    def test_negative_serve_workers_rejected_at_config(self):
        from repro.core import EstimaConfig

        with pytest.raises(ValueError, match="serve_workers"):
            EstimaConfig(serve_workers=-1)

    def test_malformed_tcp_rejected_at_config(self):
        from repro.core import EstimaConfig

        with pytest.raises(ValueError, match="HOST:PORT"):
            EstimaConfig(serve_tcp="nonsense")
        with pytest.raises(ValueError, match="port"):
            EstimaConfig(serve_tcp="127.0.0.1:notaport")
        with pytest.raises(ValueError, match="0..65535"):
            EstimaConfig(serve_tcp="127.0.0.1:70000")

    def test_valid_tcp_accepted_at_config(self):
        from repro.core import EstimaConfig

        EstimaConfig(serve_tcp="0.0.0.0:8080", serve_workers=2)  # must not raise

    def test_cli_rejects_malformed_tcp(self, capsys):
        assert main(["serve", "--tcp", "nonsense"]) == 2
        assert "invalid serve configuration" in capsys.readouterr().err

    def test_cli_rejects_malformed_env_workers(self, monkeypatch, capsys):
        monkeypatch.setenv("ESTIMA_SERVE_WORKERS", "lots")
        assert main(["serve"]) == 2
        assert "ESTIMA_SERVE_WORKERS" in capsys.readouterr().err

    def test_cli_rejects_workers_without_socket_transport(self, capsys):
        assert main(["serve", "--workers", "2"]) == 2
        assert "--workers needs a socket transport" in capsys.readouterr().err

    def test_cli_rejects_tcp_plus_socket(self, capsys):
        assert main(["serve", "--tcp", "127.0.0.1:0", "--socket", "/tmp/x.sock"]) == 2
        assert "at most one" in capsys.readouterr().err

    def test_cli_rejects_http_plus_tcp(self, capsys):
        assert main(["serve", "--http", "127.0.0.1:0", "--tcp", "127.0.0.1:0"]) == 2
        assert "at most one" in capsys.readouterr().err


class TestServeHttpConfigValidation:
    """Satellite: malformed ESTIMA_SERVE_HTTP / --http values fail fast."""

    def test_malformed_http_rejected_at_config(self):
        from repro.core import EstimaConfig

        with pytest.raises(ValueError, match="serve_http"):
            EstimaConfig(serve_http="nonsense")
        with pytest.raises(ValueError, match="port"):
            EstimaConfig(serve_http="127.0.0.1:notaport")
        with pytest.raises(ValueError, match="0..65535"):
            EstimaConfig(serve_http="127.0.0.1:70000")

    def test_valid_http_accepted_at_config(self):
        from repro.core import EstimaConfig

        EstimaConfig(serve_http="0.0.0.0:7979", serve_workers=4)  # must not raise

    def test_malformed_env_serve_http_rejected_at_config(self, monkeypatch):
        from repro.core import EstimaConfig

        monkeypatch.setenv("ESTIMA_SERVE_HTTP", "no-port-here")
        with pytest.raises(ValueError, match="ESTIMA_SERVE_HTTP"):
            EstimaConfig()

    def test_valid_env_serve_http_accepted(self, monkeypatch):
        from repro.core import EstimaConfig

        monkeypatch.setenv("ESTIMA_SERVE_HTTP", "127.0.0.1:7979")
        EstimaConfig()  # must not raise

    def test_cli_rejects_malformed_http(self, capsys):
        assert main(["serve", "--http", "nonsense"]) == 2
        assert "invalid serve configuration" in capsys.readouterr().err

    def test_cli_rejects_malformed_env_http(self, monkeypatch, capsys):
        monkeypatch.setenv("ESTIMA_SERVE_HTTP", "nonsense")
        assert main(["serve"]) == 2
        assert "ESTIMA_SERVE_HTTP" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_round_trip_over_stdio_subprocess(self, tmp_path):
        """End-to-end: the `estima serve` process answers NDJSON on stdio."""
        import subprocess
        import sys as _sys
        from pathlib import Path

        measurements = tmp_path / "meas.json"
        assert main(
            ["measure", "--workload", "genome", "--machine", "xeon20",
             "--cores", "10", "--output", str(measurements)]
        ) == 0
        request = {
            "id": 1,
            "target_cores": 20,
            "measurements": json.loads(measurements.read_text()),
        }
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [_sys.executable, "-m", "repro.cli", "serve", "--stats"],
            input=json.dumps(request) + "\n",
            capture_output=True,
            text=True,
            timeout=300,
            env={**__import__("os").environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        response = json.loads(proc.stdout.strip().splitlines()[-1])
        assert response["id"] == 1 and response["ok"]
        assert len(response["result"]["predicted_times_s"]) == 20
        # --stats: the shutdown report on stderr is machine-readable
        stats = json.loads(proc.stderr.strip().splitlines()[-1])
        assert stats["server"]["responses"] == 1
