"""Tests for the pluggable execution backends."""

from __future__ import annotations

import os

import pytest

from repro.engine.executor import (
    ENV_EXECUTOR,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    executor_for_config,
    get_executor,
    parse_executor_spec,
)


def _double(x: int) -> int:
    """Module-level so the process-pool backend can pickle it."""
    return 2 * x


class TestSerialExecutor:
    def test_maps_in_order(self):
        assert SerialExecutor().map(_double, [3, 1, 2]) == [6, 2, 4]

    def test_empty_input(self):
        assert SerialExecutor().map(_double, []) == []

    def test_closures_are_fine_in_process(self):
        offset = 10
        assert SerialExecutor().map(lambda x: x + offset, [1, 2]) == [11, 12]

    def test_context_manager(self):
        with SerialExecutor() as executor:
            assert executor.map(_double, [1]) == [2]


class TestImapStreaming:
    """`imap` yields results in input order, lazily, identical to `map`."""

    def test_serial_imap_is_lazy_and_ordered(self):
        executor = SerialExecutor()
        seen: list[int] = []
        iterator = executor.imap(lambda x: seen.append(x) or 2 * x, [3, 1, 2])
        assert seen == []  # nothing computed until consumed
        assert next(iterator) == 6
        assert seen == [3]  # item 1 was visible before items 2..n ran
        assert list(iterator) == [2, 4]

    def test_parallel_imap_streams_in_submission_order(self):
        executor = ParallelExecutor(max_workers=2)
        assert list(executor.imap(_double, list(range(8)))) == [2 * i for i in range(8)]

    def test_parallel_imap_single_item_runs_inline(self):
        assert list(ParallelExecutor().imap(_double, [21])) == [42]

    def test_imap_counts_tasks_like_map(self):
        executor = SerialExecutor()
        list(executor.imap(_double, [1, 2, 3]))
        assert executor.tasks_mapped == 3
        assert executor.batches_mapped == 1


class TestParallelExecutor:
    def test_maps_in_submission_order(self):
        result = ParallelExecutor(max_workers=2).map(_double, list(range(8)))
        assert result == [2 * i for i in range(8)]

    def test_single_item_runs_inline(self):
        assert ParallelExecutor().map(_double, [21]) == [42]

    def test_matches_serial_results(self):
        items = list(range(12))
        assert ParallelExecutor(max_workers=2).map(_double, items) == SerialExecutor().map(
            _double, items
        )

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=-1)

    def test_auto_worker_count(self):
        executor = ParallelExecutor()
        assert executor.max_workers == (os.cpu_count() or 1)


class TestParseExecutorSpec:
    def test_plain_names(self):
        assert parse_executor_spec("serial") == ("serial", None)
        assert parse_executor_spec("parallel") == ("parallel", None)

    def test_worker_suffixes(self):
        assert parse_executor_spec("parallel:2") == ("parallel", 2)
        assert parse_executor_spec(" Parallel:0 ") == ("parallel", 0)

    def test_malformed_specs_raise_clear_errors(self):
        with pytest.raises(ValueError, match="unknown executor"):
            parse_executor_spec("quantum")
        with pytest.raises(ValueError, match="worker count"):
            parse_executor_spec("parallel:abc")
        with pytest.raises(ValueError, match="worker count"):
            parse_executor_spec("parallel:-3")
        with pytest.raises(ValueError, match="no worker count"):
            parse_executor_spec("serial:2")


class TestRemovedBackends:
    """``threads`` and ``remote:`` are gone; naming them fails cleanly."""

    REMOVED = ("threads", "threads:2", "remote:127.0.0.1:7070")

    @pytest.mark.parametrize("spec", REMOVED)
    def test_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="unknown executor"):
            parse_executor_spec(spec)
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor(spec)

    def test_config_field_rejected_at_construction(self, monkeypatch):
        monkeypatch.delenv(ENV_EXECUTOR, raising=False)
        from repro.core import EstimaConfig

        with pytest.raises(ValueError, match="invalid executor"):
            EstimaConfig(executor="threads:2")

    def test_env_rejected_at_construction(self, monkeypatch):
        from repro.core import EstimaConfig

        monkeypatch.setenv(ENV_EXECUTOR, "remote:127.0.0.1:7070")
        with pytest.raises(ValueError, match="ESTIMA_EXECUTOR"):
            EstimaConfig()


class TestGetExecutor:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_EXECUTOR, raising=False)
        assert isinstance(get_executor(), SerialExecutor)

    def test_named_backends(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("parallel"), ParallelExecutor)

    def test_parallel_worker_suffix(self):
        executor = get_executor("parallel:3")
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 3

    def test_invalid_suffix_rejected(self):
        with pytest.raises(ValueError):
            get_executor("parallel:lots")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_executor("quantum")

    def test_instance_passthrough(self):
        executor = SerialExecutor()
        assert get_executor(executor) is executor

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_EXECUTOR, "parallel:2")
        executor = get_executor()
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 2


class TestExecutorForConfig:
    def test_config_selects_parallel(self, monkeypatch):
        monkeypatch.delenv(ENV_EXECUTOR, raising=False)
        from repro.core import EstimaConfig

        executor = executor_for_config(EstimaConfig(executor="parallel", max_workers=2))
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 2

    def test_env_overrides_default_config(self, monkeypatch):
        monkeypatch.setenv(ENV_EXECUTOR, "parallel")
        from repro.core import EstimaConfig

        assert isinstance(executor_for_config(EstimaConfig()), ParallelExecutor)

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_EXECUTOR, "parallel")
        from repro.core import EstimaConfig

        executor = executor_for_config(EstimaConfig(), "serial")
        assert isinstance(executor, SerialExecutor)

    def test_executor_field_validated(self):
        from repro.core import EstimaConfig

        with pytest.raises(ValueError):
            EstimaConfig(executor="quantum")
        with pytest.raises(ValueError):
            EstimaConfig(executor="parallel:abc")
        with pytest.raises(ValueError):
            EstimaConfig(max_workers=-2)
        EstimaConfig(executor="parallel:4")  # valid spec constructs fine


class TestEnvValidationAtConfigConstruction:
    """Malformed engine env vars fail fast with clear errors (satellite fix)."""

    def test_malformed_env_executor_raises_at_construction(self, monkeypatch):
        from repro.core import EstimaConfig

        monkeypatch.setenv(ENV_EXECUTOR, "parallel:abc")
        with pytest.raises(ValueError, match="ESTIMA_EXECUTOR"):
            EstimaConfig()
        monkeypatch.setenv(ENV_EXECUTOR, "quantum")
        with pytest.raises(ValueError, match="ESTIMA_EXECUTOR"):
            EstimaConfig()

    def test_valid_env_executor_accepted(self, monkeypatch):
        from repro.core import EstimaConfig

        monkeypatch.setenv(ENV_EXECUTOR, "parallel:2")
        EstimaConfig()

    def test_malformed_env_fit_cache_raises_at_construction(self, monkeypatch):
        from repro.core import EstimaConfig

        monkeypatch.setenv("ESTIMA_FIT_CACHE", "maybe")
        with pytest.raises(ValueError, match="ESTIMA_FIT_CACHE"):
            EstimaConfig()

    def test_recognised_fit_cache_tokens_accepted(self, monkeypatch):
        from repro.core import EstimaConfig

        for token in ("1", "0", "true", "no", "ON", ""):
            monkeypatch.setenv("ESTIMA_FIT_CACHE", token)
            EstimaConfig()

    def test_malformed_cache_max_bytes_raises_at_construction(self, monkeypatch):
        from repro.core import EstimaConfig

        monkeypatch.setenv("ESTIMA_CACHE_MAX_BYTES", "lots")
        with pytest.raises(ValueError, match="ESTIMA_CACHE_MAX_BYTES"):
            EstimaConfig()
        monkeypatch.setenv("ESTIMA_CACHE_MAX_BYTES", "-5")
        with pytest.raises(ValueError, match="ESTIMA_CACHE_MAX_BYTES"):
            EstimaConfig()
