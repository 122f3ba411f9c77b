"""Unit tests for the parallel sweep runner (:mod:`repro.runner`)."""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.errors import RunnerError
from repro.runner import (
    ENV_SERIAL,
    ENV_WORKERS,
    configure_default_workers,
    default_workers,
    resolve_workers,
    run_arms,
)


@pytest.fixture(autouse=True)
def _clean_runner_state(monkeypatch):
    """No configured default and no runner env vars leak between tests."""
    monkeypatch.delenv(ENV_SERIAL, raising=False)
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    configure_default_workers(None)
    yield
    configure_default_workers(None)


def _square(x: int) -> int:
    return x * x


class TestResolveWorkers:
    def test_defaults_to_serial(self):
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1

    def test_explicit_argument_wins(self):
        assert resolve_workers(4) == 4

    def test_configured_default(self):
        configure_default_workers(3)
        assert default_workers() == 3
        assert resolve_workers() == 3
        assert resolve_workers(2) == 2  # explicit still wins

    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "5")
        assert resolve_workers() == 5

    def test_env_workers_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "many")
        with pytest.raises(RunnerError):
            resolve_workers()

    def test_serial_env_overrides_everything(self, monkeypatch):
        monkeypatch.setenv(ENV_SERIAL, "1")
        configure_default_workers(8)
        assert resolve_workers(16) == 1

    def test_configure_rejects_nonpositive(self):
        with pytest.raises(RunnerError):
            configure_default_workers(0)


class TestRunArms:
    def test_empty_arms(self):
        assert run_arms(_square, [], workers=4) == []

    def test_serial_maps_in_order(self):
        assert run_arms(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_parallel_preserves_arm_order(self):
        arms = list(range(20))
        assert run_arms(_square, arms, workers=4) == [a * a for a in arms]

    def test_parallel_equals_serial(self):
        arms = [3, 1, 4, 1, 5, 9, 2, 6]
        assert run_arms(_square, arms, workers=3) == run_arms(
            _square, arms, workers=1
        )

    def test_closures_and_lambdas_cross_the_fork(self):
        # fork inherits the closure; nothing about fn is pickled
        offset = 100
        out = run_arms(lambda a: a + offset, [1, 2, 3], workers=2)
        assert out == [101, 102, 103]

    def test_single_arm_stays_serial(self):
        pid = os.getpid()
        out = run_arms(lambda _a: os.getpid(), [0], workers=4)
        assert out == [pid]

    def test_parallel_actually_uses_other_processes(self):
        pids = set(run_arms(lambda _a: os.getpid(), [0, 1, 2, 3], workers=2))
        assert os.getpid() not in pids
        assert len(pids) >= 1

    def test_worker_exception_raises_runner_error_with_traceback(self):
        def boom(a):
            if a == 2:
                raise ValueError("kaboom-in-worker")
            return a

        with pytest.raises(RunnerError, match="kaboom-in-worker"):
            run_arms(boom, [1, 2, 3], workers=2)

    def test_serial_env_forces_in_process_execution(self, monkeypatch):
        monkeypatch.setenv(ENV_SERIAL, "1")
        pid = os.getpid()
        out = run_arms(lambda _a: os.getpid(), [0, 1, 2], workers=4)
        assert out == [pid, pid, pid]


class TestRunnerObservability:
    def test_worker_scope_is_isolated_from_parent_trace(self):
        # parallel arms must not write into the parent's tracer: only
        # parent-side events (none here) appear
        with obs.observe() as tracer:
            run_arms(_square, [1, 2, 3, 4], workers=2)
        assert tracer.emitted == 0

    def test_no_registry_no_crash(self):
        # outside any observe() scope the runner runs plainly
        assert run_arms(_square, [5], workers=1) == [25]
