"""Parallel-vs-serial equivalence: the runner's determinism contract.

The acceptance criterion for :mod:`repro.runner`: rewired experiments
produce **row-for-row identical** output at any worker count, and traced
serial runs keep a stable digest (the serial path is behaviourally the
plain ``for`` loop it replaced).
"""

from __future__ import annotations

import functools

import pytest

from repro import obs
from repro.experiments.common import repeat_over_seeds
from repro.experiments.fig6_bns import run_fig6
from repro.experiments.resilience_faults import run_resilience_faults


@functools.lru_cache(maxsize=None)
def _fig6(workers: int):
    result = run_fig6(n_hosts=60, seed=17, workers=workers)
    return result.rows


@functools.lru_cache(maxsize=None)
def _resilience(workers: int):
    result = run_resilience_faults(smoke=True, workers=workers)
    return result.rows


def test_fig6_rows_identical_serial_vs_parallel():
    serial = _fig6(1)
    parallel = _fig6(2)
    assert len(serial) == len(parallel) > 0
    for row_s, row_p in zip(serial, parallel):
        assert row_s == row_p  # bit-identical, row for row


def test_resilience_smoke_rows_identical_serial_vs_parallel():
    serial = _resilience(1)
    parallel = _resilience(2)
    assert len(serial) == len(parallel) > 0
    for row_s, row_p in zip(serial, parallel):
        assert row_s == row_p


def test_repeat_over_seeds_identical_serial_vs_parallel():
    from repro.experiments.common import ExperimentResult

    def experiment(seed: int) -> ExperimentResult:
        # cheap deterministic stand-in with seed-dependent spread
        res = ExperimentResult("TOY", "seed-dependent toy experiment")
        for arm in ("a", "b"):
            res.add_row(arm=arm, value=float((seed * seed + len(arm)) % 7))
        return res

    seeds = [3, 17, 29, 41]
    kwargs = dict(seeds=seeds, key_column="arm", value_columns=["value"])
    serial = repeat_over_seeds(experiment, workers=1, **kwargs)
    parallel = repeat_over_seeds(experiment, workers=2, **kwargs)
    assert serial.rows == parallel.rows
    assert len(serial.rows) == 2


def test_traced_serial_run_keeps_stable_digest():
    """workers=1 runs arms in the ambient scope: two traced serial runs
    of the same seeded sweep emit identical digests (the pre-runner
    golden-trace property, preserved)."""
    digests = []
    for _repeat in range(2):
        with obs.observe() as tracer:
            run_fig6(n_hosts=50, seed=17, workers=1)
        assert tracer.emitted > 0  # arms really traced
        digests.append(tracer.digest())
    assert digests[0] == digests[1]


def test_parallel_rows_unaffected_by_parent_tracing():
    """Tracing the parent must not perturb parallel results (workers do
    not ship trace events home; rows stay the runner-contract rows)."""
    with obs.observe():
        traced_rows = run_fig6(n_hosts=60, seed=17, workers=2).rows
    assert traced_rows == _fig6(1)


@pytest.mark.parametrize("workers", [1, 2])
def test_rows_independent_of_worker_count_env_serial(monkeypatch, workers):
    """REPRO_RUNNER_SERIAL=1 collapses any worker count to the serial
    path and the rows are still the same rows."""
    monkeypatch.setenv("REPRO_RUNNER_SERIAL", "1")
    assert run_fig6(n_hosts=60, seed=17, workers=workers).rows == _fig6(1)
