"""RESILIENCE experiment: smoke rows, shape, and trace determinism."""

import functools

from repro.experiments import run_observed
from repro.experiments.resilience_faults import (
    ARMS,
    SMOKE_SCENARIOS,
    run_resilience_faults,
)


@functools.lru_cache(maxsize=None)
def _smoke_once(repeat: int):
    # ``repeat`` distinguishes independent runs of the same seeded setup
    result = run_observed(run_resilience_faults, smoke=True)
    return result, result.trace


def test_smoke_produces_full_grid():
    result, _snap = _smoke_once(0)
    assert len(result.rows) == len(SMOKE_SCENARIOS) * len(ARMS)
    for row in result.rows:
        assert 0.0 <= row["success_rate"] <= 1.0
    # scenario x arm coverage, in sweep order
    assert [(r["scenario"], r["arm"]) for r in result.rows] == [
        (s, a) for s in SMOKE_SCENARIOS for a, _cfg in ARMS
    ]


def test_faults_actually_bite_and_retries_fire():
    result, snap = _smoke_once(0)
    for scenario in SMOKE_SCENARIOS[1:]:  # every non-baseline scenario
        dropped = sum(
            r["messages_dropped"] for r in result.rows
            if r["scenario"] == scenario
        )
        assert dropped > 0, f"{scenario} injected nothing"
    retried = sum(r["requests_retried"] for r in result.rows)
    assert retried > 0
    # the trace saw the same story
    assert snap["counts"]["fault.activate"] > 0
    assert snap["counts"]["request.retry"] > 0


def test_baseline_arms_pay_no_fault_cost():
    result, _snap = _smoke_once(0)
    for row in result.rows:
        if row["scenario"] != "baseline":
            continue
        assert row["success_rate"] == 1.0
        assert row["messages_dropped"] == 0
        assert row["requests_failed"] == 0


def test_seeded_run_is_deterministic():
    """Two in-process runs of the same seeded sweep produce identical
    rows and an identical trace digest — the acceptance criterion for
    the fault layer's determinism."""
    result_a, snap_a = _smoke_once(0)
    result_b, snap_b = _smoke_once(1)
    assert result_a.rows == result_b.rows
    assert snap_a["digest"] == snap_b["digest"]
    assert snap_a["emitted"] == snap_b["emitted"]
    assert snap_a["emitted"] > 10_000
