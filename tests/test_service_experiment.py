"""SERVICE experiment: smoke grid, row schema, determinism."""

import pytest

from repro.experiments import run_service_slo
from repro.experiments.service_slo import OVERLAY_ARMS, PROCESS_ARMS
from repro.service import Bootstrapper, ServiceConfig

REQUIRED_COLUMNS = {
    "overlay", "mode", "process", "rate_per_s", "offered", "offered_per_s",
    "throughput_per_s", "success_rate", "timed_out", "unfinished",
    "p50", "p95", "p99", "mean",
}


@pytest.fixture(scope="module")
def smoke_result():
    return run_service_slo(
        smoke=True, n_hosts=16,
        duration_ms=4_000.0, settle_ms=5_000.0,
        drain_ms=5_000.0, timeout_ms=4_000.0,
    )


def test_grid_covers_overlays_processes_and_both_loops(smoke_result):
    rows = smoke_result.rows
    assert len(rows) == len(OVERLAY_ARMS) * (len(PROCESS_ARMS) + 1)
    open_cells = {
        (r["overlay"], r["process"]) for r in rows if r["mode"] == "open"
    }
    assert open_cells == {
        (o, p) for o in OVERLAY_ARMS for p in PROCESS_ARMS
    }
    closed = [r for r in rows if r["mode"] == "closed"]
    assert {r["overlay"] for r in closed} == set(OVERLAY_ARMS)


def test_rows_report_slo_columns(smoke_result):
    for row in smoke_result.rows:
        assert REQUIRED_COLUMNS <= set(row)
        assert row["offered"] > 0
        assert 0.0 <= row["success_rate"] <= 1.0
        if row["success_rate"] > 0:
            assert row["p50"] <= row["p95"] <= row["p99"]
            assert row["p50"] > 0


def test_kademlia_open_loop_succeeds_under_every_process(smoke_result):
    for row in smoke_result.rows:
        if row["overlay"] == "kademlia" and row["mode"] == "open":
            assert row["success_rate"] > 0.9, row
            assert row["throughput_per_s"] > 0


def test_notes_summarise_tail_by_process(smoke_result):
    assert any("p99 by arrival process" in n for n in smoke_result.notes)


def test_rows_identical_at_any_worker_count():
    kwargs = dict(
        smoke=True, n_hosts=12, duration_ms=2_000.0,
        settle_ms=4_000.0, drain_ms=3_000.0, timeout_ms=2_000.0,
    )
    serial = run_service_slo(workers=1, **kwargs)
    parallel = run_service_slo(workers=2, **kwargs)
    assert serial.rows == parallel.rows


def test_saturation_knee_is_visible():
    # EXPERIMENTS.md §SERVICE's headline, in simulated ms: one in-flight
    # op per origin gives the population a service capacity, and latency
    # is measured from the scheduled arrival, so offered load beyond it
    # shows up as queue wait in the tail (p99 157.6 ms at 20 ops/s,
    # 11,870.5 ms at 480 ops/s: 75x)
    boot = Bootstrapper(
        ServiceConfig(
            overlay="kademlia", n_hosts=16, seed=13,
            settle_ms=20_000.0, n_seed_keys=24,
        )
    )
    boot.build()
    # retrieve-only: near-constant service time makes the knee sharp
    boot.default_mix = lambda: [boot.ops.retrieve_spec()]
    low, high = (
        boot.drive_sync(
            process="poisson", rate_per_s=rate, duration_ms=15_000.0,
            drain_ms=120_000.0, timeout_ms=None, concurrency_per_origin=1,
        ).as_dict()
        for rate in (20.0, 480.0)
    )
    boot.stop_sync()
    assert low["success_rate"] == 1.0
    assert low["throughput_per_s"] >= 0.9 * low["offered_per_s"]
    assert high["latency_ms"]["p99"] >= 5.0 * low["latency_ms"]["p99"]
