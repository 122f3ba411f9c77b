"""Load drivers: lifecycle, capacity gate, timeouts, reports, metrics.

The drivers are exercised against synthetic ops on a bare simulation —
an op that completes after a fixed service time — so every latency in
the assertions is exact.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    ClosedLoopDriver,
    OpenLoopDriver,
    OpSpec,
    PoissonArrivals,
)
from repro.sim.engine import Simulation


def fixed_service_op(sim, service_ms, *, name="op", ok=True, origins=(0,)):
    """An op that completes ``service_ms`` after being started."""

    def pick_origin(rng):
        return origins[int(rng.integers(len(origins)))]

    def issue(origin, on_done):
        sim.schedule(service_ms, on_done, ok)

    return OpSpec(name, 1.0, pick_origin, issue)


def test_opspec_rejects_nonpositive_weight():
    with pytest.raises(ConfigurationError):
        OpSpec("x", 0.0, lambda rng: 0, lambda o, d: None)


def test_open_loop_issues_every_arrival_and_measures_service_time():
    sim = Simulation()
    driver = OpenLoopDriver(
        sim,
        [fixed_service_op(sim, 40.0)],
        PoissonArrivals(20.0, rng=1),
        duration_ms=10_000.0,
        rng=2,
    )
    report = driver.run(drain_ms=1_000.0)
    assert report.mode == "open"
    assert report.offered == report.issued == report.succeeded
    assert report.offered > 100  # ~200 expected
    assert report.failed == report.timed_out == report.unfinished == 0
    # unconstrained concurrency: latency == service time for every op
    assert report.latency_ms["p50"] == pytest.approx(40.0)
    assert report.latency_ms["p99"] == pytest.approx(40.0)
    assert report.success_rate == 1.0
    assert report.throughput_per_s == pytest.approx(report.offered / 10.0)


def test_capacity_gate_queueing_shows_up_in_latency():
    # one origin, one slot, deterministic 100ms service: at 20/s offered
    # the service saturates at 10/s and queue wait must dominate p99
    sim = Simulation()
    driver = OpenLoopDriver(
        sim,
        [fixed_service_op(sim, 100.0)],
        PoissonArrivals(20.0, rng=3),
        duration_ms=5_000.0,
        timeout_ms=None,
        concurrency_per_origin=1,
        rng=4,
    )
    report = driver.run(drain_ms=60_000.0)
    assert report.succeeded == report.offered
    # with a single slot the server completes one op per 100ms, so the
    # backlog grows linearly: tail latency far above the service time
    assert report.latency_ms["p99"] > 1_000.0
    assert report.latency_ms["p50"] > 100.0


def test_gate_fifo_order_and_slot_handoff():
    sim = Simulation()
    finished = []
    spec = fixed_service_op(sim, 10.0)
    driver = OpenLoopDriver(
        sim, [spec], PoissonArrivals(1.0, rng=1),
        duration_ms=100.0, concurrency_per_origin=1, rng=1,
    )
    # three simultaneous arrivals at t=0 through one slot: strict FIFO
    for _ in range(3):
        driver._launch()
    sim.run()
    driver._sweep_unfinished()
    recs = driver.records
    assert [r.status for r in recs] == ["ok", "ok", "ok"]
    assert [r.started_at for r in recs] == [0.0, 10.0, 20.0]
    assert [r.latency_ms for r in recs] == [10.0, 20.0, 30.0]


def test_timeout_marks_op_and_ignores_late_completion():
    sim = Simulation()
    driver = OpenLoopDriver(
        sim,
        [fixed_service_op(sim, 500.0)],
        PoissonArrivals(5.0, rng=1),
        duration_ms=1_000.0,
        timeout_ms=100.0,
        rng=2,
    )
    report = driver.run(drain_ms=2_000.0)
    assert report.timed_out == report.offered
    assert report.succeeded == 0
    assert math.isnan(report.latency_ms["p50"])
    # late completions (at +500ms, after the +100ms deadline) are ignored
    assert all(r.status == "timeout" for r in driver.records)
    assert all(r.finished_at - r.arrived_at == 100.0 for r in driver.records)


def test_timeout_cascade_through_a_saturated_slot():
    # three simultaneous arrivals, one slot, op that outlives the 50ms
    # deadline: every record times out, the slot hands off cleanly at
    # the deadline timestamp, and late completions change nothing
    sim = Simulation()
    started = []

    def issue(origin, on_done):
        started.append(sim.now)
        sim.schedule(1_000.0, on_done, True)

    spec = OpSpec("slow", 1.0, lambda rng: 0, issue)
    driver = OpenLoopDriver(
        sim, [spec], PoissonArrivals(1.0, rng=1),
        duration_ms=100.0, timeout_ms=50.0, concurrency_per_origin=1, rng=1,
    )
    for _ in range(3):
        driver._launch()
    sim.run()
    driver._sweep_unfinished()
    assert [r.status for r in driver.records] == ["timeout"] * 3
    # the first op held the slot from t=0; the queued two only got it
    # at the t=50 deadline cascade (queue wait is visible in started_at)
    assert started == [0.0, 50.0, 50.0]
    assert all(r.finished_at == 50.0 + r.arrived_at for r in driver.records)
    # gate is fully drained: no leaked slots, no stuck queue entries
    assert not any(driver._gate._queues.values())


def test_unfinished_sweep_counts_still_pending_ops():
    sim = Simulation()
    driver = OpenLoopDriver(
        sim,
        [fixed_service_op(sim, 50_000.0)],  # far beyond the drain window
        PoissonArrivals(5.0, rng=1),
        duration_ms=1_000.0,
        timeout_ms=None,
        rng=2,
    )
    report = driver.run(drain_ms=100.0)
    assert report.unfinished == report.offered
    assert report.succeeded == 0


def test_weighted_mix_roughly_respected():
    sim = Simulation()
    a = fixed_service_op(sim, 10.0, name="a")
    b = fixed_service_op(sim, 10.0, name="b")
    specs = [
        OpSpec("a", 0.2, a.pick_origin, a.issue),
        OpSpec("b", 0.8, b.pick_origin, b.issue),
    ]
    driver = OpenLoopDriver(
        sim, specs, PoissonArrivals(100.0, rng=1),
        duration_ms=20_000.0, rng=2,
    )
    report = driver.run(drain_ms=1_000.0)
    frac_b = report.per_kind["b"]["issued"] / report.issued
    assert frac_b == pytest.approx(0.8, abs=0.05)


def test_closed_loop_self_clocks_and_respects_think_time():
    sim = Simulation()
    driver = ClosedLoopDriver(
        sim,
        [fixed_service_op(sim, 100.0)],
        n_workers=4,
        think_time_ms=100.0,
        duration_ms=10_000.0,
        rng=1,
    )
    report = driver.run(drain_ms=5_000.0)
    assert report.mode == "closed"
    # each worker completes ~1 op per 200ms (service+think): ~50 each
    assert report.succeeded == pytest.approx(200, rel=0.15)
    assert report.latency_ms["p99"] == pytest.approx(100.0)
    assert report.unfinished == 0


def test_closed_loop_synchronous_completion_cannot_spin():
    sim = Simulation()

    def issue(origin, on_done):
        on_done(True)  # completes within the same event

    spec = OpSpec("sync", 1.0, lambda rng: 0, issue)
    driver = ClosedLoopDriver(
        sim, [spec], n_workers=1, think_time_ms=0.0,
        duration_ms=1_000.0, rng=1,
    )
    report = driver.run(drain_ms=100.0)
    # the 1ms floor bounds the op count; an unbounded spin would hang
    assert 500 <= report.succeeded <= 1_001


def test_closed_loop_requires_timeout():
    sim = Simulation()
    with pytest.raises(ConfigurationError):
        ClosedLoopDriver(
            sim, [fixed_service_op(sim, 10.0)], timeout_ms=None, rng=1
        )


def test_report_as_dict_is_json_safe():
    import json

    sim = Simulation()
    driver = OpenLoopDriver(
        sim,
        [fixed_service_op(sim, 50_000.0)],
        PoissonArrivals(5.0, rng=1),
        duration_ms=500.0,
        timeout_ms=None,
        rng=2,
    )
    report = driver.run(drain_ms=10.0)  # all unfinished -> NaN percentiles
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["latency_ms"]["p50"] is None
    assert payload["unfinished"] == report.offered
