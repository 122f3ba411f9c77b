"""Unit tests for churn models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim import ChurnConfig, ChurnProcess, Simulation, draw_duration


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ChurnConfig(mean_session=-1.0)
    with pytest.raises(ConfigurationError):
        ChurnConfig(mean_session=0.0)
    with pytest.raises(ConfigurationError):
        ChurnConfig(mean_offline=-5.0)
    with pytest.raises(ConfigurationError):
        ChurnConfig(session_dist="lognormal")
    with pytest.raises(ConfigurationError):
        ChurnConfig(offline_dist="uniform")


def test_draw_duration_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        draw_duration(np.random.default_rng(0), "lognormal", 10.0)


@pytest.mark.parametrize("family", ["exponential", "pareto", "weibull"])
def test_draw_duration_mean_roughly_matches(family):
    rng = np.random.default_rng(0)
    mean = 100.0
    samples = [draw_duration(rng, family, mean) for _ in range(4000)]
    assert all(s >= 0 for s in samples)
    # heavy-tailed families converge slowly; allow a generous band
    assert 0.6 * mean < np.mean(samples) < 1.6 * mean


def test_churn_alternates_join_and_leave():
    sim = Simulation()
    events = []
    proc = ChurnProcess(
        sim,
        peers=["p"],
        config=ChurnConfig(mean_session=100.0, mean_offline=50.0),
        on_join=lambda p: events.append(("join", sim.now)),
        on_leave=lambda p: events.append(("leave", sim.now)),
        rng=1,
    )
    proc.start(warmup=10.0)
    sim.run(until=2000.0)
    kinds = [k for k, _t in events]
    # strictly alternating starting with join
    assert kinds[0] == "join"
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    times = [t for _k, t in events]
    assert times == sorted(times)


def test_online_set_tracks_membership():
    sim = Simulation()
    proc = ChurnProcess(
        sim,
        peers=list(range(20)),
        config=ChurnConfig(mean_session=500.0, mean_offline=500.0),
        on_join=lambda p: None,
        on_leave=lambda p: None,
        rng=2,
    )
    proc.start(warmup=50.0)
    sim.run(until=1000.0)
    assert proc.joins >= proc.leaves
    assert len(proc.online) == proc.joins - proc.leaves


def test_stop_freezes_process():
    sim = Simulation()
    proc = ChurnProcess(
        sim,
        peers=list(range(5)),
        config=ChurnConfig(mean_session=10.0, mean_offline=10.0),
        on_join=lambda p: None,
        on_leave=lambda p: None,
        rng=3,
    )
    proc.start(warmup=1.0)
    sim.run(until=100.0)
    joins_before = proc.joins
    proc.stop()
    sim.run(until=10_000.0)
    assert proc.joins == joins_before


def test_stop_cancels_pending_transitions_so_heap_drains():
    """Regression: stop() used to leave every peer's next transition in
    the heap, keeping the simulation alive for the rest of the run."""
    sim = Simulation()
    proc = ChurnProcess(
        sim,
        peers=list(range(10)),
        config=ChurnConfig(mean_session=50.0, mean_offline=50.0),
        on_join=lambda p: None,
        on_leave=lambda p: None,
        rng=4,
    )
    proc.start(warmup=5.0)
    sim.run(until=500.0)
    assert sim.pending() > 0  # transitions queued while running
    proc.stop()
    assert sim.pending() == 0
    # an unbounded run returns immediately instead of churning forever
    sim.run()
    assert sim.now == 500.0


def test_crash_skips_on_leave_and_revive_rejoins():
    sim = Simulation()
    events = []
    proc = ChurnProcess(
        sim,
        peers=["p"],
        config=ChurnConfig(mean_session=1e9, mean_offline=1e9),
        on_join=lambda p: events.append("join"),
        on_leave=lambda p: events.append("leave"),
        rng=5,
    )
    proc.start(warmup=0.0)
    sim.run(until=10.0)
    assert events == ["join"] and proc.online == {"p"}
    proc.crash("p")
    assert events == ["join"]  # a crash is not a polite departure
    assert proc.crashes == 1 and not proc.online
    sim.run(until=1000.0)
    assert events == ["join"]  # stays dead: pending leave was cancelled
    proc.revive("p", delay=5.0)
    proc.revive("p", delay=5.0)  # idempotent while scheduled
    sim.run(until=2000.0)
    assert events == ["join", "join"] and proc.online == {"p"}
    proc.revive("p")  # no-op for an online peer
    sim.run(until=2100.0)
    assert events == ["join", "join"]


def test_crash_of_offline_peer_is_a_noop():
    sim = Simulation()
    proc = ChurnProcess(
        sim, peers=["p"], config=ChurnConfig(),
        on_join=lambda p: None, on_leave=lambda p: None,
    )
    proc.crash("p")  # never started, never online
    assert proc.crashes == 0


def test_negative_warmup_rejected():
    sim = Simulation()
    proc = ChurnProcess(
        sim, peers=[1], config=ChurnConfig(),
        on_join=lambda p: None, on_leave=lambda p: None,
    )
    with pytest.raises(ConfigurationError):
        proc.start(warmup=-1.0)


def test_second_start_is_rejected_and_stop_still_drains():
    """Regression: a second start() used to overwrite the first batch's
    handles, so stop() cancelled only the newer events and the first
    batch kept the heap alive."""
    sim = Simulation()
    proc = ChurnProcess(
        sim,
        peers=list(range(10)),
        config=ChurnConfig(mean_session=50.0, mean_offline=50.0),
        on_join=lambda p: None,
        on_leave=lambda p: None,
        rng=6,
    )
    proc.start(warmup=5.0)
    with pytest.raises(ConfigurationError):
        proc.start(warmup=5.0)
    assert sim.pending() == 10  # one transition per peer, not two
    proc.stop()
    assert sim.pending() == 0


def test_start_matches_one_revive_per_peer():
    """start() inserts the whole population's first joins as one batch;
    the result is what scheduling them one at a time gives — same join
    times, same later transitions, event for event."""
    peers = [f"p{i}" for i in range(50)]
    config = ChurnConfig(mean_session=300.0, mean_offline=200.0)

    def run(batched: bool):
        sim, log = Simulation(), []
        rng = np.random.default_rng(5)
        proc = ChurnProcess(
            sim, peers, config,
            lambda p: log.append(("j", p, sim.now)),
            lambda p: log.append(("l", p, sim.now)),
            rng=rng,
        )
        if batched:
            proc.start(warmup=60.0)
        else:
            for peer in peers:
                proc.revive(peer, delay=float(rng.uniform(0.0, 60.0)))
        sim.run(until=2000.0)
        proc.stop()
        return log

    batched, serial = run(True), run(False)
    assert len(batched) > 50
    assert batched == serial
