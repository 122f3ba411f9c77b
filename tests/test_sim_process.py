"""Unit tests for periodic processes."""

import pytest

from repro.sim import PeriodicProcess, Simulation


def test_periodic_fires_at_period():
    sim = Simulation()
    ticks = []
    PeriodicProcess(sim, 10.0, lambda: ticks.append(sim.now))
    sim.run(until=35.0)
    assert ticks == [10.0, 20.0, 30.0]


def test_initial_delay_override():
    sim = Simulation()
    ticks = []
    PeriodicProcess(sim, 10.0, lambda: ticks.append(sim.now), initial_delay=1.0)
    sim.run(until=12.0)
    assert ticks == [1.0, 11.0]


def test_stop_prevents_future_ticks():
    sim = Simulation()
    ticks = []
    proc = PeriodicProcess(sim, 5.0, lambda: ticks.append(sim.now))
    sim.run(until=12.0)
    proc.stop()
    sim.run(until=60.0)
    assert ticks == [5.0, 10.0]
    assert proc.stopped


def test_stop_is_idempotent():
    sim = Simulation()
    proc = PeriodicProcess(sim, 5.0, lambda: None)
    proc.stop()
    proc.stop()
    sim.run(until=20.0)
    assert proc.ticks == 0


def test_jitter_keeps_intervals_near_period():
    sim = Simulation()
    ticks = []
    PeriodicProcess(sim, 100.0, lambda: ticks.append(sim.now), jitter=0.2, rng=1)
    sim.run(until=1000.0)
    intervals = [b - a for a, b in zip([0.0] + ticks, ticks)]
    assert all(80.0 <= iv <= 120.0 for iv in intervals)
    assert len(ticks) >= 8


def test_invalid_parameters():
    sim = Simulation()
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 0.0, lambda: None)
    with pytest.raises(ValueError):
        PeriodicProcess(sim, 1.0, lambda: None, jitter=1.5)


def test_callback_exception_does_not_corrupt_stop():
    sim = Simulation()

    calls = []

    def boom():
        calls.append(sim.now)
        raise RuntimeError("handler failure")

    PeriodicProcess(sim, 5.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    # the failing tick was recorded; engine is reusable afterwards
    assert calls == [5.0]
    sim.schedule(1.0, calls.append, -1.0)
    sim.run()
    assert calls[-1] == -1.0
