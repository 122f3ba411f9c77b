"""Arrival processes: rates, tails, modulation, determinism."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service import (
    ARRIVAL_PROCESSES,
    DiurnalArrivals,
    ParetoArrivals,
    PoissonArrivals,
    make_arrivals,
)


@pytest.mark.parametrize("name", sorted(ARRIVAL_PROCESSES))
def test_mean_rate_is_honoured(name):
    proc = make_arrivals(name, 50.0, rng=3)
    times = proc.times(200_000.0)
    assert np.all(times >= 0) and np.all(times < 200_000.0)
    assert np.all(np.diff(times) >= 0)
    # expectation 50/s * 200s = 10_000 events; heavy tails need slack
    assert len(times) == pytest.approx(10_000, rel=0.25)


@pytest.mark.parametrize("name", sorted(ARRIVAL_PROCESSES))
def test_seeded_schedules_are_deterministic(name):
    a = make_arrivals(name, 20.0, rng=9).times(30_000.0)
    b = make_arrivals(name, 20.0, rng=9).times(30_000.0)
    np.testing.assert_array_equal(a, b)
    c = make_arrivals(name, 20.0, rng=10).times(30_000.0)
    assert len(a) != len(c) or not np.array_equal(a, c)


def test_pareto_has_fatter_tail_than_poisson_at_equal_rate():
    horizon = 500_000.0
    poisson = PoissonArrivals(40.0, rng=5).times(horizon)
    pareto = ParetoArrivals(40.0, alpha=1.3, rng=5).times(horizon)
    # comparable totals (equal mean rate) ...
    assert len(pareto) == pytest.approx(len(poisson), rel=0.35)
    # ... but the heavy-tail gap distribution has a larger max gap
    assert np.max(np.diff(pareto)) > np.max(np.diff(poisson))


def test_diurnal_modulation_and_trough_start():
    proc = DiurnalArrivals(30.0, peak_to_trough=4.0, period_ms=40_000.0, rng=2)
    assert proc.amplitude == pytest.approx(0.6)
    t = np.array([0.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0])
    m = proc.modulation(t)
    # starts at the trough, peaks mid-period, back to trough
    assert m[0] == pytest.approx(0.4)
    assert m[2] == pytest.approx(1.6)
    assert m[4] == pytest.approx(0.4)
    assert m[2] / m[0] == pytest.approx(4.0)
    # the first half-period must be visibly quieter than the second quarter
    times = proc.times(40_000.0)
    first = np.sum(times < 10_000.0)
    peak = np.sum((times >= 15_000.0) & (times < 25_000.0))
    assert peak > first


def test_validation():
    with pytest.raises(ConfigurationError):
        make_arrivals("weibull", 10.0)
    with pytest.raises(ConfigurationError):
        PoissonArrivals(0.0)
    with pytest.raises(ConfigurationError):
        ParetoArrivals(10.0, alpha=1.0)
    with pytest.raises(ConfigurationError):
        DiurnalArrivals(10.0, peak_to_trough=0.5)
    with pytest.raises(ConfigurationError):
        DiurnalArrivals(10.0, period_ms=0.0)
    with pytest.raises(ConfigurationError):
        PoissonArrivals(10.0).times(0.0)


def test_make_arrivals_forwards_kwargs():
    proc = make_arrivals("pareto", 10.0, rng=1, alpha=2.5)
    assert isinstance(proc, ParetoArrivals)
    assert proc.alpha == 2.5
    assert proc.rate_per_ms == pytest.approx(0.01)
