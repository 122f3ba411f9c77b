"""Arrival processes for the service layer.

A deployed P2P service is driven by *traffic*, not by batch sweeps: the
rate at which users issue store/retrieve/search operations follows
well-known arrival models.  This module generates deterministic arrival
schedules (milliseconds on the sim clock) for the load drivers in
:mod:`repro.service.load`:

- :class:`PoissonArrivals` — the memoryless baseline: exponential
  interarrivals at a constant rate.
- :class:`ParetoArrivals` — heavy-tailed interarrivals (Pareto type I
  with shape ``alpha``), matching the burstiness of measured P2P query
  traffic: most gaps are short, occasional gaps are very long, and the
  process exhibits flash-crowd-like clumping at equal mean rate.
- :class:`DiurnalArrivals` — a nonhomogeneous Poisson process whose
  rate swings sinusoidally between a trough and a peak over one period
  (the day/night cycle every deployed overlay sees), generated by
  thinning a homogeneous process at the peak rate.

All processes are seeded (:mod:`repro.rng`) and quote their nominal
mean rate in operations **per second** while emitting times in
**milliseconds**, matching the rest of the simulator's clock.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, ensure_rng


class ArrivalProcess:
    """Base class: a seeded point process emitting times in [0, horizon)."""

    #: short name used by :func:`make_arrivals` and experiment rows
    name = "abstract"

    def __init__(self, rate_per_s: float, *, rng: SeedLike = None) -> None:
        if rate_per_s <= 0:
            raise ConfigurationError("arrival rate must be positive")
        self.rate_per_s = float(rate_per_s)
        self._rng = ensure_rng(rng)

    @property
    def rate_per_ms(self) -> float:
        return self.rate_per_s / 1000.0

    def times(self, duration_ms: float) -> np.ndarray:
        """Sorted arrival times in ``[0, duration_ms)``.

        The *number* of arrivals is random (the process is open-loop: it
        does not know the horizon), with expectation
        ``rate_per_s * duration_ms / 1000`` for every built-in process.
        """
        raise NotImplementedError

    # -- shared machinery ----------------------------------------------------
    def _gap_times(self, duration_ms: float, draw_gaps) -> np.ndarray:
        """Accumulate i.i.d. gaps drawn by ``draw_gaps(n)`` until the
        horizon is passed, vectorised in chunks."""
        if duration_ms <= 0:
            raise ConfigurationError("duration must be positive")
        expect = duration_ms * self.rate_per_ms
        chunk = max(16, int(expect + 4.0 * math.sqrt(expect)))
        times: list[np.ndarray] = []
        t = 0.0
        while t < duration_ms:
            gaps = draw_gaps(chunk)
            cum = t + np.cumsum(gaps)
            times.append(cum)
            t = float(cum[-1])
        all_times = np.concatenate(times)
        return all_times[all_times < duration_ms]


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process: exponential interarrivals."""

    name = "poisson"

    def times(self, duration_ms: float) -> np.ndarray:
        mean = 1.0 / self.rate_per_ms
        return self._gap_times(
            duration_ms, lambda n: self._rng.exponential(mean, size=n)
        )


class ParetoArrivals(ArrivalProcess):
    """Heavy-tailed renewal process: Pareto type I interarrivals.

    ``alpha`` is the tail index (must exceed 1 for a finite mean; 1 <
    alpha <= 2 gives infinite variance — the classic self-similar
    traffic regime).  The scale is chosen so the mean interarrival
    matches ``1 / rate_per_s``, making Pareto and Poisson sweeps
    directly comparable at equal offered load.
    """

    name = "pareto"

    def __init__(
        self, rate_per_s: float, *, alpha: float = 1.5, rng: SeedLike = None
    ) -> None:
        super().__init__(rate_per_s, rng=rng)
        if alpha <= 1.0:
            raise ConfigurationError(
                f"pareto alpha must be > 1 for a finite mean rate, got {alpha}"
            )
        self.alpha = float(alpha)

    def times(self, duration_ms: float) -> np.ndarray:
        mean = 1.0 / self.rate_per_ms
        # Pareto I with scale xm has mean alpha*xm/(alpha-1).
        xm = mean * (self.alpha - 1.0) / self.alpha
        return self._gap_times(
            duration_ms,
            lambda n: xm * (1.0 + self._rng.pareto(self.alpha, size=n)),
        )


class DiurnalArrivals(ArrivalProcess):
    """Nonhomogeneous Poisson process with sinusoidal rate modulation.

    The instantaneous rate is ``rate_per_s * m(t)`` with ``m(t) = 1 +
    A*sin(2*pi*t/period - pi/2)``: the run starts at the trough, peaks
    mid-period, and averages exactly ``rate_per_s`` over a full cycle.
    ``peak_to_trough`` fixes the amplitude ``A = (r-1)/(r+1)`` so
    peak/trough rates differ by that ratio.  Generated by thinning a
    homogeneous process at the peak rate (exact, no discretisation).
    """

    name = "diurnal"

    def __init__(
        self,
        rate_per_s: float,
        *,
        peak_to_trough: float = 4.0,
        period_ms: float = 60_000.0,
        rng: SeedLike = None,
    ) -> None:
        super().__init__(rate_per_s, rng=rng)
        if peak_to_trough < 1.0:
            raise ConfigurationError(
                f"peak_to_trough must be >= 1, got {peak_to_trough}"
            )
        if period_ms <= 0:
            raise ConfigurationError("period must be positive")
        self.peak_to_trough = float(peak_to_trough)
        self.period_ms = float(period_ms)
        self.amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)

    def modulation(self, t_ms: np.ndarray) -> np.ndarray:
        """Relative rate ``m(t)`` (mean 1 over a period)."""
        phase = 2.0 * math.pi * np.asarray(t_ms, dtype=float) / self.period_ms
        return 1.0 + self.amplitude * np.sin(phase - math.pi / 2.0)

    def times(self, duration_ms: float) -> np.ndarray:
        peak = 1.0 + self.amplitude
        mean = 1.0 / (self.rate_per_ms * peak)
        candidates = self._gap_times(
            duration_ms, lambda n: self._rng.exponential(mean, size=n)
        )
        if candidates.size == 0:
            return candidates
        accept = self._rng.uniform(size=candidates.size) * peak
        return candidates[accept < self.modulation(candidates)]


#: Registry of built-in processes by name (experiment/CLI surface).
ARRIVAL_PROCESSES: dict[str, type[ArrivalProcess]] = {
    cls.name: cls for cls in (PoissonArrivals, ParetoArrivals, DiurnalArrivals)
}


def make_arrivals(
    name: str,
    rate_per_s: float,
    *,
    rng: SeedLike = None,
    **kwargs,
) -> ArrivalProcess:
    """Instantiate a built-in arrival process by name."""
    cls: Optional[type[ArrivalProcess]] = ARRIVAL_PROCESSES.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown arrival process {name!r} "
            f"(want one of {sorted(ARRIVAL_PROCESSES)})"
        )
    return cls(rate_per_s, rng=rng, **kwargs)
