"""Periodic process helper on top of the event engine.

Protocol implementations need recurring loops (Vivaldi coordinate
gossip).  :class:`PeriodicProcess` wraps the schedule/re-schedule dance,
supports jitter so that thousands of peers do not fire in lock-step, and
can be stopped idempotently.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.rng import SeedLike, ensure_rng
from repro.sim.engine import EventHandle, Simulation


class PeriodicProcess:
    """Repeatedly invoke ``callback()`` every ``period`` time units.

    Parameters
    ----------
    sim:
        The event engine to schedule on.
    period:
        Nominal interval between invocations.
    callback:
        Zero-argument callable invoked at each tick.
    jitter:
        Fraction of the period used as uniform jitter (0 disables).  Each
        tick fires at ``period * (1 + U(-jitter, +jitter))``.
    initial_delay:
        Delay before the first tick; defaults to one (jittered) period.
    rng:
        Seed or generator for the jitter draws.
    """

    def __init__(
        self,
        sim: Simulation,
        period: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        initial_delay: Optional[float] = None,
        rng: SeedLike = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = ensure_rng(rng)
        self._handle: Optional[EventHandle] = None
        self._stopped = False
        self.ticks = 0
        first = self._draw_interval() if initial_delay is None else float(initial_delay)
        self._handle = sim.schedule(first, self._tick)

    def _draw_interval(self) -> float:
        if self._jitter == 0.0:
            return self._period
        factor = 1.0 + self._rng.uniform(-self._jitter, self._jitter)
        return self._period * factor

    def _tick(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        self._callback()
        if not self._stopped:
            self._handle = self._sim.schedule(self._draw_interval(), self._tick)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Stop the process.  Safe to call multiple times."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
