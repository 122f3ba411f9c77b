"""Churn models: peer session and inter-session time processes.

The survey repeatedly flags robustness against churn as the open evaluation
question for underlay-aware overlays (§5.4).  This module provides the
standard session-length distributions used in the P2P measurement
literature — exponential, Pareto (heavy-tailed), and Weibull — plus a
:class:`ChurnProcess` that drives join/leave callbacks on the event engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, ensure_rng
from repro.sim.engine import EventHandle, Simulation


@dataclass(frozen=True)
class ChurnConfig:
    """Distributional parameters of the churn process.

    ``session_dist`` / ``offline_dist`` select the family for online and
    offline period lengths: ``"exponential"`` (rate = 1/mean),
    ``"pareto"`` (shape fixed at 2.0, scaled to the requested mean), or
    ``"weibull"`` (shape 0.59, the Steiner et al. KAD fit, scaled to mean).
    """

    mean_session: float = 3600.0
    mean_offline: float = 1800.0
    session_dist: str = "exponential"
    offline_dist: str = "exponential"

    _FAMILIES = ("exponential", "pareto", "weibull")

    def __post_init__(self) -> None:
        if self.mean_session <= 0 or self.mean_offline <= 0:
            raise ConfigurationError("churn means must be positive")
        for dist in (self.session_dist, self.offline_dist):
            if dist not in self._FAMILIES:
                raise ConfigurationError(
                    f"unknown distribution {dist!r}; expected one of {self._FAMILIES}"
                )


def draw_duration(rng: np.random.Generator, family: str, mean: float) -> float:
    """Draw one duration from the named family with the requested mean."""
    if family == "exponential":
        return float(rng.exponential(mean))
    if family == "pareto":
        # Lomax/Pareto-II with shape a=2 has mean scale/(a-1) = scale.
        shape = 2.0
        scale = mean * (shape - 1.0)
        return float(scale * rng.pareto(shape))
    if family == "weibull":
        # Weibull with shape k has mean scale * Gamma(1 + 1/k).
        from math import gamma

        k = 0.59
        scale = mean / gamma(1.0 + 1.0 / k)
        return float(scale * rng.weibull(k))
    raise ConfigurationError(f"unknown distribution family {family!r}")


class ChurnProcess:
    """Drives alternating online/offline periods for a set of peers.

    ``on_join(peer)`` / ``on_leave(peer)`` are invoked on the simulation
    clock.  Peers all start offline; :meth:`start` schedules their first
    join within ``warmup`` using a uniform stagger so the network does not
    flash-crowd at t=0.

    :meth:`start` may be called once; a second call raises
    :class:`~repro.errors.ConfigurationError` (it would orphan the first
    batch's event handles, which :meth:`stop` could then never cancel).
    """

    def __init__(
        self,
        sim: Simulation,
        peers: Iterable[Hashable],
        config: ChurnConfig,
        on_join: Callable[[Hashable], None],
        on_leave: Callable[[Hashable], None],
        *,
        rng: SeedLike = None,
    ) -> None:
        self._sim = sim
        self._peers = list(peers)
        self._config = config
        self._on_join = on_join
        self._on_leave = on_leave
        self._rng = ensure_rng(rng)
        self._online: set[Hashable] = set()
        self._started = False
        self._stopped = False
        #: each peer has at most one scheduled transition; retaining the
        #: handle lets stop()/crash() cancel it instead of leaking dead
        #: events into the heap for the rest of the simulation
        self._handles: dict[Hashable, EventHandle] = {}
        self.joins = 0
        self.leaves = 0
        self.crashes = 0

    @property
    def online(self) -> frozenset:
        return frozenset(self._online)

    def start(self, warmup: float = 60.0) -> None:
        """Schedule every peer's first join within ``warmup`` (one
        batched insert)."""
        if warmup < 0:
            raise ConfigurationError("warmup must be non-negative")
        if self._started:
            raise ConfigurationError("churn process already started")
        self._started = True
        rng = self._rng
        handles = self._sim.schedule_many(
            [
                (
                    float(rng.uniform(0.0, warmup)) if warmup > 0 else 0.0,
                    self._join,
                    (peer,),
                )
                for peer in self._peers
            ]
        )
        self._handles.update(zip(self._peers, handles))

    def stop(self) -> None:
        """Freeze the process: no further joins/leaves are generated and
        every pending transition is cancelled (the heap drains)."""
        self._stopped = True
        for handle in self._handles.values():
            handle.cancel()
        self._handles.clear()

    def crash(self, peer: Hashable) -> None:
        """Instant failure of ``peer``: its pending transition is cancelled
        and it is marked offline *without* invoking ``on_leave`` — a crash
        is not a polite departure.  The peer stays dead until
        :meth:`revive` reintroduces it."""
        handle = self._handles.pop(peer, None)
        if handle is not None:
            handle.cancel()
        if peer in self._online:
            self._online.remove(peer)
            self.crashes += 1

    def revive(self, peer: Hashable, delay: float = 0.0) -> None:
        """Schedule a crashed (or never-started) peer's next join after
        ``delay``; a no-op for a peer that is online or already scheduled."""
        if self._stopped or peer in self._online or peer in self._handles:
            return
        self._handles[peer] = self._sim.schedule(delay, self._join, peer)

    def _join(self, peer: Hashable) -> None:
        self._handles.pop(peer, None)
        if self._stopped or peer in self._online:
            return
        self._online.add(peer)
        self.joins += 1
        self._on_join(peer)
        session = draw_duration(
            self._rng, self._config.session_dist, self._config.mean_session
        )
        self._handles[peer] = self._sim.schedule(session, self._leave, peer)

    def _leave(self, peer: Hashable) -> None:
        self._handles.pop(peer, None)
        if self._stopped or peer not in self._online:
            return
        self._online.discard(peer)
        self.leaves += 1
        self._on_leave(peer)
        offline = draw_duration(
            self._rng, self._config.offline_dist, self._config.mean_offline
        )
        self._handles[peer] = self._sim.schedule(offline, self._join, peer)
