"""Deterministic fault injection driven by the simulation clock.

:class:`FaultInjector` turns a :class:`~repro.faults.schedule.FaultSchedule`
into scheduled activation/deactivation events and interposes on the
:class:`~repro.sim.messages.MessageBus` (via its fault hook) — protocols
are never modified and never know faults exist.  A
:class:`~repro.faults.schedule.CrashFault` is the one way a peer leaves the
simulation, and its ``recover_at`` the one way it comes back.

Zero-cost when idle: an empty schedule schedules no events, installs no
bus hook, and draws no random numbers, so an experiment with an attached
idle injector is bit-for-bit identical (golden-trace digest included) to
one without it.

Determinism: the injector owns its own seeded RNG, used only when a loss
fault with ``rate < 1`` is active for a matching message, so two runs of
the same seeded scenario inject exactly the same faults.

Usage::

    schedule = FaultSchedule((LossFault(start=0.0, end=60e3, rate=0.3),))
    injector = FaultInjector(
        sim, bus, schedule,
        asn_of=underlay.asn_of,
        on_crash=lambda hid: net.nodes[hid].go_offline(),
    )
    injector.start()
    sim.run(...)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.errors import FaultError
from repro.faults.schedule import (
    CrashFault,
    DelayFault,
    FaultSchedule,
    LossFault,
    PartitionFault,
)
from repro.obs import active_tracer
from repro.obs.tracing import Tracer
from repro.rng import SeedLike, ensure_rng
from repro.sim.engine import Simulation
from repro.sim.messages import MessageBus


@dataclass
class InjectorStats:
    """What the injector actually did during the run."""

    activations: int = 0
    deactivations: int = 0
    crashes: int = 0
    recoveries: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0


def _fault_kind(fault: object) -> str:
    if isinstance(fault, LossFault):
        return "loss"
    if isinstance(fault, DelayFault):
        return "delay"
    if isinstance(fault, PartitionFault):
        return "partition"
    return "crash"


class FaultInjector:
    """Applies a fault schedule to one simulation's bus and peer set.

    Parameters
    ----------
    sim, bus:
        The simulation clock and the message bus to interpose on.
    schedule:
        The faults to inject.  An empty schedule makes :meth:`start` a
        complete no-op.
    asn_of:
        Endpoint -> ASN resolver (e.g. ``underlay.asn_of``).  Required
        when the schedule contains AS-scoped or partition faults.
    on_crash / on_recover:
        Callbacks invoked with each crashed/recovered peer id — typically
        ``node.go_offline`` / ``node.go_online``.  When ``on_crash`` is
        None the peer's bus handler is detached on crash, mirroring a
        process that vanished mid-conversation, and re-attached on
        recovery before ``on_recover`` runs.
    seed:
        Seed for the injector's private loss RNG.
    """

    def __init__(
        self,
        sim: Simulation,
        bus: MessageBus,
        schedule: FaultSchedule,
        *,
        asn_of: Optional[Callable[[Hashable], int]] = None,
        on_crash: Optional[Callable[[int], None]] = None,
        on_recover: Optional[Callable[[int], None]] = None,
        seed: SeedLike = 0,
    ) -> None:
        if schedule.needs_asn and asn_of is None:
            raise FaultError(
                "schedule contains AS-scoped faults but no asn_of resolver "
                "was provided"
            )
        self.sim = sim
        self.bus = bus
        self.schedule = schedule
        self.asn_of = asn_of
        self.on_crash = on_crash
        self.on_recover = on_recover
        self._rng = ensure_rng(seed)
        self._active: list = []  # message faults currently in their window
        self._started = False
        #: bus handlers detached by a callback-less crash, until recovery
        self._detached: dict[Hashable, Callable] = {}
        self.stats = InjectorStats()
        self._tracer: Optional[Tracer] = active_tracer()

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        """Schedule every fault's activation; a no-op for an empty schedule."""
        if self._started:
            raise FaultError("injector already started")
        self._started = True
        message_faults = self.schedule.message_faults
        if message_faults:
            self.bus.set_fault_hook(self._bus_fault)
            for fault in message_faults:
                self.sim.schedule_at(
                    max(fault.start, self.sim.now), self._activate, fault
                )
        for fault in self.schedule.crash_faults:
            self.sim.schedule_at(max(fault.at, self.sim.now), self._crash, fault)

    # -- windowed message faults ---------------------------------------------------
    def _activate(self, fault) -> None:
        self._active.append(fault)
        self.stats.activations += 1
        if self._tracer is not None:
            self._tracer.emit(
                "fault", "activate", time=self.sim.now,
                kind=_fault_kind(fault), start=fault.start, end=fault.end,
            )
        self.sim.schedule_at(
            max(fault.end, self.sim.now), self._deactivate, fault
        )

    def _deactivate(self, fault) -> None:
        self._active.remove(fault)
        self.stats.deactivations += 1
        if self._tracer is not None:
            self._tracer.emit(
                "fault", "deactivate", time=self.sim.now, kind=_fault_kind(fault),
            )

    def _bus_fault(self, src: Hashable, dst: Hashable, kind: str) -> float:
        """The bus hook: extra delay for this message, or inf to drop it."""
        if not self._active:
            return 0.0
        src_asn = dst_asn = None
        if self.asn_of is not None:
            src_asn = self.asn_of(src)
            dst_asn = self.asn_of(dst)
        extra = 0.0
        keep = 1.0
        for fault in self._active:
            if isinstance(fault, PartitionFault):
                if fault.separates(src_asn, dst_asn):
                    self.stats.messages_dropped += 1
                    return math.inf
            elif fault.matches(src, dst, src_asn, dst_asn):
                if isinstance(fault, LossFault):
                    keep *= 1.0 - fault.rate
                else:
                    extra += fault.extra_ms
        if keep < 1.0 and (keep == 0.0 or self._rng.random() >= keep):
            self.stats.messages_dropped += 1
            return math.inf
        if extra:
            self.stats.messages_delayed += 1
        return extra

    # -- crashes -------------------------------------------------------------------
    def _crash(self, fault: CrashFault) -> None:
        self.stats.crashes += len(fault.peers)
        for peer in fault.peers:
            if self.on_crash is not None:
                self.on_crash(peer)
            else:
                handler = self.bus.unregister(peer)
                if handler is not None:
                    self._detached[peer] = handler
            if self._tracer is not None:
                self._tracer.emit(
                    "fault", "crash", time=self.sim.now, peer=peer,
                )
        if fault.recover_at is not None:
            self.sim.schedule_at(
                max(fault.recover_at, self.sim.now), self._recover, fault
            )

    def _recover(self, fault: CrashFault) -> None:
        self.stats.recoveries += len(fault.peers)
        for peer in fault.peers:
            handler = self._detached.pop(peer, None)
            if handler is not None:
                self.bus.register(peer, handler)
            if self.on_recover is not None:
                self.on_recover(peer)
            if self._tracer is not None:
                self._tracer.emit(
                    "fault", "recover", time=self.sim.now, peer=peer,
                )
