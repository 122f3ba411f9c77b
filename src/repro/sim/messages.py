"""Message-passing layer between simulated hosts.

The :class:`MessageBus` delivers messages between endpoints with a latency
obtained from a pluggable :class:`LatencyProvider` (in practice the underlay
model), and reports every delivery to zero or more traffic observers so
that experiments can account intra-AS / peering / transit bytes without the
protocols knowing about accounting.

Protocols deliver to *endpoint ids* (opaque hashable values, typically
host ids); receivers register a handler callable per endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappush
from typing import Any, Callable, Hashable, Optional, Protocol, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs import active_tracer
from repro.obs.tracing import Tracer
from repro.sim.engine import Simulation


class LatencyProvider(Protocol):
    """Anything that can answer one-way delay between two endpoints."""

    def one_way_delay(self, src: Hashable, dst: Hashable) -> float:
        """One-way delay (same time unit as the simulation clock)."""
        ...


class TrafficObserver(Protocol):
    """Callback protocol for per-message accounting.

    The bus calls :meth:`observe` once per send, at send time, whether
    or not the message is later lost or dropped by a fault.

    A kernel that simulates sends outside the bus
    (:class:`~repro.overlay.gnutella.flood.FloodKernel`) also calls every
    observer once per send, in send order — ``record(time, src, dst,
    kind, size_bytes)`` with the virtual send time if the observer has
    one, else :meth:`observe` — *unless* the observer has a method
    ``observe_sends(sends, size_of)``.  Such an observer declares that
    one call with ``sends`` mapping ``(src, dst, kind)`` to a send count
    and ``size_of`` mapping each kind to its size in bytes equals that
    many :meth:`observe` calls, in any order relative to other
    ``(src, dst, kind)`` triples.  The kernel then hands it the whole
    expansion in one call when the expansion commits, beside
    :meth:`MessageBus.account_external`.  The simulation clock does not
    move during an expansion, so a clock-reading observer bills the
    whole expansion at its start time.

    The ``record`` branch is a seam for tests: the only observer that
    takes it is the send log in ``tests/sendlog.py``, which hashes the
    virtual send times of a flood to compare it with the per-message
    reference servent.
    """

    def observe(self, src: Hashable, dst: Hashable, size_bytes: int, kind: str) -> None:
        ...


@dataclass(slots=True)
class Message:
    """An in-flight protocol message.

    ``kind`` is a protocol-defined tag (e.g. ``"QUERY"``); ``payload`` is an
    arbitrary protocol object.  ``size_bytes`` feeds traffic accounting only —
    delivery latency is independent of size (the surveyed systems reason
    about propagation delay, not bandwidth-limited transfer; bulk transfer
    is modelled separately by the BitTorrent swarm).

    A slots dataclass: the bus allocates one per send, so the instance
    dict matters at fan-out scale — and a handler assigning a misspelled
    attribute fails loudly instead of silently growing the message.
    """

    src: Hashable
    dst: Hashable
    kind: str
    payload: Any = None
    size_bytes: int = 64


@dataclass(slots=True)
class BusStats:
    """Aggregate counters maintained by the bus."""

    sent: int = 0
    delivered: int = 0
    dropped_no_handler: int = 0
    dropped_loss: int = 0
    dropped_fault: int = 0
    bytes_sent: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)


#: Interposition hook installed by :class:`repro.faults.FaultInjector`:
#: given ``(src, dst, kind)`` it returns an extra delay in clock units to
#: add to the message, or ``math.inf`` to drop it in flight.  ``0.0`` is a
#: no-op.  Kept as a bare callable so the sim layer stays below the faults
#: layer in the import graph.
FaultHook = Callable[[Hashable, Hashable, str], float]


class MessageBus:
    """Latency-aware unicast message delivery between registered endpoints.

    Sending to an unregistered endpoint is not an error at send time — the
    peer may have churned out while the message was in flight — the message
    is counted as dropped on arrival instead, mirroring UDP semantics.

    ``loss_rate`` injects network failures: each message is independently
    dropped in flight with that probability (after being counted as sent
    and observed by traffic accounting, as a really lost packet would be).
    """

    def __init__(
        self,
        sim: Simulation,
        latency: LatencyProvider,
        *,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ) -> None:
        self._sim = sim
        self._latency = latency
        self._handlers: dict[Hashable, Callable[[Message], None]] = {}
        #: count of :meth:`register` / :meth:`unregister` calls: a reader
        #: caching who is reachable rebuilds when it moves
        self.registrations = 0
        self._observers: list[TrafficObserver] = []
        self._loss_seed = loss_seed
        self._loss_rng: Optional[np.random.Generator] = None
        self._loss_rate = 0.0
        self.loss_rate = loss_rate  # property: validates + creates the RNG
        self._fault_hook: Optional[FaultHook] = None
        self.stats = BusStats()
        self._tracer: Optional[Tracer] = active_tracer()

    # -- failure injection --------------------------------------------------------
    @property
    def loss_rate(self) -> float:
        """Independent in-flight drop probability per message.

        Settable at any time (fault injection raises and lowers it during a
        run); the loss RNG is created lazily on the first nonzero rate, so
        a bus that never loses anything never draws from it.
        """
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, rate: float) -> None:
        if not (0.0 <= rate < 1.0):
            raise SimulationError(f"loss_rate must be in [0, 1), got {rate}")
        self._loss_rate = float(rate)
        if rate and self._loss_rng is None:
            self._loss_rng = np.random.default_rng(self._loss_seed)

    @property
    def latency(self) -> LatencyProvider:
        """The delay provider messages are scheduled against — the flood
        kernel reads it to compute virtual delivery times with the exact
        per-pair values a message on the bus gets."""
        return self._latency

    def account_external(
        self,
        kind: str,
        *,
        sent: int = 0,
        bytes_sent: int = 0,
        delivered: int = 0,
        dropped_loss: int = 0,
        dropped_fault: int = 0,
        dropped_no_handler: int = 0,
    ) -> None:
        """Fold a batch of *externally simulated* traffic into the bus
        counters — the commit half of a flood expansion
        (:mod:`repro.overlay.gnutella.flood`), which delivers messages
        inside its own kernel loop without touching the event heap.  One
        call per kind updates :class:`BusStats` exactly as
        ``sent``/``delivered`` individual messages would have; traffic
        observers are *not* notified here (the kernel calls them itself,
        per message or per aggregate — see :class:`TrafficObserver`).
        """
        stats = self.stats
        if sent:
            stats.sent += sent
            stats.bytes_sent += bytes_sent
            stats.by_kind[kind] = stats.by_kind.get(kind, 0) + sent
        stats.delivered += delivered
        stats.dropped_loss += dropped_loss
        stats.dropped_fault += dropped_fault
        stats.dropped_no_handler += dropped_no_handler

    def set_fault_hook(self, hook: Optional[FaultHook]) -> None:
        """Install (or with ``None`` remove) the fault-injection hook.

        The hook sees every sent message after traffic accounting and
        returns an extra delay, or ``math.inf`` to drop the message in
        flight (counted as ``dropped_fault``, trace reason ``"fault"``).
        """
        self._fault_hook = hook

    def register(self, endpoint: Hashable, handler: Callable[[Message], None]) -> None:
        """Attach ``handler`` to ``endpoint``; replaces any previous handler."""
        self._handlers[endpoint] = handler
        self.registrations += 1

    def unregister(
        self, endpoint: Hashable
    ) -> Optional[Callable[[Message], None]]:
        """Detach ``endpoint``'s handler and return it (None if none)."""
        self.registrations += 1
        return self._handlers.pop(endpoint, None)

    def is_registered(self, endpoint: Hashable) -> bool:
        return endpoint in self._handlers

    def add_observer(self, observer: TrafficObserver) -> None:
        self._observers.append(observer)

    def _send_one(
        self,
        src: Hashable,
        dst: Hashable,
        kind: str,
        payload: Any,
        size_bytes: int,
        extra_delay: float,
        batch: Optional[list],
    ) -> Message:
        """The single inline send path shared by :meth:`send`,
        :meth:`send_many` and ``OverlayNode.send``: size check,
        accounting, fault hook, loss draw, delay validation, then either
        an append to the caller's batch list or, with ``batch`` None,
        delivery scheduled on the simulation.

        An untraced simulation gets the heap entry and sequence number
        :meth:`Simulation.schedule` would make, pushed here without the
        handle nobody reads; a traced one goes through ``schedule`` so
        its ``schedule`` trace events stay.
        """
        if size_bytes < 0:
            raise SimulationError(f"negative message size: {size_bytes}")
        msg = Message(src, dst, kind, payload, size_bytes)
        delay = self._latency.one_way_delay(src, dst) + extra_delay
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += size_bytes
        by_kind = stats.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        for obs in self._observers:
            obs.observe(src, dst, size_bytes, kind)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "bus", "send", time=self._sim.now,
                src=src, dst=dst, kind=kind, size=size_bytes,
            )
        if self._fault_hook is not None:
            penalty = self._fault_hook(src, dst, kind)
            if penalty == math.inf:
                stats.dropped_fault += 1
                if tracer is not None:
                    tracer.emit(
                        "bus", "drop", time=self._sim.now,
                        src=src, dst=dst, kind=kind, reason="fault",
                    )
                return msg
            delay += penalty
        if delay < 0.0:
            # a negative extra_delay/fault penalty larger than the
            # underlay latency would schedule delivery before the send
            # and silently corrupt event ordering
            raise SimulationError(
                f"negative total delay {delay} for {kind} {src}->{dst} "
                f"(extra_delay/fault penalty exceeds the underlay latency)"
            )
        if self._loss_rate and self._loss_rng.random() < self._loss_rate:
            stats.dropped_loss += 1
            if tracer is not None:
                tracer.emit(
                    "bus", "drop", time=self._sim.now,
                    src=src, dst=dst, kind=kind, reason="loss",
                )
            return msg
        if batch is not None:
            batch.append((delay, self._deliver, (msg,)))
            return msg
        sim = self._sim
        if sim._tracer is None:
            # [time, seq, callback, args, cancelled, fired]: the layout
            # of repro.sim.engine's heap entries
            heappush(
                sim._heap,
                [float(sim._now + delay), next(sim._seq), self._deliver,
                 (msg,), False, False],
            )
        else:
            sim.schedule(delay, self._deliver, msg)
        return msg

    def send(
        self,
        src: Hashable,
        dst: Hashable,
        kind: str,
        payload: Any = None,
        size_bytes: int = 64,
        extra_delay: float = 0.0,
    ) -> Message:
        """Send a message; it arrives after the underlay one-way delay.

        Raises :class:`SimulationError` if the total delay (underlay +
        ``extra_delay`` + fault penalty) would be negative, or if
        ``size_bytes`` is.
        """
        return self._send_one(
            src, dst, kind, payload, size_bytes, extra_delay, None
        )

    def send_many(
        self,
        src: Hashable,
        dsts: Sequence[Hashable],
        kind: str,
        payload: Any = None,
        size_bytes: int = 64,
        extra_delay: float = 0.0,
    ) -> list[Message]:
        """Send one message per destination, batch-scheduling delivery.

        Semantically identical to calling :meth:`send` once per
        destination in order — accounting, fault-hook calls, and loss
        draws happen per message in destination order, so the observable
        behaviour (including loss-RNG state and delivery tie-breaking)
        is bit-for-bit the same — but surviving deliveries are inserted
        with one :meth:`Simulation.schedule_many` call, which is what
        flooding/broadcast fan-out wants.
        """
        messages: list[Message] = []
        batch: list[tuple[float, Callable[..., None], tuple]] = []
        send_one = self._send_one
        for dst in dsts:
            messages.append(
                send_one(src, dst, kind, payload, size_bytes, extra_delay,
                         batch)
            )
        if batch:
            self._sim.schedule_many(batch)
        return messages

    def _deliver(self, msg: Message) -> None:
        handler = self._handlers.get(msg.dst)
        if handler is None:
            self.stats.dropped_no_handler += 1
            if self._tracer is not None:
                self._tracer.emit(
                    "bus", "drop", time=self._sim.now,
                    src=msg.src, dst=msg.dst, kind=msg.kind, reason="no_handler",
                )
            return
        self.stats.delivered += 1
        handler(msg)
