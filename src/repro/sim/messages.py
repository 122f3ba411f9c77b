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
from typing import Any, Callable, Hashable, Optional, Protocol, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs import active_registry, active_tracer
from repro.obs.registry import Counter, CounterCell, MetricRegistry
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
    one, else :meth:`observe` — *unless* the observer sets the class
    attribute ``accepts_aggregates = True``.  That declares its
    ``observe`` takes a fifth argument ``count`` and that one call with
    ``count=n`` equals ``n`` single calls, in any order relative to
    other ``(src, dst, kind)`` triples.  The kernel then hands such an
    observer one call per distinct triple when the expansion commits,
    beside :meth:`MessageBus.account_external`.  The simulation clock
    does not move during an expansion, so a clock-reading observer bills
    the whole expansion at its start time.
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
        self._observers: list[TrafficObserver] = []
        self._loss_seed = loss_seed
        self._loss_rng: Optional[np.random.Generator] = None
        self._loss_rate = 0.0
        self.loss_rate = loss_rate  # property: validates + creates the RNG
        self._fault_hook: Optional[FaultHook] = None
        self.stats = BusStats()
        self._sent_ctr: Optional[Counter] = None
        self._bytes_ctr: Optional[Counter] = None
        self._delivered_ctr: Optional[Counter] = None
        self._dropped_ctr: Optional[Counter] = None
        # Bound label cells: ``kind`` -> (sent, bytes, delivered) cell
        # views, populated lazily per kind (None when uninstrumented) —
        # the send fast path pays one dict lookup instead of label
        # validation per message.
        self._kind_cells: Optional[dict[str, tuple]] = None
        self._drop_fault_cell: Optional[CounterCell] = None
        self._drop_loss_cell: Optional[CounterCell] = None
        self._drop_nohandler_cell: Optional[CounterCell] = None
        self._tracer: Optional[Tracer] = None
        registry, tracer = active_registry(), active_tracer()
        if registry is not None or tracer is not None:
            self.instrument(registry, tracer)

    def instrument(
        self,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """Start recording per-kind counters into ``registry`` and/or
        send/deliver/drop trace events into ``tracer``."""
        if registry is not None:
            self._sent_ctr = registry.counter(
                "bus_messages_sent_total", "Messages sent, by kind.", ("kind",)
            )
            self._bytes_ctr = registry.counter(
                "bus_bytes_sent_total", "Payload bytes sent, by kind.", ("kind",)
            )
            self._delivered_ctr = registry.counter(
                "bus_messages_delivered_total", "Messages delivered, by kind.",
                ("kind",),
            )
            self._dropped_ctr = registry.counter(
                "bus_messages_dropped_total", "Messages dropped, by reason.",
                ("reason",),
            )
            self._kind_cells = {}
            self._drop_fault_cell = self._dropped_ctr.labelled(reason="fault")
            self._drop_loss_cell = self._dropped_ctr.labelled(reason="loss")
            self._drop_nohandler_cell = self._dropped_ctr.labelled(
                reason="no_handler"
            )
        if tracer is not None:
            self._tracer = tracer

    def _bind_kind(self, kind: str) -> tuple:
        """Bind (and cache) the per-kind counter cells."""
        cells = (
            self._sent_ctr.labelled(kind=kind),
            self._bytes_ctr.labelled(kind=kind),
            self._delivered_ctr.labelled(kind=kind),
        )
        self._kind_cells[kind] = cells
        return cells

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
        call per kind updates :class:`BusStats` and the bound metric
        cells exactly as ``sent``/``delivered`` individual messages would
        have; traffic observers are *not* notified here (the kernel calls
        them itself, per message or per aggregate — see
        :class:`TrafficObserver`).
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
        cells = self._kind_cells
        if cells is not None:
            kc = cells.get(kind) or self._bind_kind(kind)
            if sent:
                kc[0].inc(sent)
                kc[1].inc(bytes_sent)
            if delivered:
                kc[2].inc(delivered)
            if dropped_loss:
                self._drop_loss_cell.inc(dropped_loss)
            if dropped_fault:
                self._drop_fault_cell.inc(dropped_fault)
            if dropped_no_handler:
                self._drop_nohandler_cell.inc(dropped_no_handler)

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

    def unregister(self, endpoint: Hashable) -> None:
        self._handlers.pop(endpoint, None)

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
        cells: Optional[tuple],
        batch: Optional[list],
    ) -> Message:
        """The single inline send path shared by :meth:`send` and
        :meth:`send_many`: accounting, bound-cell metrics, fault hook,
        loss draw, delay validation, then either a direct ``schedule``
        (``batch is None``) or an append to the caller's batch list.
        """
        msg = Message(src, dst, kind, payload, size_bytes)
        delay = self._latency.one_way_delay(src, dst) + extra_delay
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += size_bytes
        by_kind = stats.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        for obs in self._observers:
            obs.observe(src, dst, size_bytes, kind)
        if cells is not None:
            cells[0].inc()
            cells[1].inc(size_bytes)
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
                if self._drop_fault_cell is not None:
                    self._drop_fault_cell.inc()
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
            if self._drop_loss_cell is not None:
                self._drop_loss_cell.inc()
            if tracer is not None:
                tracer.emit(
                    "bus", "drop", time=self._sim.now,
                    src=src, dst=dst, kind=kind, reason="loss",
                )
            return msg
        if batch is None:
            self._sim.schedule(delay, self._deliver, msg)
        else:
            batch.append((delay, self._deliver, (msg,)))
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
        ``extra_delay`` + fault penalty) would be negative.
        """
        if size_bytes < 0:
            raise SimulationError(f"negative message size: {size_bytes}")
        cells = self._kind_cells
        if cells is not None:
            cells = cells.get(kind) or self._bind_kind(kind)
        return self._send_one(
            src, dst, kind, payload, size_bytes, extra_delay, cells, None
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
        if size_bytes < 0:
            raise SimulationError(f"negative message size: {size_bytes}")
        cells = self._kind_cells
        if cells is not None:
            cells = cells.get(kind) or self._bind_kind(kind)
        messages: list[Message] = []
        batch: list[tuple[float, Callable[..., None], tuple]] = []
        send_one = self._send_one
        for dst in dsts:
            messages.append(
                send_one(src, dst, kind, payload, size_bytes, extra_delay,
                         cells, batch)
            )
        if batch:
            self._sim.schedule_many(batch)
        return messages

    def _deliver(self, msg: Message) -> None:
        handler = self._handlers.get(msg.dst)
        if handler is None:
            self.stats.dropped_no_handler += 1
            if self._drop_nohandler_cell is not None:
                self._drop_nohandler_cell.inc()
            if self._tracer is not None:
                self._tracer.emit(
                    "bus", "drop", time=self._sim.now,
                    src=msg.src, dst=msg.dst, kind=msg.kind, reason="no_handler",
                )
            return
        self.stats.delivered += 1
        cells = self._kind_cells
        if cells is not None:
            kc = cells.get(msg.kind)
            if kc is None:
                kc = self._bind_kind(msg.kind)
            kc[2].inc()
        handler(msg)
