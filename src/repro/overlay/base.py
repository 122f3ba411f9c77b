"""Shared overlay plumbing.

Every protocol node in :mod:`repro.overlay` extends :class:`OverlayNode`:
it owns a host id, registers itself on the :class:`MessageBus`, and
dispatches incoming messages to ``on_<kind>`` handler methods.  The class
also centralises per-node message counters so experiments can aggregate
protocol overhead uniformly across very different overlays.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional

from repro.errors import OverlayError
from repro.sim.engine import Simulation
from repro.sim.messages import Message, MessageBus
from repro.sim.requests import RequestManager
from repro.underlay.hosts import Host


class OverlayNode:
    """Base class: bus registration + handler dispatch + counters."""

    def __init__(self, host: Host, sim: Simulation, bus: MessageBus) -> None:
        self.host = host
        self.sim = sim
        self.bus = bus
        self.online = False
        self.sent_counts: Counter[str] = Counter()
        self.received_counts: Counter[str] = Counter()
        #: set by protocols that run RPC-style exchanges; going offline
        #: cancels whatever is outstanding so a crashed node's retry
        #: timers die with it
        self.requests: Optional[RequestManager] = None

    @property
    def host_id(self) -> int:
        return self.host.host_id

    @property
    def asn(self) -> int:
        return self.host.asn

    # -- lifecycle -------------------------------------------------------------
    def go_online(self) -> None:
        if self.online:
            return
        self.online = True
        self.bus.register(self.host_id, self._dispatch)

    def go_offline(self) -> None:
        if not self.online:
            return
        self.online = False
        self.bus.unregister(self.host_id)
        if self.requests is not None:
            self.requests.cancel_all()

    def shutdown(self) -> None:
        """Leave for good: go offline, and (in subclasses) forget every
        exchange still in flight.  A crashed node (:meth:`go_offline`)
        may come back and finish them; a shut-down one never does."""
        self.go_offline()

    # -- messaging ---------------------------------------------------------------
    def send(
        self, dst: int, kind: str, payload: Any = None, size_bytes: int = 64
    ) -> None:
        if not self.online:
            raise OverlayError(
                f"node {self.host_id} tried to send {kind} while offline"
            )
        self.sent_counts[kind] += 1
        # MessageBus.send's body, one frame shorter on every RPC
        self.bus._send_one(
            self.host_id, dst, kind, payload, size_bytes, 0.0, None
        )

    def _dispatch(self, msg: Message) -> None:
        if not self.online:
            return
        self.received_counts[msg.kind] += 1
        handler = getattr(self, f"on_{msg.kind.lower()}", None)
        if handler is None:
            self.on_unhandled(msg)
            return
        handler(msg)

    def on_unhandled(self, msg: Message) -> None:
        """Default for unknown kinds: protocol bug, fail loudly."""
        raise OverlayError(
            f"{type(self).__name__} {self.host_id} has no handler for {msg.kind!r}"
        )
