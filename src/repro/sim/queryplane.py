"""The message-level send log: what a flood sent, when, to whom.

:class:`SendLog` is a bus observer that records ``(time, src, dst, kind,
size)`` for every *send* (including messages later dropped in flight);
:func:`flood_trace_digest` hashes the sorted tuple set.  A Gnutella
flood is expanded inside
:class:`~repro.overlay.gnutella.flood.FloodKernel` without one simulator
event per message, so an engine-level trace digest cannot say whether
two runs flooded alike; this digest can — it is bit-identical iff the
same messages were sent at the same simulated times.  The kernel appends
through :meth:`SendLog.record` with the virtual send time it computed;
for a message that does travel on the bus, the observer hook stamps
``sim.now``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Hashable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation


def flood_trace_digest(
    events: Sequence[tuple[float, Hashable, Hashable, str, int]]
) -> str:
    """SHA-256 over the *sorted* ``(time, src, dst, kind, size)`` send
    tuples.  Sorting makes the digest insensitive to the order sends
    were logged in while staying bit-sensitive to every delivery time,
    endpoint, TTL-driven fan-out difference, and loss draw."""
    h = hashlib.sha256()
    for ev in sorted(events):
        h.update(repr(ev).encode())
    return h.hexdigest()


class SendLog:
    """Bus observer recording every send as ``(time, src, dst, kind,
    size)`` — the capture side of :func:`flood_trace_digest`.

    The bus calls :meth:`observe` (stamping ``sim.now``, which *is* the
    send time of a message on the bus); the flood kernel calls
    :meth:`record` with the virtual send time it computed.
    """

    def __init__(self, sim: "Simulation") -> None:
        self._sim = sim
        self.events: list[tuple[float, Hashable, Hashable, str, int]] = []

    def observe(
        self, src: Hashable, dst: Hashable, size_bytes: int, kind: str
    ) -> None:
        self.events.append((self._sim.now, src, dst, kind, size_bytes))

    def record(
        self, time: float, src: Hashable, dst: Hashable, kind: str,
        size_bytes: int,
    ) -> None:
        self.events.append((time, src, dst, kind, size_bytes))

    def digest(self) -> str:
        return flood_trace_digest(self.events)

    def clear(self) -> None:
        self.events.clear()


__all__ = [
    "SendLog",
    "flood_trace_digest",
]
