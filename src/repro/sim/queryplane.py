"""Shared infrastructure of the frontier-batched query plane.

PR 9 made the *data* plane cheap (streamed delays, a single inline bus
send path); the query plane — Gnutella TTL floods, ping rounds, Kademlia
lookup rounds — still expanded one Python callback per message.  This
module holds the overlay-independent pieces the batched expansion kernels
build on (the Gnutella kernel itself lives in
:mod:`repro.overlay.gnutella.flood`, keeping ``sim`` below ``overlay`` in
the import graph):

- :class:`SeenFilter` — the bounded (GUID, host) duplicate-suppression
  window shared by the per-message reference handlers and the batch
  kernel.  Backed by one :class:`~repro.core.peerstate.Bitmap2D` column
  per active key (one bit per host per key, vectorised mark/test); keys
  expire FIFO once ``window`` distinct keys are live, so the suppression
  state of a long-running service stays flat instead of growing with
  every query ever issued.
- :class:`BoundedRouteTable` — FIFO-bounded reverse-path routing state
  (``key -> previous hop``); an evicted route behaves exactly like the
  protocols' existing "route evaporated" case.
- :class:`SendLog` / :func:`flood_trace_digest` — a bus observer that
  records ``(time, src, dst, kind, size)`` for every *send* (including
  messages later dropped in flight) and hashes the sorted tuple set.
  Batch expansion schedules different simulator events than the
  per-message path, so engine-level trace digests cannot match across
  backends; this message-level digest is the equivalence currency — it is
  bit-identical iff both backends send the same messages at the same
  simulated times.  Batch kernels append through :meth:`SendLog.record`
  with the computed virtual send time; on the reference path the bus
  observer hook stamps ``sim.now``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, Hashable, Optional, Sequence

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.peerstate import PeerState
    from repro.sim.engine import Simulation

#: ``query_backend="auto"`` switches a network to batched flood expansion
#: at this population size — below it the per-message reference path is
#: just as fast and keeps engine-level golden traces byte-stable.
QUERY_AUTO_NODE_THRESHOLD = 512


class SeenFilter:
    """Bounded (key, host) membership — the duplicate-suppression window.

    ``key`` is a protocol descriptor identity (e.g. ``("QUERY", guid)``);
    hosts that have handled it are marked so later copies are dropped.  At
    most ``window`` distinct keys are live: admitting key ``window + 1``
    expires the oldest (FIFO), after which a re-flood of the expired GUID
    is deliverable again — the bounded-memory trade every real servent
    makes.

    Per-key membership is one bit column of a packed bitmap over the
    slots of ``peerstate`` (``window/8`` bytes per host in total, whatever
    a flood's reach); every host tested or marked must be admitted there.
    """

    def __init__(
        self,
        window: int = 4096,
        *,
        peerstate: "PeerState",
        bitmap_name: str = "seen",
    ) -> None:
        if window < 1:
            raise SimulationError(f"seen window must be >= 1, got {window}")
        self.window = int(window)
        self._ps = peerstate
        self._bitmap = peerstate.bitmap(bitmap_name, self.window)
        #: key -> bit column (insertion-ordered: FIFO expiry order)
        self._key_bit: dict[Hashable, int] = {}
        self.expired_keys = 0

    def __len__(self) -> int:
        return len(self._key_bit)

    def known(self, key: Hashable) -> bool:
        """Whether any host is (still) marked for ``key`` — ``False``
        means a whole-population test can be skipped (fresh GUID)."""
        return key in self._key_bit

    def _admit(self, key: Hashable) -> int:
        bit = self._key_bit.get(key)
        if bit is not None:
            return bit
        if len(self._key_bit) < self.window:
            bit = len(self._key_bit)
        else:  # window full: expire the oldest key, recycle its column
            oldest = next(iter(self._key_bit))
            bit = self._key_bit.pop(oldest)
            self._bitmap.clear_column(bit)
            self.expired_keys += 1
        self._key_bit[key] = bit
        return bit

    def test(self, host: Hashable, key: Hashable) -> bool:
        bit = self._key_bit.get(key)
        if bit is None:
            return False
        return self._bitmap.test(self._ps.slot_of(host), bit)

    def mark(self, host: Hashable, key: Hashable) -> None:
        self._bitmap.set(self._ps.slot_of(host), self._admit(key))

    def mark_many(self, hosts: Sequence[Hashable], key: Hashable) -> None:
        """Batch :meth:`mark` — one vectorised ``set_slots`` (how a flood
        kernel commits a whole expansion's accepts).  An empty flood
        still reserves its window slot, exactly like the per-message
        path marking only the origin."""
        bit = self._admit(key)
        if hosts:
            slot_of = self._ps.slot_of
            self._bitmap.set_slots([slot_of(h) for h in hosts], bit)

    def membership(self, key: Hashable) -> Optional[Callable[[Hashable], bool]]:
        """A fast membership predicate for ``key``, or ``None`` when no
        host is marked (the overwhelmingly common fresh-GUID case)."""
        if not self.known(key):
            return None
        return lambda host: self.test(host, key)

    def memory_bytes(self) -> int:
        """Approximate resident size of the suppression state — constant
        once the window has filled, whatever the query count."""
        return int(self._bitmap._bits.nbytes) + 64 * len(self._key_bit)


class BoundedRouteTable:
    """FIFO-bounded ``key -> previous hop`` reverse-path routing state.

    Mapping-ish surface (``get`` / ``in`` / item assignment) matching how
    the protocol handlers already use their route dicts; inserting past
    ``capacity`` silently forgets the oldest route, which downstream code
    already tolerates as the "route evaporated" case.
    """

    __slots__ = ("capacity", "_routes")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise SimulationError(f"route capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._routes: dict[Hashable, Hashable] = {}

    def __setitem__(self, key: Hashable, back: Hashable) -> None:
        routes = self._routes
        if key not in routes and len(routes) >= self.capacity:
            del routes[next(iter(routes))]
        routes[key] = back

    def get(self, key: Hashable, default=None):
        return self._routes.get(key, default)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._routes

    def __len__(self) -> int:
        return len(self._routes)

    def pop(self, key: Hashable, default=None):
        return self._routes.pop(key, default)

    def clear(self) -> None:
        self._routes.clear()


def flood_trace_digest(
    events: Sequence[tuple[float, Hashable, Hashable, str, int]]
) -> str:
    """SHA-256 over the *sorted* ``(time, src, dst, kind, size)`` send
    tuples.  Sorting makes the digest insensitive to expansion order (the
    batch kernel emits a flood's sends grouped; the reference interleaves
    them with deliveries) while staying bit-sensitive to every delivery
    time, endpoint, TTL-driven fan-out difference, and loss draw."""
    h = hashlib.sha256()
    for ev in sorted(events):
        h.update(repr(ev).encode())
    return h.hexdigest()


class SendLog:
    """Bus observer recording every send as ``(time, src, dst, kind,
    size)`` — the capture side of :func:`flood_trace_digest`.

    On the per-message path the bus calls :meth:`observe` (stamping
    ``sim.now``, which *is* the send time there); batch kernels call
    :meth:`record` with the virtual send time they computed, so one log
    fingerprints either backend identically.
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
    "QUERY_AUTO_NODE_THRESHOLD",
    "BoundedRouteTable",
    "SeenFilter",
    "SendLog",
    "flood_trace_digest",
]
