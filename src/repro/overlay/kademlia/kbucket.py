"""K-buckets with pluggable retention policy.

Plain Kademlia retains the *oldest live* contacts (LRU with head
preference) because old contacts predict future liveness.  The proximity
variant of Kaune et al. [17] instead retains the *lowest-latency* contacts
among the candidates for a full bucket — "embracing the peer next door" —
which leaves routing correctness untouched (any contact in the right
bucket works) while making every hop cheaper for the underlay.

The retention rule is written once, in
:meth:`~repro.overlay.kademlia.routing_table.RoutingTable.update_many`,
the only writer of a bucket; :class:`KBucket` is what it writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, slots=True)
class Contact:
    """A routing-table entry: overlay id + transport address (+ measured
    proximity, used only by the PNS policy).  Immutable, so one object
    may sit in a table and in any number of lookups at once."""

    node_id: int
    host_id: int
    rtt_ms: float = float("inf")


class KBucket:
    """One bucket's contacts, least recently refreshed first.

    ``entries`` is an insertion-ordered ``dict`` from node id to
    :class:`Contact`.  The owning table's ``update_many`` fills it (a
    refresh is ``pop`` plus re-insert); everything here only reads or
    removes.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[int, Contact] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.entries

    def contacts(self) -> list[Contact]:
        return list(self.entries.values())

    def get(self, node_id: int) -> Optional[Contact]:
        return self.entries.get(node_id)

    def remove(self, node_id: int) -> None:
        self.entries.pop(node_id, None)
