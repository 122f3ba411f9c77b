"""K-buckets with pluggable retention policy.

Plain Kademlia retains the *oldest live* contacts (LRU with head
preference) because old contacts predict future liveness.  The proximity
variant of Kaune et al. [17] instead retains the *lowest-latency* contacts
among the candidates for a full bucket — "embracing the peer next door" —
which leaves routing correctness untouched (any contact in the right
bucket works) while making every hop cheaper for the underlay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import OverlayError


@dataclass(frozen=True, slots=True)
class Contact:
    """A routing-table entry: overlay id + transport address (+ measured
    proximity, used only by the PNS policy).  Immutable, so one object
    may sit in a table and in any number of lookups at once."""

    node_id: int
    host_id: int
    rtt_ms: float = float("inf")


class KBucket:
    """A bounded, ordered list of contacts.

    ``proximity`` False: classic LRU — new contacts appended, existing
    contacts moved to the tail on update, inserts into a full bucket are
    dropped (we skip the liveness-ping eviction dance; under our churn
    model stale contacts are removed explicitly).

    ``proximity`` True: the bucket keeps the k lowest-RTT contacts seen.
    """

    def __init__(self, k: int = 8, proximity: bool = False) -> None:
        if k < 1:
            raise OverlayError("bucket size must be >= 1")
        self.k = k
        self.proximity = proximity
        self._contacts: list[Contact] = []

    def __len__(self) -> int:
        return len(self._contacts)

    def __contains__(self, node_id: int) -> bool:
        return any(c.node_id == node_id for c in self._contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts)

    def contacts(self) -> list[Contact]:
        return list(self._contacts)

    def get(self, node_id: int) -> Optional[Contact]:
        for c in self._contacts:
            if c.node_id == node_id:
                return c
        return None

    def update(self, contact: Contact) -> bool:
        """Insert or refresh a contact; returns True if it is (now) in the
        bucket."""
        for i, c in enumerate(self._contacts):
            if c.node_id == contact.node_id:
                # refresh: move to tail (LRU) or keep best RTT (proximity)
                del self._contacts[i]
                if self.proximity and c.rtt_ms < contact.rtt_ms:
                    contact = c
                self._contacts.append(contact)
                return True
        if len(self._contacts) < self.k:
            self._contacts.append(contact)
            return True
        if self.proximity:
            worst_i = max(
                range(len(self._contacts)), key=lambda i: self._contacts[i].rtt_ms
            )
            if contact.rtt_ms < self._contacts[worst_i].rtt_ms:
                del self._contacts[worst_i]
                self._contacts.append(contact)
                return True
        return False

    def remove(self, node_id: int) -> None:
        self._contacts = [c for c in self._contacts if c.node_id != node_id]
