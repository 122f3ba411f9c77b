"""An independent k-bucket, kept as a test oracle.

``src/`` keeps a bucket's contacts in an insertion-ordered ``dict``
keyed by node id and writes them in
:meth:`repro.overlay.kademlia.RoutingTable.update_many`, one reply's
contacts per call.  This module states the same contract through
another representation — a Python list scanned front to back, one
contact per call, where a refresh is ``del`` plus ``append`` and
proximity eviction takes the first maximal index — so
``test_kademlia_buckets.py`` and ``test_structure_models.py`` hold the
real table to code that shares none of its logic: same return values,
same contacts in the same order, after any sequence of updates and
removals.  (It was the product until the dict replaced it, measured on
``bench/`` in ``docs/perf-log/PR-40.md``.)
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import OverlayError
from repro.overlay.kademlia import Contact


class ReferenceKBucket:
    """LRU (``proximity`` False) or lowest-RTT (``proximity`` True)
    bucket of at most ``k`` contacts, oldest first."""

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
