"""An independent k-bucket, kept as a test oracle.

``src/`` keeps a bucket's contacts in a Python list scanned front to
back (:class:`repro.overlay.kademlia.KBucket`).  This module states the
same contract through another representation — an insertion-ordered
``dict`` keyed by node id, where a refresh is ``pop`` plus re-insert and
proximity eviction is ``max`` over the values — so
``test_kademlia_buckets.py`` and ``test_structure_models.py`` hold the
real bucket to code that shares none of its logic: same return values,
same contacts in the same order, after any sequence of updates and
removals.  (As a replacement for the list it was measured on ``bench/``
and did not pay: ``docs/perf-log/PR-31.md``.)
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Optional

from repro.errors import OverlayError
from repro.overlay.kademlia import Contact

_rtt = attrgetter("rtt_ms")


class ReferenceKBucket:
    """LRU (``proximity`` False) or lowest-RTT (``proximity`` True)
    bucket of at most ``k`` contacts, oldest first."""

    def __init__(self, k: int = 8, proximity: bool = False) -> None:
        if k < 1:
            raise OverlayError("bucket size must be >= 1")
        self.k = k
        self.proximity = proximity
        self._contacts: dict[int, Contact] = {}

    def __len__(self) -> int:
        return len(self._contacts)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._contacts

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts.values())

    def contacts(self) -> list[Contact]:
        return list(self._contacts.values())

    def get(self, node_id: int) -> Optional[Contact]:
        return self._contacts.get(node_id)

    def update(self, contact: Contact) -> bool:
        contacts = self._contacts
        old = contacts.pop(contact.node_id, None)
        if old is not None:
            # refresh: move to tail (LRU) or keep best RTT (proximity)
            if self.proximity and old.rtt_ms < contact.rtt_ms:
                contact = old
            contacts[contact.node_id] = contact
            return True
        if len(contacts) < self.k:
            contacts[contact.node_id] = contact
            return True
        if self.proximity:
            worst = max(contacts.values(), key=_rtt)  # the first of equals
            if contact.rtt_ms < worst.rtt_ms:
                del contacts[worst.node_id]
                contacts[contact.node_id] = contact
                return True
        return False

    def remove(self, node_id: int) -> None:
        self._contacts.pop(node_id, None)
