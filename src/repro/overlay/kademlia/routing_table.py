"""Kademlia routing table: k-buckets keyed by shared-prefix length.

Of the 160 possible buckets a node in an N-host network ever fills about
log2(N), so :class:`~repro.overlay.kademlia.kbucket.KBucket` objects are
allocated on the first *write* to a bucket; reads of an unoccupied
bucket (``get``, ``closest``, bucket refresh) allocate nothing.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.errors import OverlayError
from repro.overlay.kademlia.id_space import (
    bucket_index,
    validate_id,
    xor_distance,
)
from repro.overlay.kademlia.kbucket import Contact, KBucket


class RoutingTable:
    """K-buckets indexed by shared-prefix length with the owner id."""

    def __init__(
        self,
        own_id: int,
        *,
        k: int = 8,
        proximity: bool = False,
    ) -> None:
        if k < 1:
            raise OverlayError("bucket size must be >= 1")
        self.own_id = validate_id(own_id)
        self.k = k
        self.proximity = proximity
        #: bucket index -> bucket, for every bucket written so far
        self.buckets: dict[int, KBucket] = {}

    def update(self, contact: Contact) -> bool:
        """Record that we heard from ``contact``; returns True if retained."""
        if contact.node_id == self.own_id:
            return False
        b = bucket_index(self.own_id, contact.node_id)
        bucket = self.buckets.get(b)
        if bucket is None:
            bucket = self.buckets[b] = KBucket(k=self.k, proximity=self.proximity)
        return bucket.update(contact)

    def remove(self, node_id: int) -> None:
        if node_id == self.own_id:
            return
        bucket = self.buckets.get(bucket_index(self.own_id, node_id))
        if bucket is not None:
            bucket.remove(node_id)

    def get(self, node_id: int) -> Optional[Contact]:
        if node_id == self.own_id:
            return None
        bucket = self.buckets.get(bucket_index(self.own_id, node_id))
        return None if bucket is None else bucket.get(node_id)

    def all_contacts(self) -> list[Contact]:
        """Every contact, by ascending bucket index then LRU position."""
        out: list[Contact] = []
        for b in sorted(self.buckets):
            out.extend(self.buckets[b].contacts())
        return out

    def closest(self, target: int, count: Optional[int] = None) -> list[Contact]:
        """The ``count`` contacts closest to ``target`` by XOR distance."""
        count = self.k if count is None else count
        target = validate_id(target)
        return heapq.nsmallest(
            count,
            self.all_contacts(),
            key=lambda c: xor_distance(c.node_id, target),
        )

    def size(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def nonempty_buckets(self) -> list[int]:
        return sorted(i for i, b in self.buckets.items() if len(b))
