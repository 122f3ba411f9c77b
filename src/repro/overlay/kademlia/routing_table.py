"""Kademlia routing table: k-buckets keyed by shared-prefix length.

Of the 160 possible buckets a node in an N-host network ever fills about
log2(N), so :class:`~repro.overlay.kademlia.kbucket.KBucket` objects are
allocated on the first *write* to a bucket; reads of an unoccupied
bucket (``get``, ``closest``, ``remove``) allocate nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import OverlayError
from repro.overlay.kademlia.id_space import validate_id
from repro.overlay.kademlia.kbucket import Contact, KBucket


class RoutingTable:
    """K-buckets indexed by shared-prefix length with the owner id.

    Every id is validated once, where it enters (``own_id`` by the
    constructor, a contact's by :meth:`update`, a probe's by ``get`` /
    ``remove`` / ``closest``); distances between ids that passed are
    plain ``^``.  The bucket of ``x`` is the top bit of ``own_id ^ x``,
    -1 for the owner's own id, which no bucket holds.
    """

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
        b = (validate_id(contact.node_id) ^ self.own_id).bit_length() - 1
        if b < 0:
            return False
        bucket = self.buckets.get(b)
        if bucket is None:
            bucket = self.buckets[b] = KBucket(k=self.k, proximity=self.proximity)
        return bucket.update(contact)

    def remove(self, node_id: int) -> None:
        b = (validate_id(node_id) ^ self.own_id).bit_length() - 1
        bucket = self.buckets.get(b)
        if bucket is not None:
            bucket.remove(node_id)

    def get(self, node_id: int) -> Optional[Contact]:
        b = (validate_id(node_id) ^ self.own_id).bit_length() - 1
        bucket = self.buckets.get(b)
        return None if bucket is None else bucket.get(node_id)

    def all_contacts(self) -> list[Contact]:
        """Every contact, by ascending bucket index then LRU position."""
        out: list[Contact] = []
        for b in sorted(self.buckets):
            out.extend(self.buckets[b].contacts())
        return out

    def closest(self, target: int, count: Optional[int] = None) -> list[Contact]:
        """The ``count`` contacts closest to ``target`` by XOR distance.

        Buckets are visited outward from the target's.  With ``d = own_id
        ^ target``, a contact of bucket ``j`` lies at distance ``d ^ x``
        for some ``x`` in ``[2**j, 2**(j+1))``: bits above ``j`` are
        ``d``'s, bit ``j`` is flipped, so bucket ``j`` covers exactly the
        distances ``[m, m + 2**j)`` with ``m = ((d >> j) ^ 1) << j``.
        Those ranges are disjoint, hence ascending ``m`` is nearest
        bucket first — the bucket of ``d``'s top bit, then the lower
        buckets where ``d`` has a 1 (high to low), then those where it
        has a 0 (low to high), then the higher buckets ascending — and
        only the buckets needed to reach ``count`` are ranked.
        """
        count = self.k if count is None else count
        d = self.own_id ^ validate_id(target)
        buckets = self.buckets
        out: list[Contact] = []
        for j in sorted(buckets, key=lambda j: ((d >> j) ^ 1) << j):
            if len(out) >= count:
                break
            ranked = [(c.node_id ^ target, c) for c in buckets[j]]
            ranked.sort()  # ids in one table are distinct: no tie reaches c
            out += [c for _distance, c in ranked]
        return out[: max(count, 0)]

    def size(self) -> int:
        return sum(len(b) for b in self.buckets.values())
