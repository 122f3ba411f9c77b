"""Kademlia routing table: k-buckets keyed by shared-prefix length.

Of the 160 possible buckets a node in an N-host network ever fills about
log2(N), so :class:`~repro.overlay.kademlia.kbucket.KBucket` objects are
allocated on the first *write* to a bucket; reads of an unoccupied
bucket (``get``, ``closest``, ``remove``) allocate nothing.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Optional

from repro.errors import OverlayError
from repro.overlay.kademlia.id_space import ID_SPACE, validate_id
from repro.overlay.kademlia.kbucket import Contact, KBucket

_rtt = attrgetter("rtt_ms")


class RoutingTable:
    """K-buckets indexed by shared-prefix length with the owner id.

    Every id is validated once, where it enters (``own_id`` by the
    constructor, a contact's by :meth:`update_many`, a probe's by ``get``
    / ``remove`` / ``closest``); distances between ids that passed are
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
        """Record that we heard from ``contact``; returns True if retained.
        No reported run calls it (nodes write whole replies); it stays as
        the single-contact form, and because ``bench/trace.py`` patches it
        by name."""
        return self.update_many((contact,))[0]

    def update_many(self, contacts: Iterable[Contact]) -> list[bool]:
        """Record that we heard from each of ``contacts``, in order, as
        that many single updates would; returns, per contact, whether it
        is (now) retained.

        This is the retention rule of every bucket:

        - the owner's own id is never retained;
        - a contact already in its bucket is refreshed: it moves to the
          tail, and with ``proximity`` keeps the lower of its old and new
          RTT;
        - a new contact is appended while its bucket holds fewer than
          ``k``;
        - a full bucket drops a new contact (classic LRU: no liveness
          ping — a contact that stops answering is removed when its RPC
          fails), unless ``proximity`` is set and the new RTT is below
          the bucket's worst, which is then evicted (the first of equal
          worst ones).

        An id that is not a plain ``int`` in range goes through
        :func:`validate_id`, which raises for a bad one; the contacts
        before it are written, the rest are not.
        """
        own_id = self.own_id
        buckets = self.buckets
        k = self.k
        proximity = self.proximity
        kept: list[bool] = []
        retained = kept.append
        for contact in contacts:
            node_id = contact.node_id
            if type(node_id) is not int or not 0 <= node_id < ID_SPACE:
                validate_id(node_id)  # raises unless an in-range int subclass
            b = (node_id ^ own_id).bit_length() - 1
            if b < 0:
                retained(False)
                continue
            bucket = buckets.get(b)
            if bucket is None:
                bucket = buckets[b] = KBucket()
            entries = bucket.entries
            old = entries.pop(node_id, None)
            if old is not None:
                entries[node_id] = (
                    old if proximity and old.rtt_ms < contact.rtt_ms else contact
                )
                retained(True)
            elif len(entries) < k:
                entries[node_id] = contact
                retained(True)
            elif proximity:
                worst = max(entries.values(), key=_rtt)
                if contact.rtt_ms < worst.rtt_ms:
                    del entries[worst.node_id]
                    entries[node_id] = contact
                    retained(True)
                else:
                    retained(False)
            else:
                retained(False)
        return kept

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

        Both sorts run at C level.  ``d ^ 2**j`` is ``m`` plus ``d``'s
        bits below ``j``, so it lies in bucket ``j``'s range and orders
        the buckets as ``m`` does: the bits ``2**j`` sort with key
        ``d.__xor__``.  A bucket's ids (its dict's keys) sort with key
        ``target.__xor__``; ids in one table are distinct, so no two are
        equally far.
        """
        count = self.k if count is None else count
        d = self.own_id ^ validate_id(target)
        buckets = self.buckets
        out: list[Contact] = []
        for bit in sorted(map((1).__lshift__, buckets), key=d.__xor__):
            if len(out) >= count:
                break
            entries = buckets[bit.bit_length() - 1].entries
            out += map(entries.__getitem__, sorted(entries, key=target.__xor__))
        return out[: max(count, 0)]

    def size(self) -> int:
        return sum(len(b) for b in self.buckets.values())
