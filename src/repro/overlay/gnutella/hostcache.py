"""Gnutella hostcache: the bounded pool of known peer addresses.

A node bootstraps from its hostcache (filled, as in the testlab of [1],
with a random subset of the network's addresses) and keeps it fresh from
PONG advertisements.  The ``limit`` parameter of :meth:`snapshot` models
the "list size 100 / 1000" sent to the oracle in the biased experiments.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import OverlayError
from repro.rng import SeedLike, ensure_rng


class HostCache:
    """Insertion-ordered bounded set of peer addresses (host ids)."""

    def __init__(self, capacity: int = 1000) -> None:
        if capacity < 1:
            raise OverlayError("hostcache capacity must be >= 1")
        self.capacity = capacity
        self._entries: dict[int, None] = {}  # ordered set

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, peer: int) -> bool:
        return peer in self._entries

    def add_all(self, peers: Iterable[int]) -> None:
        """Insert each of ``peers`` in order (move-to-back on re-add),
        then evict the oldest entries beyond capacity.  Evicting once at
        the end is evicting after every insert: an entry only ever ages
        between its re-adds, so whatever one-by-one adding would have
        evicted is still the oldest."""
        entries = self._entries
        for p in peers:
            entries.pop(p, None)
            entries[p] = None
        while len(entries) > self.capacity:
            del entries[next(iter(entries))]

    def remove(self, peer: int) -> None:
        self._entries.pop(peer, None)

    def snapshot(self, limit: Optional[int] = None) -> list[int]:
        """Most recent entries first, truncated to ``limit``."""
        entries = list(reversed(self._entries))
        return entries if limit is None else entries[:limit]

    def fill_random(
        self, population: Sequence[int], n: int, rng: SeedLike = None
    ) -> None:
        """Bootstrap fill: a random ``n``-subset of ``population``."""
        rng = ensure_rng(rng)
        pop = list(population)
        n = min(n, len(pop), self.capacity)
        if n == 0:
            return
        idx = rng.choice(len(pop), size=n, replace=False)
        self.add_all(pop[int(i)] for i in idx)
