"""SkyEye.KOM-style information management over-overlay (Graffi et al. [11]).

An *over-overlay*: a balanced k-ary tree layered on top of the peer
population.  Every peer periodically reports its :class:`PeerResources`
capacity vector to its tree parent; inner nodes aggregate (count, sums,
maxima, top-k capacity list) and push upward, so the root holds "the
oracle view on structured P2P systems" — global statistics and the best
super-peer candidates — with O(log n) update depth and O(n) messages per
aggregation round.

Usage in the survey: §3.4 (collection of peer resources) and §4
(resource-aware role assignment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.collection.base import InfoSource
from repro.errors import CollectionError
from repro.underlay.hosts import PeerResources

#: Attributes aggregated by the tree.
_ATTRS = (
    "bandwidth_down_kbps",
    "bandwidth_up_kbps",
    "cpu_ops",
    "storage_gb",
    "memory_mb",
    "avg_online_hours",
)


@dataclass
class AggregateStats:
    """Aggregate over a subtree."""

    count: int = 0
    sums: dict[str, float] = field(default_factory=lambda: {a: 0.0 for a in _ATTRS})
    maxima: dict[str, float] = field(default_factory=lambda: {a: 0.0 for a in _ATTRS})
    top_capacity: list[tuple[float, int]] = field(default_factory=list)  # (score, peer)

    def add_peer(self, peer_id: int, res: PeerResources, top_k: int) -> None:
        self.count += 1
        for a in _ATTRS:
            v = float(getattr(res, a))
            self.sums[a] += v
            self.maxima[a] = max(self.maxima[a], v)
        self.top_capacity.append((res.capacity_score(), peer_id))
        self.top_capacity.sort(reverse=True)
        del self.top_capacity[top_k:]

    def merge(self, other: "AggregateStats", top_k: int) -> None:
        self.count += other.count
        for a in _ATTRS:
            self.sums[a] += other.sums[a]
            self.maxima[a] = max(self.maxima[a], other.maxima[a])
        self.top_capacity = sorted(
            self.top_capacity + other.top_capacity, reverse=True
        )[:top_k]

    def mean(self, attr: str) -> float:
        if attr not in self.sums:
            raise CollectionError(f"unknown attribute {attr!r}")
        return self.sums[attr] / self.count if self.count else 0.0


class SkyEyeOverlay(InfoSource):
    """Balanced k-ary aggregation tree over a fixed peer set.

    Peers are placed into tree slots by their order in ``peer_ids``
    (position i's parent is slot (i-1)//k), giving a deterministic
    balanced tree of depth ``ceil(log_k n)``.
    """

    def __init__(
        self,
        peer_ids: Sequence[int],
        *,
        branching: int = 4,
        top_k: int = 10,
    ) -> None:
        super().__init__()
        if branching < 2:
            raise CollectionError("branching factor must be >= 2")
        if top_k < 1:
            raise CollectionError("top_k must be >= 1")
        self.peer_ids = list(peer_ids)
        if not self.peer_ids:
            raise CollectionError("SkyEye needs at least one peer")
        if len(set(self.peer_ids)) != len(self.peer_ids):
            raise CollectionError("duplicate peer ids")
        self.branching = branching
        self.top_k = top_k
        self._slot_of = {p: i for i, p in enumerate(self.peer_ids)}
        self._reports: dict[int, PeerResources] = {}
        self._root_stats: Optional[AggregateStats] = None
        self.aggregation_rounds = 0

    # -- tree structure ------------------------------------------------------
    def depth(self) -> int:
        """Longest root-to-leaf path length."""
        d, n = 0, len(self.peer_ids) - 1
        while n > 0:
            n = (n - 1) // self.branching
            d += 1
        return d

    # -- reporting / aggregation ------------------------------------------------
    def report(self, peer_id: int, resources: PeerResources) -> None:
        """A peer publishes its current capacity vector (kept locally until
        the next aggregation round)."""
        if peer_id not in self._slot_of:
            raise CollectionError(f"peer {peer_id} is not in the overlay")
        self._reports[peer_id] = resources

    def run_aggregation_round(self) -> AggregateStats:
        """Aggregate all reports bottom-up; returns the root view.

        Message accounting: one report message per non-root peer (each
        subtree aggregate travels one edge up), i.e. n−1 messages of size
        proportional to the aggregate record.
        """
        per_node: dict[int, AggregateStats] = {}
        # leaves-to-root order = reversed slot order
        for slot in range(len(self.peer_ids) - 1, -1, -1):
            pid = self.peer_ids[slot]
            stats = per_node.setdefault(pid, AggregateStats())
            res = self._reports.get(pid)
            if res is not None:
                stats.add_peer(pid, res, self.top_k)
            if slot > 0:
                parent = self.peer_ids[(slot - 1) // self.branching]
                parent_stats = per_node.setdefault(parent, AggregateStats())
                parent_stats.merge(stats, self.top_k)
                self.overhead.charge(messages=1, bytes_on_wire=48 + 16 * len(_ATTRS))
        self._root_stats = per_node[self.peer_ids[0]]
        self.aggregation_rounds += 1
        return self._root_stats

    # -- oracle view --------------------------------------------------------------
    @property
    def root_view(self) -> AggregateStats:
        if self._root_stats is None:
            raise CollectionError("no aggregation round has run yet")
        return self._root_stats

    def top_capacity_peers(self, k: Optional[int] = None) -> list[int]:
        """Best super-peer candidates known at the root."""
        view = self.root_view
        k = self.top_k if k is None else min(k, self.top_k)
        return [pid for _score, pid in view.top_capacity[:k]]
