"""Hybrid super-peer overlay with resource-aware role assignment (§2.3).

"A P2P system that is aware on peer resources can benefit from an
increased performance since the overlay can be arranged in such a way
that different roles in the network are taken by appropriate nodes" —
this module is that arrangement.  Super-peers form a full mesh (small
populations) or a random regular mesh; every leaf attaches to the
super-peer with the lowest RTT that still has capacity.

Election policies:

- ``RANDOM`` — the strawman: roles assigned uniformly;
- ``CAPACITY`` — resource-aware: the top-capacity peers (by
  :meth:`~repro.underlay.hosts.PeerResources.capacity_score`, i.e. what a
  SkyEye aggregation would report) become super-peers.

Evaluation helpers compute the §5 quality metrics: search latency (leaf →
super-peer → responding super-peer → leaf), system stability (expected
super-peer session time), and super-peer bandwidth headroom.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.collection.skyeye import SkyEyeOverlay
from repro.errors import OverlayError
from repro.rng import SeedLike, ensure_rng
from repro.underlay.network import Underlay


class ElectionPolicy(enum.Enum):
    """How super-peers are chosen: uniformly at random or by capacity."""
    RANDOM = "random"
    CAPACITY = "capacity"


@dataclass
class HybridReport:
    """Evaluation summary of a super-peer overlay (latency, stability, load)."""
    n_superpeers: int
    mean_search_latency_ms: float
    mean_superpeer_session_h: float
    mean_superpeer_up_kbps: float
    max_leaf_load: int


class SuperPeerOverlay:
    """Two-tier overlay: super-peer mesh + leaves."""

    def __init__(
        self,
        underlay: Underlay,
        *,
        policy: ElectionPolicy = ElectionPolicy.CAPACITY,
        superpeer_fraction: float = 0.1,
        max_leaves_per_superpeer: int = 30,
        rng: SeedLike = None,
    ) -> None:
        if not (0 < superpeer_fraction <= 1):
            raise OverlayError("superpeer_fraction must be in (0, 1]")
        if max_leaves_per_superpeer < 1:
            raise OverlayError("max_leaves_per_superpeer must be >= 1")
        self.underlay = underlay
        self.policy = policy
        self.superpeer_fraction = superpeer_fraction
        self.max_leaves = max_leaves_per_superpeer
        self._rng = ensure_rng(rng)
        self.superpeers: list[int] = []
        self.leaf_assignment: dict[int, int] = {}  # leaf -> superpeer

    # -- election -----------------------------------------------------------------
    def elect(self, *, use_skyeye: bool = False) -> list[int]:
        """Choose super-peers.  With ``use_skyeye`` the CAPACITY policy
        consults an actual SkyEye aggregation round rather than omniscient
        host records — demonstrating the §3.4 collection path."""
        hosts = self.underlay.hosts
        n_sp = max(1, round(len(hosts) * self.superpeer_fraction))
        if self.policy is ElectionPolicy.RANDOM:
            idx = self._rng.choice(len(hosts), size=n_sp, replace=False)
            self.superpeers = sorted(hosts[int(i)].host_id for i in idx)
        elif use_skyeye:
            sky = SkyEyeOverlay(
                [h.host_id for h in hosts], branching=4, top_k=n_sp
            )
            for h in hosts:
                sky.report(h.host_id, h.resources)
            sky.run_aggregation_round()
            self.superpeers = sorted(sky.top_capacity_peers(n_sp))
        else:
            ranked = sorted(
                hosts, key=lambda h: h.resources.capacity_score(), reverse=True
            )
            self.superpeers = sorted(h.host_id for h in ranked[:n_sp])
        return self.superpeers

    # -- leaf attachment ------------------------------------------------------------
    def attach_leaves(self) -> None:
        """Each non-super-peer attaches to the nearest (RTT) super-peer
        with remaining capacity."""
        if not self.superpeers:
            raise OverlayError("call elect() before attach_leaves()")
        load: dict[int, int] = {sp: 0 for sp in self.superpeers}
        self.leaf_assignment.clear()
        for h in self.underlay.hosts:
            if h.host_id in load:
                continue
            ranked = sorted(
                self.superpeers,
                key=lambda sp: self.underlay.one_way_delay(h.host_id, sp),
            )
            for sp in ranked:
                if load[sp] < self.max_leaves:
                    self.leaf_assignment[h.host_id] = sp
                    load[sp] += 1
                    break
            else:
                raise OverlayError(
                    "super-peer capacity exhausted; raise superpeer_fraction "
                    "or max_leaves_per_superpeer"
                )

    # -- evaluation --------------------------------------------------------------------
    def search_latency_ms(self, origin_leaf: int, responder_leaf: int) -> float:
        """Latency of a search travelling leaf → SP → SP' → responder."""
        sp_a = self.leaf_assignment.get(origin_leaf, origin_leaf)
        sp_b = self.leaf_assignment.get(responder_leaf, responder_leaf)
        d = self.underlay.one_way_delay
        total = 0.0
        if sp_a != origin_leaf:
            total += d(origin_leaf, sp_a)
        if sp_b != sp_a:
            total += d(sp_a, sp_b)
        if responder_leaf != sp_b:
            total += d(sp_b, responder_leaf)
        return total

    def report(self, *, n_search_samples: int = 200) -> HybridReport:
        hosts = self.underlay.hosts
        leaves = [h.host_id for h in hosts if h.host_id not in set(self.superpeers)]
        if not leaves:
            raise OverlayError("no leaves to evaluate")
        lat = []
        for _ in range(n_search_samples):
            a = leaves[int(self._rng.integers(len(leaves)))]
            b = leaves[int(self._rng.integers(len(leaves)))]
            if a != b:
                lat.append(self.search_latency_ms(a, b))
        sp_hosts = [self.underlay.host(sp) for sp in self.superpeers]
        loads = np.zeros(len(self.superpeers), dtype=int)
        index = {sp: i for i, sp in enumerate(self.superpeers)}
        for sp in self.leaf_assignment.values():
            loads[index[sp]] += 1
        return HybridReport(
            n_superpeers=len(self.superpeers),
            mean_search_latency_ms=float(np.mean(lat)) if lat else 0.0,
            mean_superpeer_session_h=float(
                np.mean([h.resources.avg_online_hours for h in sp_hosts])
            ),
            mean_superpeer_up_kbps=float(
                np.mean([h.resources.bandwidth_up_kbps for h in sp_hosts])
            ),
            max_leaf_load=int(loads.max()) if loads.size else 0,
        )
