"""Tiered AS-level topology generator (Figure 1 of the survey).

The generator builds a three-tier hierarchy:

- **Tier-1**: a small clique of global carriers peered with each other,
  spread across the plane.
- **Tier-2**: regional transit ISPs clustered into geographic regions;
  each buys transit from 1–2 Tier-1 carriers and peers with nearby Tier-2s.
- **Stub** (local ISPs): each buys transit from 1–2 Tier-2 providers in
  its region and may peer with geographically close stubs — the "peering
  agreements between closely located ISPs" the survey's §2.1 describes.

The result is an :class:`InternetTopology`: the AS objects, whose
``providers`` / ``customers`` / ``peers`` sets routing reads, plus a
:mod:`networkx` graph view built on first access for analysis and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.rng import SeedLike, ensure_rng
from repro.underlay.autonomous_system import AutonomousSystem, LinkType, Tier
from repro.underlay.geometry import (
    DEFAULT_EXTENT_KM,
    Position,
    positions_to_array,
    scatter_around,
)

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of the synthetic AS topology.

    ``n_regions`` geographic regions each receive an equal share of Tier-2
    and stub ISPs.  ``stub_peering_prob`` is the probability that two stubs
    in the same region establish a settlement-free peering link, modelling
    the local peering agreements that make locality of traffic cheap.
    """

    n_tier1: int = 4
    n_tier2: int = 10
    n_stub: int = 25
    n_regions: int = 5
    extent_km: float = DEFAULT_EXTENT_KM
    region_spread_km: float = 400.0
    tier2_providers: int = 2
    stub_providers: int = 2
    tier2_peering_prob: float = 0.5
    stub_peering_prob: float = 0.15
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.n_tier1 < 1:
            raise ConfigurationError("need at least one Tier-1 AS")
        if self.n_tier2 < 1:
            raise ConfigurationError("need at least one Tier-2 AS")
        if self.n_stub < 1:
            raise ConfigurationError("need at least one stub AS")
        if self.n_regions < 1:
            raise ConfigurationError("need at least one region")
        if not (0 <= self.tier2_peering_prob <= 1):
            raise ConfigurationError("tier2_peering_prob must be a probability")
        if not (0 <= self.stub_peering_prob <= 1):
            raise ConfigurationError("stub_peering_prob must be a probability")
        if self.tier2_providers < 1 or self.stub_providers < 1:
            raise ConfigurationError("each non-Tier-1 AS needs >= 1 provider")


class InternetTopology:
    """A generated AS-level Internet.

    ASes are numbered 0..n-1 (Tier-1 first, then Tier-2, then stubs), so
    arrays indexed by ASN are straightforward.
    """

    def __init__(self, ases: list[AutonomousSystem]) -> None:
        if not ases:
            raise TopologyError("topology must contain at least one AS")
        for i, asys in enumerate(ases):
            if asys.asn != i:
                raise TopologyError(
                    f"AS at index {i} has asn {asys.asn}; asns must be 0..n-1"
                )
        self.ases = ases
        self._validate_symmetry()
        if not self._is_connected():
            raise TopologyError("generated AS graph is not connected")

    # -- construction -----------------------------------------------------
    def _validate_symmetry(self) -> None:
        for asys in self.ases:
            for p in asys.providers:
                if asys.asn not in self.ases[p].customers:
                    raise TopologyError(
                        f"AS{asys.asn} lists AS{p} as provider but not vice versa"
                    )
            for c in asys.customers:
                if asys.asn not in self.ases[c].providers:
                    raise TopologyError(
                        f"AS{asys.asn} lists AS{c} as customer but not vice versa"
                    )
            for q in asys.peers:
                if asys.asn not in self.ases[q].peers:
                    raise TopologyError(
                        f"AS{asys.asn} lists AS{q} as peer but not vice versa"
                    )

    def _is_connected(self) -> bool:
        """Whether every AS is reachable from AS 0 over business links."""
        seen = {0}
        todo = [0]
        while todo:
            asys = self.ases[todo.pop()]
            for other in (*asys.providers, *asys.customers, *asys.peers):
                if other not in seen:
                    seen.add(other)
                    todo.append(other)
        return len(seen) == len(self.ases)

    @cached_property
    def graph(self) -> nx.Graph:
        """The AS graph as :mod:`networkx` sees it, built on first access:
        nodes carry ``tier`` / ``region``, edges ``link_type`` (and
        ``provider`` on transit links)."""
        import networkx as nx

        g = nx.Graph()
        for asys in self.ases:
            g.add_node(asys.asn, tier=asys.tier, region=asys.region)
        for asys in self.ases:
            for c in asys.customers:
                g.add_edge(asys.asn, c, link_type=LinkType.TRANSIT, provider=asys.asn)
            for q in asys.peers:
                if asys.asn < q:
                    g.add_edge(asys.asn, q, link_type=LinkType.PEERING)
        return g

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ases)

    @property
    def n_ases(self) -> int:
        return len(self.ases)

    def asys(self, asn: int) -> AutonomousSystem:
        try:
            return self.ases[asn]
        except IndexError:
            raise TopologyError(f"unknown ASN {asn}") from None

    def stub_asns(self) -> list[int]:
        return [a.asn for a in self.ases if a.tier == Tier.STUB]

    def link_type(self, a: int, b: int) -> LinkType:
        """Relationship of the direct link a–b; raises if not adjacent."""
        rel = self.asys(a).relationship_to(b)
        if rel is None:
            raise TopologyError(f"AS{a} and AS{b} are not directly connected")
        return rel

    def transit_links(self) -> list[tuple[int, int]]:
        """All (provider, customer) transit links."""
        out = []
        for asys in self.ases:
            for c in sorted(asys.customers):
                out.append((asys.asn, c))
        return out

    def peering_links(self) -> list[tuple[int, int]]:
        """All peering links as (low asn, high asn)."""
        out = []
        for asys in self.ases:
            for q in sorted(asys.peers):
                if asys.asn < q:
                    out.append((asys.asn, q))
        return out

    def positions_array(self) -> np.ndarray:
        return positions_to_array([a.position for a in self.ases])


def generate_topology(config: TopologyConfig | None = None) -> InternetTopology:
    """Generate a connected, valley-free-routable tiered AS topology."""
    config = config or TopologyConfig()
    rng = ensure_rng(config.seed)
    ases: list[AutonomousSystem] = []

    # Region centres, spaced on a ring inside the plane so that regions are
    # geographically distinct (inter-region distance >> intra-region spread).
    cx = cy = config.extent_km / 2.0
    ring_r = config.extent_km * 0.35
    angles = 2.0 * np.pi * np.arange(config.n_regions) / config.n_regions
    region_centers = [
        Position(cx + ring_r * np.cos(a), cy + ring_r * np.sin(a)) for a in angles
    ]

    # Tier-1 carriers: placed near the plane centre, full peering mesh.
    t1_positions = scatter_around(
        Position(cx, cy), config.extent_km * 0.15, config.n_tier1, rng
    )
    for i in range(config.n_tier1):
        ases.append(
            AutonomousSystem(asn=i, tier=Tier.TIER1, position=t1_positions[i], region=-1)
        )
    for i in range(config.n_tier1):
        for j in range(i + 1, config.n_tier1):
            ases[i].peers.add(j)
            ases[j].peers.add(i)

    def add_transit(provider: AutonomousSystem, customer: AutonomousSystem) -> None:
        provider.customers.add(customer.asn)
        customer.providers.add(provider.asn)

    # Tier-2 regional ISPs.
    t2_start = config.n_tier1
    for k in range(config.n_tier2):
        region = k % config.n_regions
        pos = scatter_around(region_centers[region], config.region_spread_km, 1, rng)[0]
        asys = AutonomousSystem(
            asn=t2_start + k, tier=Tier.TIER2, position=pos, region=region
        )
        ases.append(asys)
        n_prov = min(config.tier2_providers, config.n_tier1)
        providers = rng.choice(config.n_tier1, size=n_prov, replace=False)
        for p in providers:
            add_transit(ases[int(p)], asys)

    # Peering between Tier-2 ISPs in the same region.
    tier2 = [a for a in ases if a.tier == Tier.TIER2]
    for i, a in enumerate(tier2):
        for b in tier2[i + 1 :]:
            if a.region == b.region and rng.random() < config.tier2_peering_prob:
                a.peers.add(b.asn)
                b.peers.add(a.asn)

    # Stub / local ISPs.
    stub_start = t2_start + config.n_tier2
    tier2_by_region: dict[int, list[AutonomousSystem]] = {}
    for a in tier2:
        tier2_by_region.setdefault(a.region, []).append(a)
    for k in range(config.n_stub):
        region = k % config.n_regions
        pos = scatter_around(region_centers[region], config.region_spread_km, 1, rng)[0]
        asys = AutonomousSystem(
            asn=stub_start + k, tier=Tier.STUB, position=pos, region=region
        )
        ases.append(asys)
        regional = tier2_by_region.get(region) or tier2
        n_prov = min(config.stub_providers, len(regional))
        idx = rng.choice(len(regional), size=n_prov, replace=False)
        for p in idx:
            add_transit(regional[int(p)], asys)

    # Peering between stubs in the same region (local peering agreements).
    stubs = [a for a in ases if a.tier == Tier.STUB]
    for i, a in enumerate(stubs):
        for b in stubs[i + 1 :]:
            if a.region == b.region and rng.random() < config.stub_peering_prob:
                a.peers.add(b.asn)
                b.peers.add(a.asn)

    return InternetTopology(ases)
