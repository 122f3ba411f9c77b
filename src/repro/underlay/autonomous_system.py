"""Autonomous systems, ISP tiers and inter-AS link types.

The survey's Figure 1 describes the Internet as a two-level ISP hierarchy:
*local ISPs* serving limited geographic areas and *transit ISPs* supplying
global connectivity, with money flowing from customers up to providers over
transit links and flat-cost *peering* links between ISPs of similar size.
We model three tiers (a Tier-1 clique of global transit carriers, Tier-2
regional transit ISPs, and Tier-3 local/stub ISPs), which is the minimal
structure that reproduces both the monetary-flow picture and realistic
AS-path lengths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.underlay.geometry import Position


class Tier(enum.IntEnum):
    """ISP tier.  Lower numeric value = higher in the hierarchy."""

    TIER1 = 1   # global transit carrier
    TIER2 = 2   # regional transit ISP
    STUB = 3    # local/access ISP ("local ISP" in Figure 1)


class LinkType(enum.Enum):
    """Business relationship of an inter-AS link (Gao classification)."""

    TRANSIT = "transit"   # customer-provider: the customer pays per Mbps
    PEERING = "peering"   # settlement-free: flat link-maintenance cost


@dataclass
class AutonomousSystem:
    """One AS / ISP in the synthetic Internet.

    ``providers``, ``customers`` and ``peers`` hold neighbouring ASNs by
    business relationship; they are filled in by the topology generator.
    """

    asn: int
    tier: Tier
    position: Position
    region: int = 0
    name: str = ""
    providers: set[int] = field(default_factory=set)
    customers: set[int] = field(default_factory=set)
    peers: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"AS{self.asn}"

    def relationship_to(self, other_asn: int) -> LinkType | None:
        """Link type toward a directly connected AS, else ``None``."""
        if other_asn in self.peers:
            return LinkType.PEERING
        if other_asn in self.providers or other_asn in self.customers:
            return LinkType.TRANSIT
        return None
