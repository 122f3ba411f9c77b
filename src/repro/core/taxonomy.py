"""Table 1: the catalogue of underlay-aware systems, as a code registry.

Each entry records a system the survey lists, its information type and
reference, and which module of this repository implements the
corresponding technique; survey entries we cover by an equivalent
technique point at that technique.  :data:`TABLE1_SYSTEMS` is the one
copy of Table 1: TAB1 measures a subset of it, one row per measured
system, each row naming its entries by reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collection.base import UnderlayInfoType


@dataclass(frozen=True)
class SystemEntry:
    """One row of Table 1."""

    name: str
    info_type: UnderlayInfoType
    reference: str           # citation key in the paper
    technique: str           # short description of the mechanism
    implemented_by: str      # module path in this repo realising it


TABLE1_SYSTEMS: tuple[SystemEntry, ...] = (
    # --- ISP-location -------------------------------------------------------
    SystemEntry(
        "BNS (biased neighbor selection)", UnderlayInfoType.ISP_LOCATION, "[3]",
        "tracker returns same-AS peers plus a small external quota",
        "repro.overlay.bittorrent.tracker",
    ),
    SystemEntry(
        "Oracle (ISP-aided)", UnderlayInfoType.ISP_LOCATION, "[1]",
        "in-network ISP component ranks candidate lists by AS hops",
        "repro.collection.oracle",
    ),
    SystemEntry(
        "Ono", UnderlayInfoType.ISP_LOCATION, "[5]",
        "CDN redirection ratio maps as a free proximity signal",
        "repro.collection.cdn",
    ),
    SystemEntry(
        "CAT (cost-aware BitTorrent)", UnderlayInfoType.ISP_LOCATION, "[32]",
        "choking prefers low-cost (same-AS) peers",
        "repro.overlay.bittorrent.flowswarm",
    ),
    SystemEntry(
        "TSO / LSH hierarchy", UnderlayInfoType.ISP_LOCATION, "[31]",
        "topology-aware hierarchical structured overlay",
        "repro.overlay.chord",
    ),
    SystemEntry(
        "LTM (location-aware topology matching)", UnderlayInfoType.ISP_LOCATION,
        "[21]", "cuts low-productive overlay links with a cheaper 2-hop relay",
        "repro.core.ltm",
    ),
    SystemEntry(
        "P4P (iTracker)", UnderlayInfoType.ISP_LOCATION, "[29]",
        "ISP publishes PID-level p-distances; appTrackers weight peers by them",
        "repro.collection.p4p",
    ),
    SystemEntry(
        "Brocade", UnderlayInfoType.ISP_LOCATION, "[36]",
        "landmark supernodes route across ASes",
        "repro.overlay.hierarchical",
    ),
    SystemEntry(
        "Plethora", UnderlayInfoType.ISP_LOCATION, "[9]",
        "local + global overlay split along locality boundaries",
        "repro.overlay.hierarchical",
    ),
    SystemEntry(
        "Mithos", UnderlayInfoType.ISP_LOCATION, "[28]",
        "topology-aware embedding for overlay construction",
        "repro.coords.vivaldi",
    ),
    SystemEntry(
        "MBC (measurement-based construction)", UnderlayInfoType.ISP_LOCATION,
        "[35]", "sparing explicit measurement + locality-aware links",
        "repro.collection.measurement",
    ),
    # --- Latency --------------------------------------------------------------
    SystemEntry(
        "Vivaldi", UnderlayInfoType.LATENCY, "[7]",
        "decentralized spring-embedding coordinates",
        "repro.coords.vivaldi",
    ),
    SystemEntry(
        "ICS (Lim et al.)", UnderlayInfoType.LATENCY, "[20]",
        "PCA of a beacon distance matrix; hosts embed locally",
        "repro.coords.ics",
    ),
    SystemEntry(
        "GNP / landmark proximity", UnderlayInfoType.LATENCY, "[26]",
        "landmark embedding",
        "repro.coords.gnp",
    ),
    SystemEntry(
        "gMeasure", UnderlayInfoType.LATENCY, "[23]",
        "group-based network performance measurement",
        "repro.collection.group_measurement",
    ),
    SystemEntry(
        "Genius", UnderlayInfoType.LATENCY, "[23]",
        "location-aware gossip using network coordinates",
        "repro.coords.vivaldi",
    ),
    SystemEntry(
        "eCAN", UnderlayInfoType.LATENCY, "[30]",
        "topology-aware structured overlay (proximity route/neighbor selection)",
        "repro.overlay.chord",
    ),
    SystemEntry(
        "Leopard", UnderlayInfoType.LATENCY, "[33]",
        "geographically scoped hashing joins content and locality",
        "repro.overlay.kademlia.scoped",
    ),
    SystemEntry(
        "Proximity in DHTs", UnderlayInfoType.LATENCY, "[4]",
        "PNS/PR in structured overlays",
        "repro.overlay.kademlia",
    ),
    SystemEntry(
        "Proximity in Kademlia", UnderlayInfoType.LATENCY, "[17]",
        "low-RTT bucket retention (the peer next door)",
        "repro.overlay.kademlia.kbucket",
    ),
    # --- Geolocation -------------------------------------------------------------
    SystemEntry(
        "Globase.KOM", UnderlayInfoType.GEOLOCATION, "[18][19]",
        "hierarchical zone tree, fully retrievable location search",
        "repro.overlay.geo.globase",
    ),
    SystemEntry(
        "GeoPeer", UnderlayInfoType.GEOLOCATION, "[2]",
        "location-constrained queries and dissemination",
        "repro.overlay.geo.queries",
    ),
    # --- Peer resources --------------------------------------------------------------
    SystemEntry(
        "SkyEye.KOM", UnderlayInfoType.PEER_RESOURCES, "[11]",
        "information management over-overlay (oracle view)",
        "repro.collection.skyeye",
    ),
    SystemEntry(
        "Bandwidth-aware P2P-TV scheduling", UnderlayInfoType.PEER_RESOURCES,
        "[6]", "capacity-ordered chunk scheduling in a mesh-pull stream",
        "repro.overlay.streaming",
    ),
    SystemEntry(
        "Capacity-based super-peer election", UnderlayInfoType.PEER_RESOURCES,
        "[11]", "strongest peers take the super-peer role",
        "repro.overlay.superpeer.hybrid",
    ),
)


def systems_by_type(info: UnderlayInfoType) -> list[SystemEntry]:
    """Registry rows for one information type."""
    return [s for s in TABLE1_SYSTEMS if s.info_type == info]

