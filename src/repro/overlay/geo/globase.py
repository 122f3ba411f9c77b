"""Globase.KOM-style geolocation overlay (Kovacevic et al. [19]).

A hierarchical tree-based P2P system for *fully retrievable* location-based
search: peers are organised into geographic zones (an adaptive quadtree),
each zone run by a supernode; queries descend the tree pruning zones that
cannot contain results.  Peers obtain their own position from one of the
geolocation sources of §3.3 (GPS or IP-to-location mapping), so overlay
placement quality inherits the collection technique's accuracy — which is
exactly the coupling the survey highlights.

The overlay tracks per-operation hop and node-visit counts; Table 2's
"Geolocation" column reads the recall of its area queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.overlay.geo.zones import Rect, ZoneTree
from repro.underlay.geometry import Position
from repro.underlay.network import Underlay

#: a generous bounding box around the generated plane (km)
WORLD = Rect(-1e4, -1e4, 2e4, 2e4)


@dataclass
class GeoOpStats:
    """Hop/visit accounting across overlay operations."""

    joins: int = 0
    join_hops: int = 0
    area_queries: int = 0
    area_nodes_visited: int = 0
    nn_queries: int = 0
    nn_nodes_visited: int = 0

    @property
    def mean_area_visits(self) -> float:
        return self.area_nodes_visited / self.area_queries if self.area_queries else 0.0


class GlobaseOverlay:
    """Quadtree-of-zones overlay with location-constrained search."""

    def __init__(
        self,
        underlay: Underlay,
        *,
        zone_capacity: int = 8,
        position_source: Optional[Callable[[int], Optional[Position]]] = None,
    ) -> None:
        self.underlay = underlay
        self.tree = ZoneTree(WORLD, capacity=zone_capacity)
        #: where the overlay believes each peer is (possibly from a noisy
        #: geolocation source); true positions stay in the underlay.
        self.position_source = position_source or (
            lambda hid: self.underlay.host(hid).position
        )
        self.believed: dict[int, Position] = {}
        self.stats = GeoOpStats()

    # -- membership -----------------------------------------------------------
    def join(self, host_id: int) -> bool:
        """Insert a peer at its believed position.  Returns False when the
        geolocation source has no fix for the peer (it cannot join a
        geo-overlay without a position)."""
        pos = self.position_source(host_id)
        if pos is None:
            return False
        hops = self.tree.insert(host_id, pos)
        self.believed[host_id] = pos
        self.stats.joins += 1
        self.stats.join_hops += hops
        return True

    def join_all(self, host_ids: Optional[list[int]] = None) -> int:
        """Join many peers; returns how many succeeded."""
        ids = host_ids if host_ids is not None else self.underlay.host_ids()
        return sum(1 for h in ids if self.join(h))

    # -- queries ----------------------------------------------------------------
    def peers_in_area(self, area: Rect) -> list[int]:
        found, visited = self.tree.search_area(area)
        self.stats.area_queries += 1
        self.stats.area_nodes_visited += visited
        return found

    def nearest_peers(self, pos: Position, k: int = 1) -> list[int]:
        found, visited = self.tree.nearest(pos, k)
        self.stats.nn_queries += 1
        self.stats.nn_nodes_visited += visited
        return found

    # -- evaluation helpers ------------------------------------------------------
    def recall_of_area_query(self, area: Rect) -> float:
        """Fraction of peers *truly* inside the area that the overlay
        returns — degraded by geolocation error, the §3.3 accuracy story."""
        truly = {
            h.host_id
            for h in self.underlay.hosts
            if h.host_id in self.believed and area.contains(h.position)
        }
        if not truly:
            return 1.0
        got = set(self.peers_in_area(area))
        return len(got & truly) / len(truly)

    def zone_count(self) -> int:
        return sum(1 for _ in self.tree.leaves())

    def geographic_neighbor_coherence(self) -> float:
        """Mean geographic distance (km) between zone co-members — low
        values mean the overlay clusters geographically close peers, the
        property §2.4 asks of geolocation-aware overlays."""
        dists: list[float] = []
        for leaf in self.tree.leaves():
            ids = list(leaf.members)
            for i, a in enumerate(ids):
                pa = self.underlay.host(a).position
                for b in ids[i + 1 :]:
                    dists.append(pa.distance_to(self.underlay.host(b).position))
        return float(np.mean(dists)) if dists else 0.0
