"""Location-constrained queries and point-of-interest search (GeoPeer [2],
Globase.KOM [19], §2.4).

A :class:`POIDirectory` registers peers as points of interest with
categories ("restaurant", "pharmacy", emergency services [10], ...) and
answers the §2.4 use case *what is near me* on top of a
:class:`GlobaseOverlay`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OverlayError
from repro.overlay.geo.globase import GlobaseOverlay
from repro.underlay.geometry import Position


@dataclass(frozen=True)
class PointOfInterest:
    """A registered point of interest: hosting peer, category, display name."""
    host_id: int
    category: str
    name: str = ""


class POIDirectory:
    """Category index layered over a geo overlay."""

    def __init__(self, overlay: GlobaseOverlay) -> None:
        self.overlay = overlay
        self._by_host: dict[int, list[PointOfInterest]] = {}

    def register(self, poi: PointOfInterest) -> None:
        if poi.host_id not in self.overlay.believed:
            raise OverlayError(
                f"host {poi.host_id} must join the overlay before registering a POI"
            )
        self._by_host.setdefault(poi.host_id, []).append(poi)

    def find_nearest(
        self, pos: Position, category: str, *, k: int = 1, search_k: int = 32
    ) -> list[PointOfInterest]:
        """The ``k`` nearest POIs of a category: nearest-peer search with a
        widening candidate set (``search_k`` peers considered)."""
        if k < 1:
            raise OverlayError("k must be >= 1")
        hosts = self.overlay.nearest_peers(pos, k=search_k)
        matches: list[tuple[float, PointOfInterest]] = []
        for h in hosts:
            for poi in self._by_host.get(h, ()):
                if poi.category == category:
                    d = self.overlay.believed[h].distance_to(pos)
                    matches.append((d, poi))
        matches.sort(key=lambda t: t[0])
        return [poi for _d, poi in matches[:k]]


def emergency_dispatch(
    directory: POIDirectory, caller_pos: Position, *, k: int = 3
) -> list[PointOfInterest]:
    """The EchoP2P use case [10]: find the k nearest emergency responders
    to a caller's position."""
    return directory.find_nearest(caller_pos, "emergency", k=k)
