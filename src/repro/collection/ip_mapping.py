"""IP-to-ISP and IP-to-Location mapping services (§3.1 / §3.3).

Models commercial/non-commercial databases like IP2Location / IPGEO:
a central lookup keyed by the peer's address.  Both services are
deliberately imperfect:

- the ISP mapping misattributes a configurable fraction of peers to a
  *neighbouring* AS (stale WHOIS blocks, address reassignment);
- the location mapping returns only a coarse area — a position drawn
  around the true one with a configurable error radius, matching the
  survey's note that "this method is less accurate and thus gives only a
  rough geographical area".

The mistakes are deterministic per host (seeded by host id), mimicking a
database that is consistently wrong about the same addresses.
"""

from __future__ import annotations

import numpy as np

from repro.collection.base import InfoSource
from repro.errors import CollectionError
from repro.underlay.geometry import Position
from repro.underlay.network import Underlay


class IPToISPMapping(InfoSource):
    """Address → ASN lookup with configurable accuracy."""

    def __init__(
        self, underlay: Underlay, *, accuracy: float = 0.98, seed: int = 11
    ) -> None:
        super().__init__()
        if not (0.0 <= accuracy <= 1.0):
            raise CollectionError("accuracy must be a probability")
        self.underlay = underlay
        self.accuracy = accuracy
        self._seed = seed

    def lookup(self, host_id: int) -> int:
        """Return the (possibly wrong) ASN for a host."""
        self.overhead.charge(queries=1, messages=2, bytes_on_wire=128)
        true_asn = self.underlay.asn_of(host_id)
        rng = np.random.default_rng(self._seed * 1_000_003 + host_id)
        if rng.random() < self.accuracy:
            return true_asn
        # misattribute to a topological neighbour of the true AS
        neighbours = sorted(self.underlay.topology.graph.neighbors(true_asn))
        if not neighbours:
            return true_asn
        return int(neighbours[rng.integers(len(neighbours))])

    def error_rate(self, host_ids: list[int]) -> float:
        """Measured fraction of wrong answers over a host sample."""
        if not host_ids:
            return 0.0
        wrong = sum(
            self.lookup(h) != self.underlay.asn_of(h) for h in host_ids
        )
        return wrong / len(host_ids)


class IPToLocationMapping(InfoSource):
    """Address → coarse geographic position lookup."""

    def __init__(
        self, underlay: Underlay, *, error_km: float = 150.0, seed: int = 13
    ) -> None:
        super().__init__()
        if error_km < 0:
            raise CollectionError("error_km must be non-negative")
        self.underlay = underlay
        self.error_km = error_km
        self._seed = seed

    def lookup(self, host_id: int) -> Position:
        """Coarse position for a host (deterministic per host)."""
        self.overhead.charge(queries=1, messages=2, bytes_on_wire=160)
        true_pos = self.underlay.host(host_id).position
        rng = np.random.default_rng(self._seed * 1_000_003 + host_id)
        dx, dy = rng.normal(0.0, self.error_km, size=2)
        return Position(true_pos.x + dx, true_pos.y + dy)

    def median_error_km(self, host_ids: list[int]) -> float:
        """Measured localisation error over a host sample."""
        errs = [
            self.lookup(h).distance_to(self.underlay.host(h).position)
            for h in host_ids
        ]
        return float(np.median(errs)) if errs else 0.0
