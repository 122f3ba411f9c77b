"""Satellite positioning (GPS/Galileo/GLONASS) geolocation source (§3.3).

A GPS receiver reports the host's position with metre-scale Gaussian error
— far more precise than IP-to-location mapping — but is only *available*
for a fraction of peers (indoor desktops have no fix).  The availability
draw is deterministic per host.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.collection.base import InfoSource
from repro.errors import CollectionError
from repro.underlay.geometry import Position
from repro.underlay.network import Underlay


class GPSService(InfoSource):
    """Satellite-positioning geolocation source (precise, partial coverage)."""
    def __init__(
        self,
        underlay: Underlay,
        *,
        error_m: float = 10.0,
        availability: float = 0.6,
        seed: int = 17,
    ) -> None:
        super().__init__()
        if error_m < 0:
            raise CollectionError("error_m must be non-negative")
        if not (0.0 <= availability <= 1.0):
            raise CollectionError("availability must be a probability")
        self.underlay = underlay
        self.error_m = error_m
        self.availability = availability
        self._seed = seed

    def has_fix(self, host_id: int) -> bool:
        rng = np.random.default_rng(self._seed * 1_000_003 + host_id)
        return bool(rng.random() < self.availability)

    def position_of(self, host_id: int) -> Optional[Position]:
        """UTM-plane position with receiver noise; ``None`` without a fix.

        GPS is local to the device: no network overhead is charged."""
        self.overhead.charge(queries=1)
        if not self.has_fix(host_id):
            return None
        true_pos = self.underlay.host(host_id).position
        rng = np.random.default_rng(self._seed * 2_000_003 + host_id)
        dx, dy = rng.normal(0.0, self.error_m / 1000.0, size=2)  # km
        return Position(true_pos.x + dx, true_pos.y + dy)
