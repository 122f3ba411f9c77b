"""The underlay-awareness framework: collection plugged into usage.

The survey's concluding open issue — "the development of a general
architecture for underlay awareness in which different underlay
information can be collected and used" — is this class.  It:

1. registers one collection service per information type (Figure 3),
2. adapts each service into a neighbor-selection strategy (§4), and
3. combines strategies per application QoS profile into a composite
   selector, exposing a single ``select_neighbors`` entry point that any
   overlay can call, plus an aggregated overhead report so the cost of
   awareness stays visible.

Example
-------
>>> from repro.underlay import Underlay, UnderlayConfig
>>> from repro.collection import ISPOracle
>>> from repro.core import UnderlayAwarenessFramework, REAL_TIME
>>> u = Underlay.generate(UnderlayConfig(n_hosts=30, seed=1))
>>> fw = UnderlayAwarenessFramework(u)
>>> fw.use_oracle(ISPOracle(u))
>>> fw.use_true_latency()
>>> ids = u.host_ids()
>>> picked = fw.select_neighbors(ids[0], ids[1:], k=5, profile=REAL_TIME)
>>> len(picked)
5
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.collection.base import InfoSource, OverheadCounter, UnderlayInfoType
from repro.collection.gps import GPSService
from repro.collection.ip_mapping import IPToISPMapping, IPToLocationMapping
from repro.collection.measurement import PingService
from repro.collection.oracle import ISPOracle
from repro.collection.skyeye import SkyEyeOverlay
from repro.coords.base import CoordinateSystem
from repro.core.qos import QoSProfile
from repro.core.selection import (
    CompositeSelection,
    GeoSelection,
    ISPLocalitySelection,
    LatencySelection,
    NeighborSelection,
    RandomSelection,
    ResourceSelection,
)
from repro.errors import ConfigurationError
from repro.underlay.geometry import Position
from repro.underlay.network import Underlay


class UnderlayAwarenessFramework:
    """Registry of collection services + per-profile neighbor selection."""

    def __init__(self, underlay: Underlay) -> None:
        self.underlay = underlay
        self._strategies: dict[UnderlayInfoType, NeighborSelection] = {}
        self._sources: list[InfoSource] = []

    # -- registration: one helper per Figure 3 technique ---------------------------
    def use_oracle(self, oracle: ISPOracle) -> None:
        """ISP-location via the in-network oracle component."""
        self._strategies[UnderlayInfoType.ISP_LOCATION] = ISPLocalitySelection(
            self.underlay, oracle=oracle
        )
        self._sources.append(oracle)

    def use_ip_mapping(self, mapping: IPToISPMapping) -> None:
        """ISP-location via a client-side mapping database."""
        self._strategies[UnderlayInfoType.ISP_LOCATION] = ISPLocalitySelection(
            self.underlay, mapping=mapping
        )
        self._sources.append(mapping)

    def use_coordinates(
        self,
        predictor: Callable[[int, int], float],
        source: Optional[InfoSource] = None,
        *,
        batch_predictor: Optional[Callable] = None,
    ) -> None:
        """Latency via a prediction method (e.g. Vivaldi/ICS estimate).

        ``batch_predictor(src, candidates) -> array`` (e.g. the system's
        ``estimate_many``) lets rankings evaluate all candidates in one
        vectorised call; it must agree with ``predictor`` value for value.
        """
        self._strategies[UnderlayInfoType.LATENCY] = LatencySelection(
            predictor, batch_predictor=batch_predictor
        )
        if source is not None:
            self._sources.append(source)

    def use_ping(self, ping: PingService) -> None:
        """Latency via explicit measurement (accurate, costly)."""
        self._strategies[UnderlayInfoType.LATENCY] = LatencySelection(
            lambda a, b: ping.measure_rtt(a, b)
        )
        self._sources.append(ping)

    def use_true_latency(self) -> None:
        """Latency from the underlay itself — the zero-error upper bound,
        useful as an experimental control.  Batched: one latency-matrix
        row gather per ranked list."""
        self._strategies[UnderlayInfoType.LATENCY] = LatencySelection.from_underlay(
            self.underlay
        )

    def use_gps(self, gps: GPSService) -> None:
        self._strategies[UnderlayInfoType.GEOLOCATION] = GeoSelection(
            gps.position_of
        )
        self._sources.append(gps)

    def use_ip_location(self, mapping: IPToLocationMapping) -> None:
        self._strategies[UnderlayInfoType.GEOLOCATION] = GeoSelection(
            lambda hid: mapping.lookup(hid)
        )
        self._sources.append(mapping)

    def use_skyeye(self, sky: SkyEyeOverlay) -> None:
        """Peer resources via the information management overlay.  Uses the
        capacity scores reported in the last aggregation round."""
        self._strategies[UnderlayInfoType.PEER_RESOURCES] = (
            ResourceSelection.from_underlay(self.underlay)
        )
        self._sources.append(sky)

    def use_resource_records(self) -> None:
        """Peer resources straight from host records (control condition)."""
        self._strategies[UnderlayInfoType.PEER_RESOURCES] = (
            ResourceSelection.from_underlay(self.underlay)
        )

    # -- queries ---------------------------------------------------------------------
    def available_info(self) -> set[UnderlayInfoType]:
        return set(self._strategies)

    def strategy_for(self, info: UnderlayInfoType) -> NeighborSelection:
        try:
            return self._strategies[info]
        except KeyError:
            raise ConfigurationError(
                f"no collection service registered for {info.value}; "
                f"available: {[t.value for t in self._strategies]}"
            ) from None

    def selector_for(self, profile: QoSProfile) -> NeighborSelection:
        """Build the composite selector for an application profile from the
        registered strategies.  Every profile weight must be backed by a
        registered service — awareness cannot be conjured from nothing."""
        components = [
            (self.strategy_for(info), weight)
            for info, weight in profile.weights.items()
            if weight > 0
        ]
        if len(components) == 1:
            return components[0][0]
        return CompositeSelection(components)

    def select_neighbors(
        self,
        querying_host: int,
        candidates: Sequence[int],
        k: int,
        profile: QoSProfile,
    ) -> list[int]:
        """The framework's single entry point for overlays."""
        return self.selector_for(profile).select(querying_host, candidates, k)

    def baseline_selector(self, rng=None) -> NeighborSelection:
        """Underlay-oblivious control."""
        return RandomSelection(rng)

    # -- accounting --------------------------------------------------------------------
    def overhead_report(self) -> dict[str, OverheadCounter]:
        """Aggregated collection overhead per registered service."""
        return {type(s).__name__: s.overhead for s in self._sources}

    def total_overhead_bytes(self) -> int:
        return sum(s.overhead.bytes_on_wire for s in self._sources)
