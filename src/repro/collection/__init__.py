"""Collection of underlay information (§3, Figure 3).

The services, by information type of the Figure 3 taxonomy
(:data:`TAXONOMY`):

- ISP-location: :class:`IPToISPMapping`, :class:`ISPOracle` and
  :class:`P4PService` (ISP components), :class:`SyntheticCDN`
  (Ono-style inference).
- Latency: :class:`PingService` (explicit measurement);
  :class:`GroupMeasurement` and :class:`VivaldiGossipService`
  (prediction), with offline coordinates in :mod:`repro.coords`.
- Geolocation: :class:`GPSService`, :class:`IPToLocationMapping`.
- Peer resources: :class:`SkyEyeOverlay`.
"""

from repro.collection.base import (
    TAXONOMY,
    CollectionMethod,
    InfoSource,
    OverheadCounter,
    UnderlayInfoType,
)
from repro.collection.cdn import EdgeServer, SyntheticCDN
from repro.collection.coordinate_service import VivaldiGossipService
from repro.collection.gps import GPSService
from repro.collection.group_measurement import GroupMeasurement
from repro.collection.ip_mapping import IPToISPMapping, IPToLocationMapping
from repro.collection.measurement import PING_BYTES, PingService
from repro.collection.oracle import ISPOracle, OraclePolicy
from repro.collection.p4p import P4PPolicy, P4PService
from repro.collection.skyeye import AggregateStats, SkyEyeOverlay

__all__ = [
    "AggregateStats",
    "CollectionMethod",
    "EdgeServer",
    "GPSService",
    "GroupMeasurement",
    "IPToISPMapping",
    "IPToLocationMapping",
    "ISPOracle",
    "InfoSource",
    "OraclePolicy",
    "OverheadCounter",
    "P4PPolicy",
    "P4PService",
    "PING_BYTES",
    "PingService",
    "SkyEyeOverlay",
    "SyntheticCDN",
    "TAXONOMY",
    "UnderlayInfoType",
    "VivaldiGossipService",
]
