"""Collection taxonomy (Figure 3) and the common InfoSource interface.

Figure 3 classifies underlay information along two axes: *what* is
collected (:class:`UnderlayInfoType`) and *how* (:class:`CollectionMethod`).
:data:`TAXONOMY` is the one copy of that figure; FIG3 measures one
technique per edge of it.  Every concrete service in this package
accounts its own overhead (queries made, bytes on the wire), so
experiments can compare collection techniques on accuracy *and* cost —
the trade-off the survey's §3 discusses qualitatively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class UnderlayInfoType(enum.Enum):
    """The four kinds of underlay information (§2)."""

    ISP_LOCATION = "isp-location"
    LATENCY = "latency"
    GEOLOCATION = "geolocation"
    PEER_RESOURCES = "peer-resources"


class CollectionMethod(enum.Enum):
    """The collection techniques of Figure 3."""

    IP_TO_ISP_MAPPING = "ip-to-isp-mapping"
    ISP_COMPONENT_IN_NETWORK = "isp-component-in-network"
    CDN_PROVIDED = "cdn-provided-information"
    EXPLICIT_MEASUREMENT = "explicit-measurements"
    PREDICTION = "prediction-methods"
    GPS = "gps"
    IP_TO_LOCATION_MAPPING = "ip-to-location-mapping"
    INFO_MANAGEMENT_OVERLAY = "information-management-overlay"


#: Figure 3 edges: which methods collect which info type.
TAXONOMY: dict[UnderlayInfoType, tuple[CollectionMethod, ...]] = {
    UnderlayInfoType.ISP_LOCATION: (
        CollectionMethod.IP_TO_ISP_MAPPING,
        CollectionMethod.ISP_COMPONENT_IN_NETWORK,
        CollectionMethod.CDN_PROVIDED,
    ),
    UnderlayInfoType.LATENCY: (
        CollectionMethod.EXPLICIT_MEASUREMENT,
        CollectionMethod.PREDICTION,
    ),
    UnderlayInfoType.GEOLOCATION: (
        CollectionMethod.GPS,
        CollectionMethod.IP_TO_LOCATION_MAPPING,
    ),
    UnderlayInfoType.PEER_RESOURCES: (
        CollectionMethod.INFO_MANAGEMENT_OVERLAY,
    ),
}


@dataclass
class OverheadCounter:
    """Per-service overhead bookkeeping."""

    queries: int = 0
    messages: int = 0
    bytes_on_wire: int = 0

    def charge(self, *, queries: int = 0, messages: int = 0, bytes_on_wire: int = 0) -> None:
        self.queries += queries
        self.messages += messages
        self.bytes_on_wire += bytes_on_wire


class InfoSource:
    """A concrete collection service: carries an :class:`OverheadCounter`."""

    def __init__(self) -> None:
        self.overhead = OverheadCounter()
