"""The underlay-awareness framework (the survey's proposed architecture)."""

from repro.core.framework import UnderlayAwarenessFramework
from repro.core.ltm import LTMStats, ltm_round, mean_neighbor_delay, run_ltm
from repro.core.qos import (
    BUILTIN_PROFILES,
    FILE_SHARING,
    HYBRID_DIRECTORY,
    LOCATION_SERVICES,
    REAL_TIME,
    QoSProfile,
)
from repro.core.selection import (
    CompositeSelection,
    GeoSelection,
    ISPLocalitySelection,
    LatencySelection,
    NeighborSelection,
    RandomSelection,
    ResourceSelection,
    ScoredSelection,
)
from repro.core.taxonomy import (
    TABLE1_SYSTEMS,
    SystemEntry,
    systems_by_type,
)

__all__ = [
    "BUILTIN_PROFILES",
    "CompositeSelection",
    "FILE_SHARING",
    "GeoSelection",
    "HYBRID_DIRECTORY",
    "ISPLocalitySelection",
    "LOCATION_SERVICES",
    "LTMStats",
    "LatencySelection",
    "NeighborSelection",
    "QoSProfile",
    "REAL_TIME",
    "RandomSelection",
    "ResourceSelection",
    "ScoredSelection",
    "SystemEntry",
    "TABLE1_SYSTEMS",
    "UnderlayAwarenessFramework",
    "ltm_round",
    "mean_neighbor_delay",
    "run_ltm",
    "systems_by_type",
]
