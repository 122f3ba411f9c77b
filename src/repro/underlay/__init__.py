"""Synthetic Internet underlay: AS topology, routing, latency, hosts,
traffic accounting and ISP economics.

Quick path::

    from repro.underlay import Underlay, UnderlayConfig
    u = Underlay.generate(UnderlayConfig(n_hosts=100, seed=1))
"""

from repro.underlay.autonomous_system import AutonomousSystem, LinkType, Tier
from repro.underlay.cost import CostModel, CostParams, TransitBillingLedger
from repro.underlay.geometry import Position, pairwise_distances
from repro.underlay.hosts import ACCESS_CLASSES, Host, HostFactory, PeerResources
from repro.underlay.latency import (
    LatencyConfig,
    LatencyModel,
    StreamingDelayKernel,
    pair_jitter,
)
from repro.underlay.mobility import (
    MobilityConfig,
    MobilityTrace,
    cached_info_accuracy,
    generate_mobility,
    refresh_tradeoff,
)
from repro.underlay.network import MATRIX_HOST_CAP, Underlay, UnderlayConfig
from repro.underlay.routing import ASRouting
from repro.underlay.topology import InternetTopology, TopologyConfig, generate_topology
from repro.underlay.traffic import TrafficAccountant, TrafficSummary

__all__ = [
    "ACCESS_CLASSES",
    "ASRouting",
    "AutonomousSystem",
    "CostModel",
    "CostParams",
    "Host",
    "HostFactory",
    "InternetTopology",
    "LatencyConfig",
    "LatencyModel",
    "LinkType",
    "MATRIX_HOST_CAP",
    "MobilityConfig",
    "MobilityTrace",
    "PeerResources",
    "Position",
    "StreamingDelayKernel",
    "Tier",
    "TopologyConfig",
    "TrafficAccountant",
    "TrafficSummary",
    "TransitBillingLedger",
    "Underlay",
    "UnderlayConfig",
    "cached_info_accuracy",
    "generate_mobility",
    "generate_topology",
    "pair_jitter",
    "pairwise_distances",
    "refresh_tradeoff",
]
