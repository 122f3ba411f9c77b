"""Gnutella 0.6 overlay with oracle-biased neighbor selection ([1], §4)."""

from repro.overlay.gnutella.flood import FloodKernel
from repro.overlay.gnutella.hostcache import HostCache
from repro.overlay.gnutella.messages import (
    ConnectReply,
    ConnectRequest,
    Query,
)
from repro.overlay.gnutella.network import (
    GnutellaNetwork,
    NeighborPolicy,
    SearchRecord,
)
from repro.overlay.gnutella.node import LEAF, ULTRAPEER, GnutellaConfig, GnutellaNode

__all__ = [
    "ConnectReply",
    "ConnectRequest",
    "FloodKernel",
    "GnutellaConfig",
    "GnutellaNetwork",
    "GnutellaNode",
    "HostCache",
    "LEAF",
    "NeighborPolicy",
    "Query",
    "SearchRecord",
    "ULTRAPEER",
]
