"""BitTorrent swarm with biased neighbor selection (Bindal et al. [3]) and
cost-aware choking (CAT, Yamazaki et al. [32]).

Two data planes share the control-plane mechanics (tracker policies,
tit-for-tat rechoke): the exact time-stepped
:class:`SwarmSimulation` and
the flow-level :class:`FlowSwarmSimulation`, which scales locality
sweeps to thousands of peers via max-min fair rate allocation.
"""

from repro.overlay.bittorrent.flowswarm import (
    FlowPlaneConfig,
    FlowSwarmSimulation,
)
from repro.overlay.bittorrent.peer import SwarmConfig, SwarmPeer
from repro.overlay.bittorrent.swarm import SwarmReport, SwarmSimulation
from repro.overlay.bittorrent.torrent import Bitfield, Torrent
from repro.overlay.bittorrent.tracker import Tracker, TrackerPolicy

__all__ = [
    "Bitfield",
    "FlowPlaneConfig",
    "FlowSwarmSimulation",
    "SwarmConfig",
    "SwarmPeer",
    "SwarmReport",
    "SwarmSimulation",
    "Torrent",
    "Tracker",
    "TrackerPolicy",
]
