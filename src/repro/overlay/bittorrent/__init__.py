"""BitTorrent swarm with biased neighbor selection (Bindal et al. [3]) and
cost-aware choking (CAT, Yamazaki et al. [32]).

One data plane: the flow-level :class:`FlowSwarmSimulation`, an
event-driven control plane (tracker policies, tit-for-tat rechoke) over
max-min fair rate allocation, which scales locality sweeps to thousands
of peers.  An exact piece-level, time-stepped swarm lives in
``tests/bittorrent_reference.py`` as its oracle.
"""

from repro.overlay.bittorrent.flowswarm import (
    FlowPlaneConfig,
    FlowSwarmSimulation,
    SwarmConfig,
    SwarmReport,
)
from repro.overlay.bittorrent.torrent import Torrent
from repro.overlay.bittorrent.tracker import Tracker, TrackerPolicy

__all__ = [
    "FlowPlaneConfig",
    "FlowSwarmSimulation",
    "SwarmConfig",
    "SwarmReport",
    "Torrent",
    "Tracker",
    "TrackerPolicy",
]
