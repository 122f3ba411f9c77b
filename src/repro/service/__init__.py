"""Service layer: arrival processes, load drivers, and the bootstrapper.

Everything experiments and operators need to treat a simulated overlay
as a running *service*: seeded arrival-process generators
(:mod:`~repro.service.arrivals`), open-/closed-loop load drivers with
SLO percentile reports (:mod:`~repro.service.load`), per-protocol
operation adapters (:mod:`~repro.service.ops`), and the bootstrapper
control plane (:mod:`~repro.service.bootstrap`).
"""

from repro.service.arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalProcess,
    DiurnalArrivals,
    ParetoArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.service.bootstrap import Bootstrapper, ServiceConfig
from repro.service.load import (
    ClosedLoopDriver,
    LoadReport,
    OpenLoopDriver,
    OpRecord,
    OpSpec,
)
from repro.service.ops import GnutellaServiceOps, KademliaServiceOps

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalProcess",
    "Bootstrapper",
    "ClosedLoopDriver",
    "DiurnalArrivals",
    "GnutellaServiceOps",
    "KademliaServiceOps",
    "LoadReport",
    "OpRecord",
    "OpSpec",
    "OpenLoopDriver",
    "ParetoArrivals",
    "PoissonArrivals",
    "ServiceConfig",
    "make_arrivals",
]
