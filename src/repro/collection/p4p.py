"""P4P: explicit ISP/P2P cooperation (Xie et al. [29]).

Where the oracle of [1] only *ranks* candidate lists, P4P's iTracker
exposes the ISP's view as numbers: the network is partitioned into PIDs
(here: one PID per AS) and the iTracker publishes **p-distances** between
PIDs that encode the provider's routing policy and link economics —
intra-PID cheapest, peering links cheap, transit links expensive, with a
congestion surcharge on heavily used links.

Applications (appTrackers) fetch the p-distance map and weight their peer
selection by it, which lets the ISP steer P2P traffic without revealing
raw topology (§6 "ISP internal information" — only aggregate costs leave
the network).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.collection.base import CollectionMethod, InfoSource, UnderlayInfoType
from repro.errors import CollectionError
from repro.rng import SeedLike, ensure_rng
from repro.underlay.autonomous_system import LinkType
from repro.underlay.network import Underlay


@dataclass(frozen=True)
class P4PPolicy:
    """Per-link-class policy costs used to build p-distances."""

    intra_pid_cost: float = 1.0
    peering_link_cost: float = 5.0
    transit_link_cost: float = 20.0

    def __post_init__(self) -> None:
        if min(self.intra_pid_cost, self.peering_link_cost,
               self.transit_link_cost) < 0:
            raise CollectionError("policy costs must be non-negative")
        if not (
            self.intra_pid_cost
            <= self.peering_link_cost
            <= self.transit_link_cost
        ):
            raise CollectionError(
                "expected intra <= peering <= transit cost ordering"
            )


class P4PService(InfoSource):
    """The iTracker: PID assignment + p-distance map + peer weighting."""

    def __init__(
        self,
        underlay: Underlay,
        policy: P4PPolicy | None = None,
        *,
        congestion: Optional[Mapping[tuple[int, int], float]] = None,
    ) -> None:
        super().__init__()
        self.underlay = underlay
        self.policy = policy or P4PPolicy()
        #: optional per-link congestion surcharges keyed by (min, max) ASN
        self.congestion = dict(congestion or {})
        self._pdistance = self._build_pdistance_matrix()

    @property
    def info_type(self) -> UnderlayInfoType:
        return UnderlayInfoType.ISP_LOCATION

    @property
    def method(self) -> CollectionMethod:
        return CollectionMethod.ISP_COMPONENT_IN_NETWORK

    # -- PID plane -------------------------------------------------------------
    def my_pid(self, host_id: int) -> int:
        """PID of a host (PIDs are ASNs in this deployment)."""
        return self.underlay.asn_of(host_id)

    def _link_cost(self, a: int, b: int, link_type: LinkType) -> float:
        base = (
            self.policy.peering_link_cost
            if link_type is LinkType.PEERING
            else self.policy.transit_link_cost
        )
        return base + self.congestion.get((min(a, b), max(a, b)), 0.0)

    def _build_pdistance_matrix(self) -> np.ndarray:
        n = self.underlay.topology.n_ases
        mat = np.zeros((n, n))
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    mat[src, dst] = self.policy.intra_pid_cost
                    continue
                cost = 0.0
                for a, b, t in self.underlay.routing.path_links(src, dst):
                    cost += self._link_cost(a, b, t)
                mat[src, dst] = cost
        # policy costs are symmetric up to routing asymmetry; publish the max
        # (an ISP charges for the worse direction)
        return np.maximum(mat, mat.T)

    def pdistance(self, pid_a: int, pid_b: int) -> float:
        """Published p-distance between two PIDs."""
        self.overhead.charge(queries=1, messages=2, bytes_on_wire=96)
        return float(self._pdistance[pid_a, pid_b])

    def pdistance_map(self, pid: int) -> dict[int, float]:
        """The row an appTracker fetches for one PID (one bulk transfer)."""
        n = self.underlay.topology.n_ases
        self.overhead.charge(queries=1, messages=2, bytes_on_wire=32 + 12 * n)
        return {other: float(self._pdistance[pid, other]) for other in range(n)}

    # -- appTracker side ----------------------------------------------------------
    def rank_peers(self, host_id: int, candidates: Sequence[int]) -> list[int]:
        """Candidates ordered by ascending p-distance (stable on ties)."""
        my = self.my_pid(host_id)
        row = self.pdistance_map(my)
        keyed = [
            (row[self.my_pid(c)], i, c) for i, c in enumerate(candidates)
        ]
        keyed.sort()
        return [c for _d, _i, c in keyed]

    def selection_weights(
        self, host_id: int, candidates: Sequence[int], *, softness: float = 1.0
    ) -> np.ndarray:
        """Probabilistic peer weighting ∝ exp(−pdistance/softness·scale):
        P4P guidance is a preference, not a hard filter, so distant peers
        keep nonzero probability (connectivity!)."""
        if softness <= 0:
            raise CollectionError("softness must be positive")
        cand = list(candidates)
        if not cand:
            return np.zeros(0)
        my = self.my_pid(host_id)
        row = self.pdistance_map(my)
        d = np.array([row[self.my_pid(c)] for c in cand])
        scale = max(float(np.median(d)), 1e-9)
        z = -d / (softness * scale)
        w = np.exp(z)
        if not w.all():
            # the far candidates underflowed to 0: shift so the nearest
            # weighs 1, and floor the rest at the smallest normal float
            w = np.maximum(np.exp(z - z.max()), np.finfo(float).tiny)
        return w / w.sum()

    def pick_peers(
        self,
        host_id: int,
        candidates: Sequence[int],
        k: int,
        *,
        softness: float = 1.0,
        rng: SeedLike = None,
    ) -> list[int]:
        """Sample ``k`` distinct peers by the P4P weights."""
        cand = list(candidates)
        k = min(k, len(cand))
        if k == 0:
            return []
        rng = ensure_rng(rng)
        w = self.selection_weights(host_id, cand, softness=softness)
        idx = rng.choice(len(cand), size=k, replace=False, p=w)
        return [cand[int(i)] for i in idx]

    # -- ISP-side knob ----------------------------------------------------------------
    def set_congestion(self, link: tuple[int, int], surcharge: float) -> None:
        """ISP raises the published cost of a congested link; the matrix is
        rebuilt (iTrackers refresh their maps periodically)."""
        if surcharge < 0:
            raise CollectionError("surcharge must be non-negative")
        self.congestion[(min(link), max(link))] = surcharge
        self._pdistance = self._build_pdistance_matrix()
