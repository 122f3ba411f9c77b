"""CDN-provided locality information (Ono; Choffnes & Bustamante [5]).

A content distribution network keeps edge servers near end users and
redirects each client to the edge with the best (latency, load) trade-off.
Ono's insight: two peers that are *redirected to the same edges with
similar frequencies* are close to each other — the CDN has already done
the network measurement, for free.

We model a small synthetic CDN whose edge loads fluctuate over time, an
:meth:`redirect` decision combining latency and load, and the Ono client
side: *ratio maps* (per-peer redirection frequency vectors) compared by
cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collection.base import InfoSource
from repro.errors import CollectionError
from repro.rng import SeedLike, ensure_rng
from repro.underlay.hosts import Host
from repro.underlay.network import Underlay


@dataclass(frozen=True)
class EdgeServer:
    """A CDN edge server placed inside one AS."""
    edge_id: int
    asn: int


class SyntheticCDN(InfoSource):
    """A CDN with ``n_edges`` servers placed in distinct ASes.

    Redirection picks ``argmin(latency_to_edge * (1 + load))`` where each
    edge's load is a smooth pseudo-random function of time — so a client's
    preferred edge changes occasionally, giving ratio maps with more than
    one non-zero entry, as in the real Ono data.
    """

    def __init__(
        self, underlay: Underlay, *, n_edges: int = 10, rng: SeedLike = None
    ) -> None:
        super().__init__()
        if n_edges < 1:
            raise CollectionError("need at least one edge server")
        self.underlay = underlay
        self._rng = ensure_rng(rng)
        eligible = [a.asn for a in underlay.topology.ases]
        if n_edges > len(eligible):
            raise CollectionError(
                f"cannot place {n_edges} edges in {len(eligible)} ASes"
            )
        chosen = self._rng.choice(len(eligible), size=n_edges, replace=False)
        self.edges = [
            EdgeServer(edge_id=i, asn=int(eligible[int(c)]))
            for i, c in enumerate(chosen)
        ]
        # per-edge load oscillation parameters
        self._phase = self._rng.uniform(0, 2 * np.pi, size=n_edges)
        self._freq = self._rng.uniform(0.5, 2.0, size=n_edges)
        self._amp = self._rng.uniform(0.2, 0.8, size=n_edges)

    def _edge_latency(self, host: Host, edge: EdgeServer) -> float:
        """Latency proxy from a host to an edge server: AS-path delay."""
        return (
            host.access_latency_ms
            + self.underlay.latency.as_pair_delay(host.asn, edge.asn)
        )

    def load(self, edge_id: int, t: float) -> float:
        """Edge load in [0, ~1.8] at time ``t`` (hours)."""
        return float(
            self._amp[edge_id] * (1.0 + np.sin(self._freq[edge_id] * t + self._phase[edge_id]))
        )

    def redirect(self, host: Host, t: float = 0.0) -> int:
        """Edge id the CDN sends this client to at time ``t``."""
        self.overhead.charge(queries=1, messages=2, bytes_on_wire=300)
        scores = [
            self._edge_latency(host, e) * (1.0 + self.load(e.edge_id, t))
            for e in self.edges
        ]
        return int(np.argmin(scores))

    # -- Ono client side ----------------------------------------------------------
    def ratio_map(self, host: Host, samples: int = 24, t0: float = 0.0) -> np.ndarray:
        """Redirection frequency vector over ``samples`` lookups spread over
        time (one per simulated hour by default)."""
        if samples < 1:
            raise CollectionError("need at least one sample")
        counts = np.zeros(len(self.edges))
        for k in range(samples):
            counts[self.redirect(host, t0 + float(k))] += 1.0
        return counts / counts.sum()

    @staticmethod
    def cosine_similarity(map_a: np.ndarray, map_b: np.ndarray) -> float:
        a = np.asarray(map_a, dtype=float)
        b = np.asarray(map_b, dtype=float)
        na = float(np.linalg.norm(a))
        nb = float(np.linalg.norm(b))
        if na == 0 or nb == 0:
            return 0.0
        return float(np.dot(a, b) / (na * nb))
