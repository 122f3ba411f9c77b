"""Explicit latency measurement: ping and traceroute (§3.2).

The survey notes that explicit measurement is accurate but "incurs the
network with much overhead" and can congest it when many peers probe at
once — so measurement services here charge every probe to their overhead
counter, letting experiments quantify the accuracy/overhead trade-off
against prediction methods.

``PingService.measure_rtt`` returns the true RTT perturbed by per-probe
queueing noise; averaging over ``probes`` attempts converges to truth,
at proportional cost — the classic accuracy-for-overhead dial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.collection.base import CollectionMethod, InfoSource, UnderlayInfoType
from repro.errors import CollectionError
from repro.rng import SeedLike, ensure_rng
from repro.underlay.autonomous_system import LinkType
from repro.underlay.network import Underlay

#: Conventional sizes: 64-byte ICMP echo, ~52-byte UDP traceroute probe.
PING_BYTES = 64
TRACEROUTE_PROBE_BYTES = 52


@dataclass(frozen=True)
class TracerouteHop:
    """One AS-level hop of a traceroute: AS, cumulative RTT, entry link type."""
    asn: int
    rtt_ms: float
    link_type: LinkType | None  # link used to *enter* this AS; None for hop 0


class PingService(InfoSource):
    """Active RTT probing with per-probe noise and overhead accounting."""

    def __init__(
        self, underlay: Underlay, *, noise_std_ms: float = 2.0, rng: SeedLike = None
    ) -> None:
        super().__init__()
        if noise_std_ms < 0:
            raise CollectionError("noise std must be non-negative")
        self.underlay = underlay
        self.noise_std_ms = noise_std_ms
        self._rng = ensure_rng(rng)

    @property
    def info_type(self) -> UnderlayInfoType:
        return UnderlayInfoType.LATENCY

    @property
    def method(self) -> CollectionMethod:
        return CollectionMethod.EXPLICIT_MEASUREMENT

    def measure_rtt(self, src: int, dst: int, probes: int = 1) -> float:
        """Mean of ``probes`` noisy RTT samples (ms)."""
        if probes < 1:
            raise CollectionError("need at least one probe")
        true_rtt = 2.0 * self.underlay.one_way_delay(src, dst)
        # echo request + reply per probe
        self.overhead.charge(
            queries=1, messages=2 * probes, bytes_on_wire=2 * probes * PING_BYTES
        )
        noise = self._rng.normal(0.0, self.noise_std_ms, size=probes)
        samples = np.maximum(true_rtt + noise, 0.1)
        return float(samples.mean())

    def measure_matrix(
        self, host_ids: Sequence[int], probes: int = 1
    ) -> np.ndarray:
        """Full mesh measurement — the expensive O(n²) pattern the survey
        warns about; prediction methods exist to avoid exactly this."""
        ids = list(host_ids)
        n = len(ids)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                rtt = self.measure_rtt(ids[i], ids[j], probes)
                out[i, j] = out[j, i] = rtt
        return out


class TracerouteService(InfoSource):
    """AS-path discovery with cumulative per-hop RTTs."""

    def __init__(
        self, underlay: Underlay, *, noise_std_ms: float = 1.0, rng: SeedLike = None
    ) -> None:
        super().__init__()
        self.underlay = underlay
        self.noise_std_ms = noise_std_ms
        self._rng = ensure_rng(rng)

    @property
    def info_type(self) -> UnderlayInfoType:
        return UnderlayInfoType.LATENCY

    @property
    def method(self) -> CollectionMethod:
        return CollectionMethod.EXPLICIT_MEASUREMENT

    def trace(self, src: int, dst: int) -> list[TracerouteHop]:
        """Hops of the AS-level route with cumulative RTT estimates."""
        asn_src = self.underlay.asn_of(src)
        asn_dst = self.underlay.asn_of(dst)
        path = self.underlay.routing.path(asn_src, asn_dst)
        total_rtt = 2.0 * self.underlay.one_way_delay(src, dst)
        # three probes per hop, as classic traceroute does
        self.overhead.charge(
            queries=1,
            messages=3 * len(path),
            bytes_on_wire=3 * len(path) * TRACEROUTE_PROBE_BYTES,
        )
        hops: list[TracerouteHop] = []
        for k, asn in enumerate(path):
            frac = (k + 1) / len(path)
            noise = float(self._rng.normal(0.0, self.noise_std_ms))
            link = (
                self.underlay.topology.link_type(path[k - 1], asn) if k > 0 else None
            )
            hops.append(
                TracerouteHop(
                    asn=asn,
                    rtt_ms=max(total_rtt * frac + noise, 0.1),
                    link_type=link,
                )
            )
        return hops

    def as_hop_count(self, src: int, dst: int) -> int:
        """Number of inter-AS links the route crosses."""
        return len(self.trace(src, dst)) - 1
