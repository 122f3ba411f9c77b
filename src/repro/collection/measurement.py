"""Explicit latency measurement: ping (§3.2).

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

from typing import Sequence

import numpy as np

from repro.collection.base import InfoSource
from repro.errors import CollectionError
from repro.rng import SeedLike, ensure_rng
from repro.underlay.network import Underlay

#: Bytes of one ICMP echo request or reply.
PING_BYTES = 64


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

