"""gMeasure: group-based network performance measurement (Zhang et al. [34]).

Instead of every peer probing every other (O(n²)) or learning coordinates,
gMeasure groups peers (here: by AS), elects one *representative* per
group, measures the small representative-to-representative mesh plus each
member's RTT to its own representative, and estimates any pair's RTT by
composition::

    rtt(a, b) ≈ rtt(a, rep_A) + rtt(rep_A, rep_B) + rtt(rep_B, b)

Measurement cost is O(G² + N) probes for N peers in G groups — between
full-mesh measurement and coordinate prediction in both cost and accuracy,
which is exactly where the survey's §3.2 places group-based methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.collection.base import InfoSource
from repro.collection.measurement import PingService
from repro.errors import CollectionError
from repro.rng import SeedLike, ensure_rng, spawn
from repro.underlay.network import Underlay


class GroupMeasurement(InfoSource):
    """AS-grouped RTT estimation with accounted probing."""

    def __init__(
        self,
        underlay: Underlay,
        *,
        ping: Optional[PingService] = None,
        probes: int = 2,
        calibration_pairs: int = 20,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if probes < 1:
            raise CollectionError("probes must be >= 1")
        if calibration_pairs < 0:
            raise CollectionError("calibration_pairs must be non-negative")
        self.underlay = underlay
        self._rng = ensure_rng(rng)
        # probe noise draws from a child stream: seeding the ping service
        # with ``rng`` itself would replay this source's election draws
        (ping_rng,) = spawn(self._rng, 1)
        self.ping = ping or PingService(underlay, rng=ping_rng)
        self.probes = probes
        self.calibration_pairs = calibration_pairs
        self._rep_of_group: dict[int, int] = {}
        self._group_of: dict[int, int] = {}
        self._to_rep: dict[int, float] = {}
        self._rep_mesh: dict[tuple[int, int], float] = {}
        #: deflation for the relay-composition overestimate (legs pay the
        #: representatives' access latency twice); fitted from a handful of
        #: directly measured pairs during build()
        self.beta = 1.0
        self.built = False

    # -- measurement phase ---------------------------------------------------------
    def build(self, host_ids: Optional[Sequence[int]] = None) -> None:
        """Elect representatives and run the O(G² + N) measurement.

        Every probe goes through :attr:`ping`; its messages and bytes
        are charged to this source's :attr:`overhead` too, with one
        query per build."""
        probed = self.ping.overhead
        messages, bytes_on_wire = probed.messages, probed.bytes_on_wire
        ids = list(host_ids) if host_ids is not None else self.underlay.host_ids()
        if len(ids) < 2:
            raise CollectionError("need at least two hosts")
        groups: dict[int, list[int]] = {}
        for hid in ids:
            groups.setdefault(self.underlay.asn_of(hid), []).append(hid)
        self._group_of = {
            hid: self.underlay.asn_of(hid) for hid in ids
        }
        # representative: random member (the paper uses capability-based
        # election; any stable member works for the estimate structure)
        self._rep_of_group = {
            g: members[int(self._rng.integers(len(members)))]
            for g, members in groups.items()
        }
        # member -> representative legs
        self._to_rep = {}
        for hid in ids:
            rep = self._rep_of_group[self._group_of[hid]]
            self._to_rep[hid] = (
                0.0 if hid == rep else self.ping.measure_rtt(hid, rep, self.probes)
            )
        # representative mesh
        reps = sorted(self._rep_of_group)
        self._rep_mesh = {}
        for i, ga in enumerate(reps):
            for gb in reps[i + 1 :]:
                rtt = self.ping.measure_rtt(
                    self._rep_of_group[ga], self._rep_of_group[gb], self.probes
                )
                self._rep_mesh[(ga, gb)] = rtt
                self._rep_mesh[(gb, ga)] = rtt
        self.built = True
        # calibration: measure a few random pairs directly and deflate the
        # composed estimate by the observed ratio
        if self.calibration_pairs and len(ids) >= 2:
            ratios = []
            for _ in range(self.calibration_pairs):
                i, j = self._rng.choice(len(ids), size=2, replace=False)
                a, b = ids[int(i)], ids[int(j)]
                raw = self._raw_estimate(a, b)
                if raw <= 0:
                    continue
                ratios.append(self.ping.measure_rtt(a, b, self.probes) / raw)
            if ratios:
                self.beta = float(np.median(ratios))
        self.overhead.charge(
            queries=1,
            messages=probed.messages - messages,
            bytes_on_wire=probed.bytes_on_wire - bytes_on_wire,
        )

    # -- estimation ---------------------------------------------------------------------
    def _raw_estimate(self, host_a: int, host_b: int) -> float:
        if host_a == host_b:
            return 0.0
        ga, gb = self._group_of[host_a], self._group_of[host_b]
        # float addition is commutative but not associative: sum the two
        # legs first so estimate(a, b) == estimate(b, a) bit-for-bit
        legs = self._to_rep[host_a] + self._to_rep[host_b]
        if ga == gb:
            # intra-group: triangulate through the representative
            return legs
        return legs + self._rep_mesh[(ga, gb)]

    def estimate(self, host_a: int, host_b: int) -> float:
        """Estimated RTT between two measured hosts (ms)."""
        if not self.built:
            raise CollectionError("call build() before estimating")
        if host_a not in self._group_of or host_b not in self._group_of:
            raise CollectionError("host was not part of the measured set")
        return self.beta * self._raw_estimate(host_a, host_b)

    def estimated_matrix(self, host_ids: Sequence[int]) -> np.ndarray:
        ids = list(host_ids)
        n = len(ids)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = self.estimate(ids[i], ids[j])
        return out
