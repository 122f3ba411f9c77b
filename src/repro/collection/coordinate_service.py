"""Live Vivaldi coordinate service: prediction as a running protocol.

:mod:`repro.coords.vivaldi` evaluates the algorithm against a static RTT
matrix; this module runs it *in the simulation*, the way deployed systems
(Azureus, libp2p) do: each participant periodically picks a random known
peer, sends a VIV_PING carrying its coordinate, and updates its own
coordinate from the measured request→reply round-trip.  Every probe is a
real message on the bus, so the accuracy/overhead trade-off of §3.2 is
accounted, not asserted.

Endpoints are ``("viv", host_id)`` tuples so the service can share hosts
with any overlay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.collection.base import CollectionMethod, InfoSource, UnderlayInfoType
from repro.coords.base import row_norms
from repro.coords.vivaldi import VivaldiConfig, VivaldiNode
from repro.errors import CollectionError
from repro.rng import SeedLike, ensure_rng
from repro.sim.engine import Simulation
from repro.sim.messages import Message, MessageBus
from repro.sim.process import PeriodicProcess
from repro.underlay.network import Underlay

PROBE_BYTES = 64


class VivaldiGossipService(InfoSource):
    """Decentralized coordinate maintenance over the message bus."""

    def __init__(
        self,
        underlay: Underlay,
        sim: Simulation,
        bus: MessageBus,
        *,
        participants: Optional[Sequence[int]] = None,
        config: VivaldiConfig | None = None,
        probe_period_ms: float = 5_000.0,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if probe_period_ms <= 0:
            raise CollectionError("probe period must be positive")
        self.underlay = underlay
        self.sim = sim
        self.bus = bus
        self.config = config or VivaldiConfig(dim=3, use_height=True)
        self._rng = ensure_rng(rng)
        self.participants = list(
            participants if participants is not None else underlay.host_ids()
        )
        if len(self.participants) < 2:
            raise CollectionError("need at least two participants")
        self.nodes: dict[int, VivaldiNode] = {}
        self._procs: list[PeriodicProcess] = []
        self._pending: dict[int, tuple[int, float]] = {}  # probe id -> (host, t0)
        self._probe_seq = itertools.count()
        self.samples_processed = 0
        for hid in self.participants:
            self.nodes[hid] = VivaldiNode(self.config, self._rng)
            bus.register(("viv", hid), self._on_message)
        for hid in self.participants:
            self._procs.append(
                PeriodicProcess(
                    sim,
                    probe_period_ms,
                    lambda h=hid: self._probe(h),
                    jitter=0.3,
                    rng=self._rng,
                )
            )

    @property
    def info_type(self) -> UnderlayInfoType:
        return UnderlayInfoType.LATENCY

    @property
    def method(self) -> CollectionMethod:
        return CollectionMethod.PREDICTION

    # -- protocol -----------------------------------------------------------------
    def _probe(self, host_id: int) -> None:
        others = self.participants
        target = host_id
        while target == host_id:
            target = others[int(self._rng.integers(len(others)))]
        probe_id = next(self._probe_seq)
        self._pending[probe_id] = (host_id, self.sim.now)
        self.overhead.charge(messages=1, bytes_on_wire=PROBE_BYTES)
        self.bus.send(
            ("viv", host_id),
            ("viv", target),
            "VIV_PING",
            {"probe_id": probe_id},
            PROBE_BYTES,
        )

    def _on_message(self, msg: Message) -> None:
        if msg.kind == "VIV_PING":
            me = msg.dst[1]
            node = self.nodes[me]
            self.overhead.charge(messages=1, bytes_on_wire=PROBE_BYTES)
            self.bus.send(
                msg.dst,
                msg.src,
                "VIV_PONG",
                {
                    "probe_id": msg.payload["probe_id"],
                    "position": node.position.copy(),
                    "height": node.height,
                    "error": node.error,
                },
                PROBE_BYTES,
            )
            return
        if msg.kind == "VIV_PONG":
            entry = self._pending.pop(msg.payload["probe_id"], None)
            if entry is None:
                return
            me, t0 = entry
            rtt = self.sim.now - t0
            if rtt <= 0:
                return
            remote = VivaldiNode(self.config, self._rng)
            remote.position = msg.payload["position"]
            remote.height = msg.payload["height"]
            remote.error = msg.payload["error"]
            self.nodes[me].update(rtt, remote)
            self.samples_processed += 1

    # -- queries ------------------------------------------------------------------
    def estimate(self, host_a: int, host_b: int) -> float:
        """Predicted RTT between two participants (ms)."""
        try:
            return self.nodes[host_a].distance_to(self.nodes[host_b])
        except KeyError:
            raise CollectionError("host is not a Vivaldi participant") from None

    def estimate_many(self, host_a: int, host_bs: Sequence[int]) -> np.ndarray:
        """Batched :meth:`estimate` over live participant coordinates:
        one position gather + one stacked norm, heights added in the
        scalar operation order (values bit-identical entry by entry)."""
        try:
            node = self.nodes[host_a]
            others = [self.nodes[b] for b in host_bs]
        except KeyError:
            raise CollectionError("host is not a Vivaldi participant") from None
        if not others:
            return np.zeros(0)
        positions = np.array([o.position for o in others])
        d = row_norms(node.position[None, :] - positions)
        heights = np.array([o.height for o in others])
        return (d + node.height) + heights

    def estimated_matrix(self) -> np.ndarray:
        n = len(self.participants)
        out = np.zeros((n, n))
        for i, a in enumerate(self.participants):
            for j, b in enumerate(self.participants):
                if i < j:
                    d = self.nodes[a].distance_to(self.nodes[b])
                    out[i, j] = out[j, i] = d
        return out

    def median_relative_error(self) -> float:
        """Against the underlay's true RTTs, over participant pairs."""
        true = 2.0 * np.array(
            [
                [
                    self.underlay.one_way_delay(a, b) if a != b else 0.0
                    for b in self.participants
                ]
                for a in self.participants
            ]
        )
        est = self.estimated_matrix()
        iu = np.triu_indices(len(self.participants), 1)
        mask = true[iu] > 0
        rel = np.abs(est[iu][mask] - true[iu][mask]) / true[iu][mask]
        return float(np.median(rel))

    def stop(self) -> None:
        for p in self._procs:
            p.stop()
