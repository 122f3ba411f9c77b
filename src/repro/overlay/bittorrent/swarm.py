"""Time-stepped BitTorrent swarm simulation.

A fluid, per-second model of a single-torrent swarm — the standard
abstraction for studying neighbor-selection policies (Bindal et al. [3]
used a comparable discrete simulator).  Each step:

1. every peer partitions its upload capacity equally across its unchoked
   interested neighbours;
2. transfers are capped by the receiver's remaining download capacity;
3. bytes accrue toward the rarest-first piece chosen per (uploader,
   downloader) pair; completed pieces update bitfields;
4. every ``rechoke_interval`` the tit-for-tat unchoke sets are recomputed.

Every transferred byte is attributed to intra-AS / peering / transit via
the underlay routing, which yields the ISP-cost side of the Bindal result;
per-peer completion times yield the user side.

This time-stepped model is the **reference twin** of the flow-level data
plane in :mod:`repro.overlay.bittorrent.flowswarm`: it caps out at a few
hundred peers but models pieces exactly, so the flow plane's completion
times and traffic splits are equivalence-tested against it on small
swarms (``tests/test_flowswarm_equiv.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import OverlayError
from repro.obs import active_registry
from repro.obs.registry import MetricRegistry
from repro.overlay.bittorrent.peer import SwarmConfig, SwarmPeer
from repro.overlay.bittorrent.torrent import Torrent
from repro.overlay.bittorrent.tracker import Tracker
from repro.rng import SeedLike, ensure_rng, spawn
from repro.underlay.autonomous_system import LinkType
from repro.underlay.network import Underlay


@dataclass
class SwarmReport:
    """Outcome of one swarm run."""

    completed: int
    total_leechers: int
    mean_download_time_s: float
    median_download_time_s: float
    intra_as_bytes: float
    peering_bytes: float
    transit_bytes: float
    duration_s: float

    @property
    def completion_rate(self) -> float:
        return self.completed / self.total_leechers if self.total_leechers else 0.0

    @property
    def total_bytes(self) -> float:
        return self.intra_as_bytes + self.peering_bytes + self.transit_bytes

    @property
    def intra_as_fraction(self) -> float:
        t = self.total_bytes
        return self.intra_as_bytes / t if t else 0.0

    @property
    def transit_fraction(self) -> float:
        t = self.total_bytes
        return self.transit_bytes / t if t else 0.0


class SwarmSimulation:
    """Time-stepped single-torrent swarm with per-class traffic accounting."""
    def __init__(
        self,
        underlay: Underlay,
        torrent: Torrent,
        tracker: Tracker,
        *,
        config: SwarmConfig | None = None,
        rng: SeedLike = None,
    ) -> None:
        self.underlay = underlay
        self.torrent = torrent
        self.tracker = tracker
        self.config = config or SwarmConfig()
        self._rng = ensure_rng(rng)
        self.peers: dict[int, SwarmPeer] = {}
        self._avail: Optional[np.ndarray] = None
        self.time_s = 0.0
        self.intra_as_bytes = 0.0
        self.peering_bytes = 0.0
        self.transit_bytes = 0.0
        #: transit bytes charged to each paying AS
        self.paid_transit: dict[int, float] = {}
        self._bytes_ctr = None
        self._announce_ctr = None
        self._pieces_ctr = None
        self._dltime_hist = None
        registry = active_registry()
        if registry is not None:
            self.instrument(registry)

    def instrument(self, registry: MetricRegistry) -> None:
        """Count tracker announces, transferred bytes by traffic class,
        and completed pieces; histogram leecher download times."""
        self._announce_ctr = registry.counter(
            "bittorrent_messages_sent_total",
            "BitTorrent control messages sent, by kind.",
            ("kind",),
        )
        self._bytes_ctr = registry.counter(
            "bittorrent_bytes_total",
            "Payload bytes transferred, by underlay traffic class.",
            ("traffic_class",),
        )
        self._pieces_ctr = registry.counter(
            "bittorrent_pieces_completed_total", "Pieces fully downloaded."
        )
        self._dltime_hist = registry.histogram(
            "bittorrent_download_time_s",
            "Per-leecher time to complete the torrent (simulated seconds).",
        )

    # -- population -------------------------------------------------------------
    def add_peer(self, host_id: int, *, is_seed: bool = False) -> SwarmPeer:
        if host_id in self.peers:
            raise OverlayError(f"peer {host_id} already in swarm")
        host = self.underlay.host(host_id)
        (peer_rng,) = spawn(self._rng, 1)
        peer = SwarmPeer(
            host, self.torrent, self.config, is_seed=is_seed, rng=peer_rng
        )
        peer.join_time = self.time_s
        self.peers[host_id] = peer
        if self._avail is not None and is_seed:
            # keep the hoisted availability current: a joining seed adds
            # one copy of every piece, a joining leecher adds none
            self._avail += 1.0
        if self._announce_ctr is not None:
            self._announce_ctr.inc(kind="TRACKER_ANNOUNCE")
        peer_list = self.tracker.announce(host_id)
        peer.neighbors.update(peer_list)
        # connections are bidirectional
        for p in peer_list:
            if p in self.peers:
                self.peers[p].neighbors.add(host_id)
        return peer

    def populate(
        self,
        leechers: Sequence[int],
        seeds: Sequence[int],
    ) -> None:
        for s in seeds:
            self.add_peer(s, is_seed=True)
        for l in leechers:
            self.add_peer(l, is_seed=False)

    # -- accounting ----------------------------------------------------------------
    def _account(self, src_asn: int, dst_asn: int, nbytes: float) -> None:
        if src_asn == dst_asn:
            self.intra_as_bytes += nbytes
            if self._bytes_ctr is not None:
                self._bytes_ctr.inc(nbytes, traffic_class="intra_as")
            return
        plan = self.underlay.routing.route_plan(src_asn, dst_asn)
        crossed_transit = plan.link_class is LinkType.TRANSIT
        for _key, payer in plan.links:
            if payer is not None:
                self.paid_transit[payer] = self.paid_transit.get(payer, 0.0) + nbytes
        if crossed_transit:
            self.transit_bytes += nbytes
        else:
            self.peering_bytes += nbytes
        if self._bytes_ctr is not None:
            self._bytes_ctr.inc(
                nbytes,
                traffic_class="transit" if crossed_transit else "peering",
            )

    # -- core loop ----------------------------------------------------------------------
    def _availability(self) -> np.ndarray:
        """Piece availability, hoisted: built once, then updated in place
        on the only two events that change it (a piece completing inside
        :meth:`step`, a seed joining in :meth:`add_peer`) instead of being
        rebuilt from every bitfield each step/rechoke round."""
        if self._avail is None:
            avail = np.zeros(self.torrent.n_pieces)
            for p in self.peers.values():
                for piece in p.bitfield.have():
                    avail[piece] += 1
            self._avail = avail
        return self._avail

    def _rechoke_all(self) -> None:
        for peer in self.peers.values():
            interested = {
                nid: self.peers[nid]
                for nid in peer.neighbors
                if nid in self.peers and self.peers[nid].interested_in(peer)
            }
            peer.rechoke(interested)

    def step(self, dt: float = 1.0) -> None:
        """Advance the swarm by ``dt`` seconds."""
        piece_size = self.torrent.piece_size_bytes
        availability = self._availability()
        down_budget = {
            pid: p.down_bps * dt for pid, p in self.peers.items() if not p.complete
        }
        for uploader in self.peers.values():
            targets = [
                self.peers[t]
                for t in uploader.unchoked
                if t in self.peers
                and not self.peers[t].complete
                and self.peers[t].interested_in(uploader)
            ]
            if not targets:
                continue
            share = uploader.up_bps * dt / len(targets)
            for dl in targets:
                nbytes = min(share, down_budget.get(dl.host_id, 0.0))
                if nbytes <= 0:
                    continue
                piece, progress = dl.partial.get(uploader.host_id, (None, 0.0))
                if piece is None or piece in dl.bitfield:
                    in_flight = {
                        pc for up, (pc, _b) in dl.partial.items()
                        if up != uploader.host_id
                    }
                    piece = dl.pick_piece(uploader, availability, in_flight)
                    progress = 0.0
                    if piece is None:
                        continue
                down_budget[dl.host_id] -= nbytes
                uploader.uploaded_bytes += nbytes
                dl.downloaded_bytes += nbytes
                dl.recv_from[uploader.host_id] = (
                    dl.recv_from.get(uploader.host_id, 0.0) + nbytes
                )
                uploader.sent_to[dl.host_id] = (
                    uploader.sent_to.get(dl.host_id, 0.0) + nbytes
                )
                self._account(uploader.asn, dl.asn, nbytes)
                progress += nbytes
                while progress >= piece_size and piece is not None:
                    progress -= piece_size
                    dl.bitfield.add(piece)
                    availability[piece] += 1
                    if self._pieces_ctr is not None:
                        self._pieces_ctr.inc()
                    if dl.complete:
                        dl.finish_time = self.time_s + dt
                        if self._dltime_hist is not None:
                            self._dltime_hist.observe(
                                dl.finish_time - dl.join_time
                            )
                        piece = None
                        break
                    in_flight = {
                        pc for up, (pc, _b) in dl.partial.items()
                        if up != uploader.host_id
                    }
                    piece = dl.pick_piece(uploader, availability, in_flight)
                if piece is None:
                    dl.partial.pop(uploader.host_id, None)
                else:
                    dl.partial[uploader.host_id] = (piece, progress)
        self.time_s += dt

    def run(
        self, *, max_time_s: float = 3600.0, dt: float = 1.0
    ) -> SwarmReport:
        """Run until every leecher finishes or ``max_time_s`` elapses."""
        if dt <= 0:
            raise OverlayError("dt must be positive")
        next_rechoke = 0.0
        while self.time_s < max_time_s:
            if self.time_s >= next_rechoke:
                self._rechoke_all()
                next_rechoke = self.time_s + self.config.rechoke_interval_s
            if all(p.complete for p in self.peers.values()):
                break
            self.step(dt)
        return self.report()

    def report(self) -> SwarmReport:
        leechers = [p for p in self.peers.values() if not p.is_initial_seed]
        done = [p for p in leechers if p.finish_time is not None]
        times = np.array([p.finish_time - p.join_time for p in done]) if done else np.array([])
        return SwarmReport(
            completed=len(done),
            total_leechers=len(leechers),
            mean_download_time_s=float(times.mean()) if times.size else float("nan"),
            median_download_time_s=float(np.median(times)) if times.size else float("nan"),
            intra_as_bytes=self.intra_as_bytes,
            peering_bytes=self.peering_bytes,
            transit_bytes=self.transit_bytes,
            duration_s=self.time_s,
        )
