"""Piece-level, time-stepped BitTorrent swarm: the flow plane's oracle.

A fluid, per-second model of a single-torrent swarm (Bindal et al. [3]
used a comparable discrete simulator).  Each step:

1. every peer partitions its upload capacity equally across its unchoked
   interested neighbours;
2. transfers are capped by the receiver's remaining download capacity;
3. bytes accrue toward the rarest-first piece chosen per (uploader,
   downloader) pair; completed pieces update bitfields;
4. every ``rechoke_interval`` the tit-for-tat unchoke sets are recomputed
   (leechers rank by bytes received, seeds by bytes sent; CAT mode puts
   same-AS neighbours first) plus one optimistic random unchoke.

It models every piece exactly and caps out at a few hundred peers, so it
lives here rather than in ``src/``: ``test_flowswarm_equiv`` checks
:class:`~repro.overlay.bittorrent.FlowSwarmSimulation` against it on
small swarms, and ``test_bittorrent_peer_unit`` pins its choking and
piece selection.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import OverlayError
from repro.overlay.bittorrent import SwarmConfig, SwarmReport, Torrent, Tracker
from repro.rng import SeedLike, ensure_rng, spawn
from repro.underlay.autonomous_system import LinkType
from repro.underlay.hosts import Host
from repro.underlay.network import Underlay


class Bitfield:
    """Set of pieces a peer holds."""

    def __init__(self, n_pieces: int, complete: bool = False) -> None:
        self.n_pieces = n_pieces
        self._have: set[int] = set(range(n_pieces)) if complete else set()

    def __len__(self) -> int:
        return len(self._have)

    def __contains__(self, piece: int) -> bool:
        return piece in self._have

    def add(self, piece: int) -> None:
        if not (0 <= piece < self.n_pieces):
            raise OverlayError(f"piece index out of range: {piece}")
        self._have.add(piece)

    def missing(self) -> set[int]:
        return set(range(self.n_pieces)) - self._have

    def have(self) -> set[int]:
        return set(self._have)

    @property
    def complete(self) -> bool:
        return len(self._have) == self.n_pieces

    @property
    def completion(self) -> float:
        return len(self._have) / self.n_pieces


class SwarmPeer:
    """A swarm participant: bitfield, neighbours, tit-for-tat state."""

    def __init__(
        self,
        host: Host,
        torrent: Torrent,
        config: SwarmConfig,
        *,
        is_seed: bool = False,
        rng: SeedLike = None,
    ) -> None:
        self.host = host
        self.torrent = torrent
        self.config = config
        self.bitfield = Bitfield(torrent.n_pieces, complete=is_seed)
        self.is_initial_seed = is_seed
        self.neighbors: set[int] = set()
        self.unchoked: set[int] = set()   # whom *we* are uploading to
        self._rng = ensure_rng(rng)
        # rolling byte counters for tit-for-tat (reset each rechoke)
        self.recv_from: dict[int, float] = {}
        self.sent_to: dict[int, float] = {}
        # per-uploader progress toward the piece currently fetched from them
        self.partial: dict[int, tuple[int, float]] = {}  # uploader -> (piece, bytes)
        self.finish_time: Optional[float] = None
        self.join_time: float = 0.0
        self.uploaded_bytes: float = 0.0
        self.downloaded_bytes: float = 0.0

    @property
    def host_id(self) -> int:
        return self.host.host_id

    @property
    def asn(self) -> int:
        return self.host.asn

    @property
    def up_bps(self) -> float:
        return self.host.resources.bandwidth_up_kbps * 1000.0 / 8.0

    @property
    def down_bps(self) -> float:
        return self.host.resources.bandwidth_down_kbps * 1000.0 / 8.0

    @property
    def complete(self) -> bool:
        return self.bitfield.complete

    def rechoke(self, interested: dict[int, "SwarmPeer"]) -> None:
        """Recompute the unchoke set from the interested neighbours."""
        if not interested:
            self.unchoked = set()
            return
        cfg = self.config

        def tft_key(pid: int) -> tuple:
            rate = (
                self.sent_to.get(pid, 0.0)
                if self.complete
                else self.recv_from.get(pid, 0.0)
            )
            if cfg.cost_aware:
                return (interested[pid].asn == self.asn, rate)
            return (rate,)

        ranked = sorted(interested, key=tft_key, reverse=True)
        chosen = set(ranked[: cfg.regular_slots])
        rest = [p for p in ranked if p not in chosen]
        for _ in range(cfg.optimistic_slots):
            if not rest:
                break
            chosen.add(rest.pop(int(self._rng.integers(len(rest)))))
        self.unchoked = chosen
        self.recv_from.clear()
        self.sent_to.clear()

    def pick_piece(
        self, uploader: "SwarmPeer", availability: np.ndarray, in_flight: set[int]
    ) -> Optional[int]:
        """Rarest-first among pieces the uploader has and we lack, avoiding
        pieces already being fetched from someone else."""
        wanted = (uploader.bitfield.have() - self.bitfield.have()) - in_flight
        if not wanted:
            return None
        wanted_list = sorted(wanted)
        avail = availability[wanted_list]
        best = int(np.argmin(avail))
        # random tie-break among equal-rarity pieces
        ties = [p for p, a in zip(wanted_list, avail) if a == avail[best]]
        return int(ties[int(self._rng.integers(len(ties)))])

    def interested_in(self, other: "SwarmPeer") -> bool:
        return bool(other.bitfield.have() - self.bitfield.have())


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
            self._avail += 1.0
        peer_list = self.tracker.announce(host_id)
        peer.neighbors.update(peer_list)
        # connections are bidirectional
        for p in peer_list:
            if p in self.peers:
                self.peers[p].neighbors.add(host_id)
        return peer

    def populate(self, leechers: Sequence[int], seeds: Sequence[int]) -> None:
        for s in seeds:
            self.add_peer(s, is_seed=True)
        for l in leechers:
            self.add_peer(l, is_seed=False)

    def _account(self, src_asn: int, dst_asn: int, nbytes: float) -> None:
        if src_asn == dst_asn:
            self.intra_as_bytes += nbytes
            return
        plan = self.underlay.routing.route_plan(src_asn, dst_asn)
        for _key, payer in plan.links:
            if payer is not None:
                self.paid_transit[payer] = self.paid_transit.get(payer, 0.0) + nbytes
        if plan.link_class is LinkType.TRANSIT:
            self.transit_bytes += nbytes
        else:
            self.peering_bytes += nbytes

    def _availability(self) -> np.ndarray:
        """Piece availability, built once and then updated in place when a
        piece completes or a seed joins."""
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

    def _in_flight(self, dl: SwarmPeer, uploader: SwarmPeer) -> set[int]:
        return {pc for up, (pc, _b) in dl.partial.items() if up != uploader.host_id}

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
                    piece = dl.pick_piece(
                        uploader, availability, self._in_flight(dl, uploader)
                    )
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
                    if dl.complete:
                        dl.finish_time = self.time_s + dt
                        piece = None
                        break
                    piece = dl.pick_piece(
                        uploader, availability, self._in_flight(dl, uploader)
                    )
                if piece is None:
                    dl.partial.pop(uploader.host_id, None)
                else:
                    dl.partial[uploader.host_id] = (piece, progress)
        self.time_s += dt

    def run(self, *, max_time_s: float = 3600.0, dt: float = 1.0) -> SwarmReport:
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
        times = np.array([p.finish_time - p.join_time for p in done])
        return SwarmReport(
            completed=len(done),
            total_leechers=len(leechers),
            mean_download_time_s=float(times.mean()) if done else float("nan"),
            median_download_time_s=float(np.median(times)) if done else float("nan"),
            intra_as_bytes=self.intra_as_bytes,
            peering_bytes=self.peering_bytes,
            transit_bytes=self.transit_bytes,
            duration_s=self.time_s,
        )
