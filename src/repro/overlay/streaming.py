"""P2P live streaming with bandwidth-aware chunk scheduling
(da Silva et al. [6], the survey's peer-resources application).

A mesh-pull P2P-TV swarm: a source emits fixed-size chunks at the stream
bitrate; peers hold a sliding window of chunks, advertise what they have
and pull/push within their neighbourhood.  Each chunk interval every
peer schedules its uploads, constrained by its upstream capacity.

Two schedulers:

- ``RANDOM`` — a uniformly random (missing-chunk, neighbour) pair per
  upload slot — the underlay-oblivious baseline;
- ``BANDWIDTH_AWARE`` — the [6] strategy: push the *newest* chunks to the
  *highest-upstream* neighbours first, so capable peers become secondary
  sources quickly and the swarm's aggregate capacity is harvested; within
  equal capacity, most-deprived-first.

Measured: playback continuity (fraction of chunks present at their play
deadline), startup buffering, and source load — resource awareness should
raise continuity without extra source bandwidth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import OverlayError
from repro.rng import SeedLike, ensure_rng
from repro.underlay.network import Underlay


class SchedulerPolicy(enum.Enum):
    """Chunk-upload scheduling policy of the streaming swarm."""
    RANDOM = "random"
    BANDWIDTH_AWARE = "bandwidth-aware"


@dataclass(frozen=True)
class StreamConfig:
    """Stream and swarm parameters (bitrate, buffers, mesh degree, source budget)."""
    bitrate_kbps: float = 400.0
    chunk_ms: float = 1000.0
    buffer_chunks: int = 5        # startup buffer before playback begins
    window_chunks: int = 20       # how far behind the live edge peers fetch
    neighbors: int = 6
    #: copies of each chunk the source injects — P2P-TV works precisely
    #: because the source does NOT serve every viewer; peers redistribute
    source_copies: int = 3

    def __post_init__(self) -> None:
        if self.bitrate_kbps <= 0 or self.chunk_ms <= 0:
            raise OverlayError("bitrate and chunk duration must be positive")
        if self.buffer_chunks < 1 or self.window_chunks < self.buffer_chunks:
            raise OverlayError("window must be >= buffer >= 1")
        if self.neighbors < 1:
            raise OverlayError("need at least one neighbour")
        if self.source_copies < 1:
            raise OverlayError("source must inject at least one copy")

    @property
    def chunk_bytes(self) -> float:
        return self.bitrate_kbps * 1000.0 / 8.0 * (self.chunk_ms / 1000.0)


@dataclass
class StreamPeer:
    """Per-viewer state: chunk buffer, mesh neighbours, playback position."""
    host_id: int
    up_bps: float
    chunks: set[int] = field(default_factory=set)
    neighbors: list[int] = field(default_factory=list)
    playhead: int = -1            # last chunk consumed
    started: bool = False
    startup_interval: Optional[int] = None
    played: int = 0
    missed: int = 0

    @property
    def continuity(self) -> float:
        total = self.played + self.missed
        return self.played / total if total else 1.0


@dataclass
class StreamReport:
    """Outcome of a streaming run: continuity, startup delay, source load."""
    mean_continuity: float
    p10_continuity: float
    mean_startup_intervals: float
    source_chunks_served: int
    chunks_produced: int


class StreamingSwarm:
    """Time-stepped (one step per chunk interval) mesh-pull streaming."""

    def __init__(
        self,
        underlay: Underlay,
        source_id: int,
        viewer_ids: Sequence[int],
        *,
        config: StreamConfig | None = None,
        policy: SchedulerPolicy = SchedulerPolicy.RANDOM,
        rng: SeedLike = None,
    ) -> None:
        self.underlay = underlay
        self.config = config or StreamConfig()
        self.policy = policy
        self._rng = ensure_rng(rng)
        if source_id in set(viewer_ids):
            raise OverlayError("source cannot also be a viewer")
        self.source_id = source_id
        src_host = underlay.host(source_id)
        self.source_up_bps = src_host.resources.bandwidth_up_kbps * 1000.0 / 8.0
        self.peers: dict[int, StreamPeer] = {}
        for vid in viewer_ids:
            h = underlay.host(vid)
            self.peers[vid] = StreamPeer(
                host_id=vid, up_bps=h.resources.bandwidth_up_kbps * 1000.0 / 8.0
            )
        if not self.peers:
            raise OverlayError("need at least one viewer")
        self._build_mesh()
        self.interval = 0
        self.live_edge = -1
        self.source_chunks_served = 0

    def _build_mesh(self) -> None:
        ids = list(self.peers)
        k = min(self.config.neighbors, len(ids) - 1)
        for vid, peer in self.peers.items():
            others = [x for x in ids if x != vid]
            if k > 0:
                picks = self._rng.choice(len(others), size=k, replace=False)
                peer.neighbors = [others[int(i)] for i in picks]
        # symmetrise
        for vid, peer in self.peers.items():
            for nb in peer.neighbors:
                if vid not in self.peers[nb].neighbors:
                    self.peers[nb].neighbors.append(vid)

    # -- one chunk interval -------------------------------------------------------
    def _upload_slots(self, up_bps: float) -> int:
        per_interval = up_bps * (self.config.chunk_ms / 1000.0)
        return int(per_interval // self.config.chunk_bytes)

    def _source_push(self) -> None:
        """The source injects a few copies of the newest chunk, bounded by
        both its configured copy budget and its actual upstream.  The
        *peer* scheduler policy decides how peers redistribute; the source
        itself always seeds the strongest peers first under
        BANDWIDTH_AWARE and random peers otherwise."""
        chunk = self.live_edge
        slots = min(
            max(self._upload_slots(self.source_up_bps), 1),
            self.config.source_copies,
        )
        wanting = [p for p in self.peers.values() if chunk not in p.chunks]
        if self.policy is SchedulerPolicy.BANDWIDTH_AWARE:
            wanting.sort(key=lambda p: p.up_bps, reverse=True)
        else:
            self._rng.shuffle(wanting)
        for p in wanting[:slots]:
            p.chunks.add(chunk)
            self.source_chunks_served += 1

    def _peer_uploads(self) -> None:
        window_lo = max(self.live_edge - self.config.window_chunks, 0)
        order = list(self.peers.values())
        self._rng.shuffle(order)
        for peer in order:
            slots = self._upload_slots(peer.up_bps)
            if slots <= 0 or not peer.neighbors:
                continue
            candidates: list[tuple[int, int]] = []  # (neighbor, chunk)
            for nb in peer.neighbors:
                other = self.peers[nb]
                missing = [
                    c
                    for c in peer.chunks
                    if c >= max(window_lo, other.playhead + 1)
                    and c not in other.chunks
                ]
                candidates.extend((nb, c) for c in missing)
            if not candidates:
                continue
            if self.policy is SchedulerPolicy.BANDWIDTH_AWARE:
                candidates.sort(
                    key=lambda t: (
                        -self.peers[t[0]].up_bps,   # strongest neighbour first
                        -t[1],                      # newest chunk first
                    )
                )
            else:
                self._rng.shuffle(candidates)
            sent_to: set[tuple[int, int]] = set()
            sent = 0
            for nb, chunk in candidates:
                if sent >= slots:
                    break
                if (nb, chunk) in sent_to or chunk in self.peers[nb].chunks:
                    continue
                self.peers[nb].chunks.add(chunk)
                sent_to.add((nb, chunk))
                sent += 1

    def _playback(self) -> None:
        for peer in self.peers.values():
            if not peer.started:
                buffered = sum(
                    1 for c in range(peer.playhead + 1, self.live_edge + 1)
                    if c in peer.chunks
                )
                if buffered >= self.config.buffer_chunks:
                    peer.started = True
                    peer.startup_interval = self.interval
                continue
            target = peer.playhead + 1
            if target > self.live_edge:
                continue  # caught up with the live edge
            if target in peer.chunks:
                peer.played += 1
            else:
                peer.missed += 1
            peer.playhead = target
            # drop chunks far behind the playhead (bounded memory)
            horizon = peer.playhead - 2 * self.config.window_chunks
            if horizon > 0:
                peer.chunks = {c for c in peer.chunks if c >= horizon}

    def step(self) -> None:
        self.live_edge += 1
        self._source_push()
        self._peer_uploads()
        self._playback()
        self.interval += 1

    def run(self, intervals: int = 120) -> StreamReport:
        if intervals < 1:
            raise OverlayError("need at least one interval")
        for _ in range(intervals):
            self.step()
        conts = np.array([p.continuity for p in self.peers.values()])
        startups = [
            p.startup_interval for p in self.peers.values()
            if p.startup_interval is not None
        ]
        return StreamReport(
            mean_continuity=float(conts.mean()),
            p10_continuity=float(np.percentile(conts, 10)),
            mean_startup_intervals=float(np.mean(startups)) if startups else float("inf"),
            source_chunks_served=self.source_chunks_served,
            chunks_produced=self.live_edge + 1,
        )
