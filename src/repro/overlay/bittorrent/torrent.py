"""Torrent metadata."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OverlayError


@dataclass(frozen=True)
class Torrent:
    """A content item distributed by the swarm."""

    torrent_id: int
    n_pieces: int = 256
    piece_size_bytes: int = 262_144  # 256 KiB, the BitTorrent default

    def __post_init__(self) -> None:
        if self.n_pieces < 1:
            raise OverlayError("torrent needs at least one piece")
        if self.piece_size_bytes < 1:
            raise OverlayError("piece size must be positive")

    @property
    def total_bytes(self) -> int:
        return self.n_pieces * self.piece_size_bytes

