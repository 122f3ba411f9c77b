"""Gnutella 0.6 message payloads.

GUIDs are plain integers issued by a per-network counter.  Sizes
approximate the on-wire descriptor sizes so traffic accounting is
meaningful.  PING, PONG, QUERY and QUERYHIT never exist as objects in
flight: a flood is expanded by
:class:`~repro.overlay.gnutella.flood.FloodKernel`, which carries a
descriptor as a heap entry, so only the QUERY a search is issued with
and the connect handshake have payload classes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Approximate descriptor sizes in bytes (header + typical body).
PING_SIZE = 23
PONG_SIZE = 37
QUERY_SIZE = 50
QUERYHIT_SIZE = 80
CONNECT_SIZE = 48


@dataclass(frozen=True)
class Query:
    """QUERY descriptor: a keyword search flooded through the ultrapeer mesh."""
    guid: int
    ttl: int
    keyword: int        # content id being searched
    origin: int


@dataclass(frozen=True)
class ConnectRequest:
    """Handshake request carrying the joining peer's address and role."""
    peer: int
    role: str           # "ultrapeer" | "leaf"


@dataclass(frozen=True)
class ConnectReply:
    """Handshake response: whether the connection was accepted."""
    peer: int
    accepted: bool
