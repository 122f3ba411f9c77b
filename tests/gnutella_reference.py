"""The one-event-per-message Gnutella servent, kept as a test oracle.

``src/`` floods through :class:`repro.overlay.gnutella.flood.FloodKernel`
only.  This module keeps what it replaced — PING, PONG, QUERY and
QUERYHIT as payload objects on the :class:`~repro.sim.messages.MessageBus`
and an ``on_<kind>`` handler per arrival — so the equivalence suites
(``test_query_equivalence.py``, ``test_gnutella_node_internals.py``) can
hold the kernel to the send log, counters and learned state of the
obvious implementation.  Seen marks and reverse routes are a plain
``set`` / ``dict`` per node and are never trimmed.

Build a population of these with :class:`ReferenceGnutellaNetwork` in
place of :class:`~repro.overlay.gnutella.GnutellaNetwork`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import OverlayError
from repro.overlay.gnutella import GnutellaNetwork, GnutellaNode, Query
from repro.overlay.gnutella.messages import (
    PING_SIZE,
    PONG_SIZE,
    QUERY_SIZE,
    QUERYHIT_SIZE,
)
from repro.overlay.gnutella.node import LEAF, ULTRAPEER
from repro.sim.messages import Message
from repro.underlay.hosts import Host


@dataclass(frozen=True)
class Ping:
    """PING descriptor: discovers peers; forwarded with decremented TTL."""
    guid: int
    ttl: int
    origin: int = -1  # host id of the originator


@dataclass(frozen=True)
class Pong:
    """PONG descriptor: advertises a peer address back along the ping path."""
    guid: int           # matches the Ping it answers
    peer: int           # advertised peer address (host id)


@dataclass(frozen=True)
class QueryHit:
    """QUERYHIT descriptor: a responder for a query, routed back to the origin."""
    guid: int           # matches the Query it answers
    responder: int      # host id that has the content
    keyword: int


def forwarded(descriptor):
    """The copy of a PING or QUERY a relay sends on: TTL one lower."""
    return replace(descriptor, ttl=descriptor.ttl - 1)


class ReferenceGnutellaNode(GnutellaNode):
    """A servent that handles every descriptor of a flood as a message."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._seen: set[tuple[str, int]] = set()
        self._routes: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------ ping/pong
    def start_ping(self) -> None:
        guid = self.network.next_guid()
        self._seen.add(("PING", guid))
        ping = Ping(guid=guid, ttl=self.config.ping_ttl, origin=self.host_id)
        self.send_many(list(self._connected_peers()), "PING", ping, PING_SIZE)

    def on_ping(self, msg: Message) -> None:
        ping: Ping = msg.payload
        key = ("PING", ping.guid)
        if key in self._seen:
            self.network.drop_counts["duplicate"] += 1
            return
        self._seen.add(key)
        self._routes[key] = msg.src
        # answer: own pong + cached addresses
        self.send(msg.src, "PONG", Pong(ping.guid, self.host_id), PONG_SIZE)
        for cached in self._pong_cache[: self.config.pongs_per_ping - 1]:
            if cached != ping.origin:
                self.send(msg.src, "PONG", Pong(ping.guid, cached), PONG_SIZE)
        # forward with decremented TTL (ultrapeers relay; leaves are edges)
        if ping.ttl > 1 and self.role == ULTRAPEER:
            self.send_many(
                [nb for nb in self._connected_peers() if nb != msg.src],
                "PING", forwarded(ping), PING_SIZE,
            )
        elif self.role == ULTRAPEER:
            self.network.drop_counts["ttl"] += 1

    def on_pong(self, msg: Message) -> None:
        pong: Pong = msg.payload
        # forward along the ping's reverse path (its originator has no
        # route back and consumes), then learn the address passing through
        back = self._routes.get(("PING", pong.guid))
        if back is not None:
            self.send(back, "PONG", pong, PONG_SIZE)
        self.learn_addresses((pong.peer,))

    # ------------------------------------------------------------------ search
    def start_query(self, keyword: int) -> int:
        guid = self.network.next_guid()
        query = Query(
            guid=guid, ttl=self.config.query_ttl, keyword=keyword, origin=self.host_id
        )
        self.network.register_query(guid, self.host_id, keyword)
        self._seen.add(("QUERY", guid))
        if self.role == LEAF:
            # leaves hand the query to their ultrapeers
            for up in self.neighbors:
                self.send(up, "QUERY", query, QUERY_SIZE)
        else:
            self._answer_and_flood(query, from_peer=None)
        return guid

    def on_query(self, msg: Message) -> None:
        query: Query = msg.payload
        key = ("QUERY", query.guid)
        if key in self._seen:
            self.network.drop_counts["duplicate"] += 1
            return
        self._seen.add(key)
        self._routes[key] = msg.src
        self._answer_and_flood(query, from_peer=msg.src)

    def _answer_and_flood(self, query: Query, from_peer: Optional[int]) -> None:
        # answer from own shared content
        responders: list[int] = []
        if query.keyword in self.shared:
            responders.append(self.host_id)
        # and on behalf of leaves
        responders.extend(sorted(self.leaf_index.get(query.keyword, ())))
        hops_hist = self.network.query_hops_hist
        if hops_hist is not None and responders:
            hops_hist.observe(self.config.query_ttl - query.ttl)
        for responder in responders:
            hit = QueryHit(guid=query.guid, responder=responder, keyword=query.keyword)
            self._route_hit(hit, via=from_peer)
        if query.ttl > 1 and self.role == ULTRAPEER:
            self.send_many(
                [nb for nb in self.neighbors if nb != from_peer],
                "QUERY", forwarded(query), QUERY_SIZE,
            )
        elif self.role == ULTRAPEER:
            self.network.drop_counts["ttl"] += 1

    def _route_hit(self, hit: QueryHit, via: Optional[int]) -> None:
        if via is None:
            # we are the originator's node itself
            self.network.record_hit(hit.guid, hit.responder)
            return
        self.send(via, "QUERYHIT", hit, QUERYHIT_SIZE)

    def on_queryhit(self, msg: Message) -> None:
        hit: QueryHit = msg.payload
        record = self.network.searches.get(hit.guid)
        if record is not None and record.origin == self.host_id:
            self.network.record_hit(hit.guid, hit.responder)
            return
        back = self._routes.get(("QUERY", hit.guid))
        if back is None:
            return  # no route (a hit for a query never seen); drop silently
        self.send(back, "QUERYHIT", hit, QUERYHIT_SIZE)


class ReferenceGnutellaNetwork(GnutellaNetwork):
    """A :class:`GnutellaNetwork` populated with reference servents."""

    def add_node(self, host: Host, role: str) -> ReferenceGnutellaNode:
        if host.host_id in self.nodes:
            raise OverlayError(f"host {host.host_id} already in network")
        node = ReferenceGnutellaNode(
            host, self.sim, self.bus, self, role, self.config
        )
        if self._registry is not None:
            node.instrument(self._registry, "gnutella")
        self.nodes[host.host_id] = node
        node.go_online()
        return node

    def ping_round(self) -> None:
        for node in self.nodes.values():
            if node.online:
                node.start_ping()
