"""A Gnutella 0.6 servent: ultrapeer or leaf.

Protocol subset implemented (enough to reproduce the message-count and
locality experiments of Aggarwal et al. [1]):

- handshake: CONNECT_REQUEST / CONNECT_REPLY with capacity checks;
- leaf content announcement (SHARE) so ultrapeers can answer queries on
  behalf of their leaves (QRP simplified to an exact index);
- PING flooding with TTL and pong caching (a ping is answered by the
  receiver's own PONG plus cached addresses, giving the Pong≫Ping ratio
  visible in the paper's message table);
- QUERY flooding among ultrapeers with duplicate suppression, QUERYHIT
  routed back hop-by-hop along the reverse query path.

The node is transport-agnostic: everything goes through the
:class:`~repro.sim.messages.MessageBus`, so underlay traffic accounting
sees every hop of every descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import OverlayError
from repro.overlay.base import OverlayNode
from repro.overlay.gnutella.hostcache import HostCache
from repro.overlay.gnutella.messages import (
    CONNECT_SIZE,
    PING_SIZE,
    PONG_SIZE,
    QUERY_SIZE,
    QUERYHIT_SIZE,
    ConnectReply,
    ConnectRequest,
    Ping,
    Pong,
    Query,
    QueryHit,
)
from repro.sim.engine import Simulation
from repro.sim.messages import Message, MessageBus
from repro.sim.queryplane import BoundedRouteTable
from repro.sim.requests import RequestManager, RetryPolicy
from repro.underlay.hosts import Host

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.gnutella.network import GnutellaNetwork

ULTRAPEER = "ultrapeer"
LEAF = "leaf"


@dataclass(frozen=True)
class GnutellaConfig:
    """Protocol knobs (defaults sized for few-hundred-node simulations).

    The connect handshake is stop-and-wait, so a lost CONNECT_REQUEST or
    CONNECT_REPLY used to wedge the joining servent forever; it now runs
    under a retry policy (``connect_timeout_ms`` base deadline,
    ``connect_max_retries`` retransmissions with doubled timeouts) and a
    final failure simply moves on to the next candidate.
    """

    query_ttl: int = 4
    ping_ttl: int = 2
    pongs_per_ping: int = 10
    max_up_neighbors: int = 6
    max_leaves: int = 30
    leaf_connections: int = 3
    hostcache_capacity: int = 1000
    pong_cache_size: int = 20
    connect_timeout_ms: float = 4000.0
    connect_max_retries: int = 1
    #: duplicate-suppression window: at most this many distinct in-flight
    #: descriptor GUIDs are remembered network-wide (FIFO expiry; see
    #: :class:`repro.sim.queryplane.SeenFilter`) — long service runs stay
    #: memory-flat instead of accreting every GUID ever flooded
    seen_window: int = 4096
    #: per-node reverse-route window (QUERYHIT/PONG back-routing); an
    #: expired route is the existing "route evaporated" drop case
    route_cache_size: int = 4096

    def __post_init__(self) -> None:
        if self.query_ttl < 1 or self.ping_ttl < 1:
            raise OverlayError("TTLs must be >= 1")
        if self.leaf_connections < 1:
            raise OverlayError("leaves need at least one ultrapeer connection")
        if self.max_up_neighbors < 1 or self.max_leaves < 0:
            raise OverlayError("invalid capacity configuration")
        if self.pongs_per_ping < 1 or self.pong_cache_size < 1:
            raise OverlayError("pong parameters must be >= 1")
        if self.connect_timeout_ms <= 0 or self.connect_max_retries < 0:
            raise OverlayError("invalid connect retry configuration")
        if self.seen_window < 1 or self.route_cache_size < 1:
            raise OverlayError("suppression windows must be >= 1")


class GnutellaNode(OverlayNode):
    """One servent: connections, content index, and descriptor handling."""
    def __init__(
        self,
        host: Host,
        sim: Simulation,
        bus: MessageBus,
        network: "GnutellaNetwork",
        role: str,
        config: GnutellaConfig,
    ) -> None:
        super().__init__(host, sim, bus)
        if role not in (ULTRAPEER, LEAF):
            raise OverlayError(f"unknown role {role!r}")
        self.network = network
        self.role = role
        self.config = config
        self.hostcache = HostCache(config.hostcache_capacity)
        self.neighbors: set[int] = set()  # UP-UP links, or leaf's ultrapeers
        self.leaves: set[int] = set()     # UP only
        self.leaf_index: dict[int, set[int]] = {}  # keyword -> leaf host ids
        self.shared: set[int] = set()
        # duplicate suppression lives in the network-wide bounded
        # SeenFilter (one bit per host per live GUID); reverse routes are
        # FIFO-bounded so neither grows with total queries ever issued
        self._route_back = BoundedRouteTable(config.route_cache_size)
        self._pong_cache: list[int] = []
        self._pending_candidates: list[int] = []
        self.requests = RequestManager(
            sim,
            policy=RetryPolicy(
                timeout_ms=config.connect_timeout_ms,
                max_retries=config.connect_max_retries,
                max_timeout_ms=4.0 * config.connect_timeout_ms,
            ),
            component="gnutella",
        )

    # ------------------------------------------------------------------ joining
    def desired_connections(self) -> int:
        return (
            self.config.leaf_connections
            if self.role == LEAF
            else self.config.max_up_neighbors
        )

    def join(self, ranked_candidates: list[int]) -> None:
        """Attempt connections to candidates in the given (policy-ranked)
        order until the connection target is met or candidates run out."""
        self._pending_candidates = [
            c
            for c in ranked_candidates
            if c != self.host_id and self.network.role_of(c) == ULTRAPEER
        ]
        self._try_next_candidates()

    def _try_next_candidates(self) -> None:
        while (
            len(self.neighbors) < self.desired_connections()
            and self._pending_candidates
        ):
            target = self._pending_candidates.pop(0)
            if target in self.neighbors:
                continue
            key = ("connect", target)
            if self.requests.is_outstanding(key):
                continue  # handshake with this peer already in flight
            request = ConnectRequest(peer=self.host_id, role=self.role)

            def transmit(t: int = target, r: ConnectRequest = request) -> None:
                if self.online:
                    self.send(t, "CONNECT_REQUEST", r, CONNECT_SIZE)

            self.requests.issue(
                key, transmit,
                on_fail=lambda t=target: self._connect_failed(t),
            )
            # stop-and-wait: continue from on_connect_reply (or the
            # retry manager's final failure)
            return

    def _connect_failed(self, target: int) -> None:
        """The handshake with ``target`` timed out on every attempt
        (request or reply lost, peer crashed): move on instead of
        hanging.  The peer also leaves the hostcache — it just proved
        unreachable."""
        self.hostcache.remove(target)
        if self.online:
            self._try_next_candidates()

    def on_connect_request(self, msg: Message) -> None:
        req: ConnectRequest = msg.payload
        accepted = self._accept_connection(req)
        if accepted:
            if req.role == LEAF:
                self.leaves.add(req.peer)
            else:
                self.neighbors.add(req.peer)
        self.send(
            req.peer,
            "CONNECT_REPLY",
            ConnectReply(peer=self.host_id, accepted=accepted),
            CONNECT_SIZE,
        )

    def _accept_connection(self, req: ConnectRequest) -> bool:
        if self.role != ULTRAPEER:
            return False
        if req.role == LEAF:
            return len(self.leaves) < self.config.max_leaves
        # inbound slack (2x the outbound target): real servents keep a
        # separate inbound budget, which prevents late joiners from being
        # orphaned once everyone's outbound slots are filled
        return len(self.neighbors) < 2 * self.config.max_up_neighbors

    def on_connect_reply(self, msg: Message) -> None:
        rep: ConnectReply = msg.payload
        self.requests.resolve(("connect", rep.peer))
        if rep.accepted:
            self.neighbors.add(rep.peer)
            if self.role == LEAF and self.shared:
                # announce content so the ultrapeer can answer for us
                self.send(rep.peer, "SHARE", (self.host_id, frozenset(self.shared)),
                          16 + 4 * len(self.shared))
        self._try_next_candidates()

    def on_share(self, msg: Message) -> None:
        leaf_id, keywords = msg.payload
        for kw in keywords:
            self.leaf_index.setdefault(kw, set()).add(leaf_id)

    def drop_peer(self, peer: int) -> None:
        """Remove a vanished peer from all local state."""
        self.neighbors.discard(peer)
        self.leaves.discard(peer)
        for holders in self.leaf_index.values():
            holders.discard(peer)

    # ------------------------------------------------------------------ leaving
    def leave(self) -> None:
        """Graceful departure: notify connected peers, then go offline."""
        if not self.online:
            return
        for peer in list(self._connected_peers()):
            self.send(peer, "BYE", self.host_id, 16)
        self.neighbors.clear()
        self.leaves.clear()
        self.go_offline()

    def on_bye(self, msg: Message) -> None:
        self.drop_peer(msg.src)
        self.hostcache.remove(msg.src)
        # a leaf that lost an ultrapeer looks for a replacement
        if self.role == LEAF and len(self.neighbors) < self.desired_connections():
            self.network.schedule_repair(self)

    # ---------------------------------------------------------- dup suppression
    def _saw(self, key: tuple[str, int]) -> bool:
        """Whether this host already handled the descriptor ``key``."""
        return self.network.seen.test(self.host_id, key)

    def _mark_seen(self, key: tuple[str, int]) -> None:
        self.network.seen.mark(self.host_id, key)

    # ------------------------------------------------------------------ ping/pong
    def start_ping(self) -> None:
        """Emit one PING round to all connected peers."""
        guid = self.network.next_guid()
        self._mark_seen(("PING", guid))
        ping = Ping(guid=guid, ttl=self.config.ping_ttl, origin=self.host_id)
        self.send_many(list(self._connected_peers()), "PING", ping, PING_SIZE)

    def _connected_peers(self) -> list[int]:
        """All connected peer ids, ascending (deterministic fan-out)."""
        return sorted(self.neighbors | self.leaves)

    def on_ping(self, msg: Message) -> None:
        ping: Ping = msg.payload
        key = ("PING", ping.guid)
        if self._saw(key):
            self.network.drop_counts["duplicate"] += 1
            return
        self._mark_seen(key)
        self._route_back[key] = msg.src
        # answer: own pong + cached addresses
        self.send(msg.src, "PONG", Pong(ping.guid, self.host_id, len(self.shared)),
                  PONG_SIZE)
        for cached in self._pong_cache[: self.config.pongs_per_ping - 1]:
            if cached != ping.origin:
                self.send(msg.src, "PONG", Pong(ping.guid, cached), PONG_SIZE)
        # forward with decremented TTL (ultrapeers relay; leaves are edges)
        if ping.ttl > 1 and self.role == ULTRAPEER:
            fwd = ping.forwarded()
            self.send_many(
                [nb for nb in self._connected_peers() if nb != msg.src],
                "PING", fwd, PING_SIZE,
            )
        elif self.role == ULTRAPEER:
            self.network.drop_counts["ttl"] += 1

    def on_pong(self, msg: Message) -> None:
        pong: Pong = msg.payload
        # forward along the ping's reverse path (its originator has no
        # route back and consumes), then learn the address passing through
        back = self._route_back.get(("PING", pong.guid))
        if back is not None:
            self.send(back, "PONG", pong, PONG_SIZE)
        self.learn_addresses((pong.peer,))

    def learn_addresses(self, peers: Iterable[int]) -> None:
        """Take PONG-advertised addresses, oldest first, into the
        hostcache and the most-recent-first pong cache.

        Same state as learning them one at a time: an address's final
        rank depends only on what was learned after its last mention,
        and ranks only grow between mentions, so one trim at the end
        cuts exactly what trimming after every address would have.
        """
        # last mention of each address, most recent first
        fresh = dict.fromkeys(reversed(tuple(peers)))
        fresh.pop(self.host_id, None)
        if not fresh:
            return
        self.hostcache.add_all(reversed(fresh))
        kept = [p for p in self._pong_cache if p not in fresh]
        self._pong_cache = (list(fresh) + kept)[: self.config.pong_cache_size]

    # ------------------------------------------------------------------ search
    def start_query(self, keyword: int) -> int:
        """Issue a query; returns its GUID (results collect in the network)."""
        guid = self.network.next_guid()
        query = Query(
            guid=guid, ttl=self.config.query_ttl, keyword=keyword, origin=self.host_id
        )
        self.network.register_query(guid, self.host_id, keyword)
        if self.network.query_plane_active():
            # frontier-batched expansion: the whole flood is computed as
            # array operations at issue time (same messages, same times)
            self.network.flood_kernel.expand_query(self, query)
            return guid
        self._mark_seen(("QUERY", guid))
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
        if self._saw(key):
            self.network.drop_counts["duplicate"] += 1
            return
        self._mark_seen(key)
        self._route_back[key] = msg.src
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
            fwd = query.forwarded()
            self.send_many(
                [nb for nb in self.neighbors if nb != from_peer],
                "QUERY", fwd, QUERY_SIZE,
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
        key = ("QUERY", hit.guid)
        if self.network.query_origin(hit.guid) == self.host_id:
            self.network.record_hit(hit.guid, hit.responder)
            return
        back = self._route_back.get(key)
        if back is None:
            return  # route evaporated (origin gone); drop silently
        self.send(back, "QUERYHIT", hit, QUERYHIT_SIZE)

    # ------------------------------------------------------------------ download
    def on_http_download(self, msg: Message) -> None:
        """Bulk content arriving over HTTP (outside the Gnutella mesh)."""
        self.network.record_download_complete(msg.payload, self.host_id)
