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

The handshake, SHARE and the HTTP download are messages on the
:class:`~repro.sim.messages.MessageBus`, handled here.  The two floods
are not: :meth:`GnutellaNetwork.ping_round` and
:meth:`GnutellaNode.start_query` hand the descriptor to the network's
:class:`~repro.overlay.gnutella.flood.FloodKernel`, which expands the
whole flood against this node's state (roles, neighbor sets, content
index, pong cache) and accounts every hop on the bus, so underlay
traffic accounting still sees every hop of every descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import OverlayError
from repro.overlay.base import OverlayNode
from repro.overlay.gnutella.hostcache import HostCache
from repro.overlay.gnutella.messages import (
    CONNECT_SIZE,
    ConnectReply,
    ConnectRequest,
    Query,
)
from repro.sim.engine import Simulation
from repro.sim.messages import Message, MessageBus
from repro.sim.requests import RequestManager, RetryPolicy
from repro.underlay.hosts import Host

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.gnutella.network import GnutellaNetwork

ULTRAPEER = "ultrapeer"
LEAF = "leaf"

#: connect handshake retry policy: base deadline and retransmissions
#: (each doubling the deadline, capped at four times the base)
CONNECT_TIMEOUT_MS = 4000.0
CONNECT_MAX_RETRIES = 1
#: leaves an ultrapeer accepts
MAX_LEAVES = 30


@dataclass(frozen=True)
class GnutellaConfig:
    """Protocol knobs (defaults sized for few-hundred-node simulations).

    The connect handshake is stop-and-wait, so a lost CONNECT_REQUEST or
    CONNECT_REPLY used to wedge the joining servent forever; it now runs
    under a retry policy (``CONNECT_TIMEOUT_MS`` base deadline,
    ``CONNECT_MAX_RETRIES`` retransmissions with doubled timeouts) and a
    final failure simply moves on to the next candidate.
    """

    query_ttl: int = 4
    ping_ttl: int = 2
    pongs_per_ping: int = 10
    max_up_neighbors: int = 6
    leaf_connections: int = 3
    hostcache_capacity: int = 1000
    pong_cache_size: int = 20

    def __post_init__(self) -> None:
        if self.query_ttl < 1 or self.ping_ttl < 1:
            raise OverlayError("TTLs must be >= 1")
        if self.leaf_connections < 1:
            raise OverlayError("leaves need at least one ultrapeer connection")
        if self.max_up_neighbors < 1:
            raise OverlayError("invalid capacity configuration")
        if self.pongs_per_ping < 1 or self.pong_cache_size < 1:
            raise OverlayError("pong parameters must be >= 1")


class GnutellaNode(OverlayNode):
    """One servent: connections, content index, pong cache."""
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
        self._pong_cache: list[int] = []
        self._pending_candidates: list[int] = []
        self.requests = RequestManager(
            sim,
            policy=RetryPolicy(
                timeout_ms=CONNECT_TIMEOUT_MS,
                max_retries=CONNECT_MAX_RETRIES,
                max_timeout_ms=4.0 * CONNECT_TIMEOUT_MS,
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
            return len(self.leaves) < MAX_LEAVES
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

    # ------------------------------------------------------------------ ping/pong
    def _connected_peers(self) -> list[int]:
        """All connected peer ids, ascending (deterministic fan-out)."""
        return sorted(self.neighbors | self.leaves)

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
        self.network.flood_kernel.expand_query(self, query)
        return guid

    # ------------------------------------------------------------------ download
    def on_http_download(self, msg: Message) -> None:
        """Bulk content arriving over HTTP (outside the Gnutella mesh)."""
        self.network.record_download_complete(msg.payload, self.host_id)
