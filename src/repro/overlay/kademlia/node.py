"""Kademlia node: RPCs and the iterative lookup state machine.

Implements the classic protocol (k-buckets, α-parallel iterative
FIND_NODE/FIND_VALUE, STORE replication to the k closest) plus the two
proximity techniques studied by Kaune et al. [17] for reducing inter-AS
DHT traffic:

- **PNS** (proximity neighbor selection): k-buckets retain the
  lowest-RTT contacts (see :class:`~repro.overlay.kademlia.kbucket.KBucket`);
- **PR** (proximity routing): among equally useful next hops the lookup
  queries the lowest-RTT one first.

RTTs are *measured*, not oracular: every RPC reply is timed on the
simulation clock and the observed RTT is attached to the contact before
it enters the routing table.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from repro.errors import OverlayError
from repro.overlay.base import OverlayNode
from repro.overlay.kademlia.id_space import validate_id
from repro.overlay.kademlia.kbucket import Contact
from repro.overlay.kademlia.routing_table import RoutingTable
from repro.sim.engine import Simulation
from repro.sim.messages import Message, MessageBus
from repro.sim.requests import RequestManager, RetryPolicy
from repro.underlay.hosts import Host

#: Approximate RPC sizes (bytes): header + ids/contact list.
RPC_REQUEST_SIZE = 72
RPC_REPLY_BASE = 40
CONTACT_WIRE_SIZE = 26

#: RPC retry policy: retransmissions after the first attempt, the
#: deadline's growth per attempt, and its cap as a multiple of
#: ``KademliaConfig.rpc_timeout_ms``
RPC_MAX_RETRIES = 2
RPC_BACKOFF_FACTOR = 2.0
RPC_MAX_TIMEOUT_FACTOR = 4.0


@dataclass(frozen=True)
class KademliaConfig:
    """Protocol constants: k, alpha, proximity modes, RPC timeout.

    ``RPC_MAX_RETRIES`` retransmissions (exponential backoff, factor
    ``RPC_BACKOFF_FACTOR``, deadline capped at ``RPC_MAX_TIMEOUT_FACTOR``
    times ``rpc_timeout_ms``) keep lookups alive over a lossy bus.
    """
    k: int = 8
    alpha: int = 3
    proximity_buckets: bool = False   # PNS
    proximity_routing: bool = False   # PR
    rpc_timeout_ms: float = 1500.0
    max_rounds: int = 32

    def __post_init__(self) -> None:
        if self.k < 1 or self.alpha < 1:
            raise OverlayError("k and alpha must be >= 1")
        if self.rpc_timeout_ms <= 0:
            raise OverlayError("rpc timeout must be positive")

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            timeout_ms=self.rpc_timeout_ms,
            max_retries=RPC_MAX_RETRIES,
            backoff_factor=RPC_BACKOFF_FACTOR,
            max_timeout_ms=RPC_MAX_TIMEOUT_FACTOR * self.rpc_timeout_ms,
        )


@dataclass
class LookupResult:
    """Outcome of one iterative lookup: closest contacts, values, timing."""
    target: int
    closest: list[Contact] = field(default_factory=list)
    values: set[int] = field(default_factory=set)
    found_value: bool = False
    started_at: float = 0.0
    finished_at: float = 0.0
    rpcs_sent: int = 0
    timeouts: int = 0

    @property
    def latency_ms(self) -> float:
        return self.finished_at - self.started_at


class _Lookup:
    """One iterative lookup in flight.

    ``target`` is validated by the constructor; a candidate id comes
    from the routing table or the heard-of table, which checked it when
    it entered the node, so distances inside the lookup are plain ``^``
    between checked ids.  ``shortlist`` holds every id not failed,
    nearest the target first, kept sorted as ids enter and fail;
    ``inflight`` counts the ids in ``_INFLIGHT``.  No decision sorts or
    scans ``state``.
    """

    _NEW, _INFLIGHT, _DONE, _FAILED = range(4)

    def __init__(
        self,
        node: "KademliaNode",
        target: int,
        *,
        find_value: bool,
        on_done: Callable[[LookupResult], None],
    ) -> None:
        self.node = node
        self.target = validate_id(target)
        self.find_value = find_value
        self.on_done = on_done
        self.result = LookupResult(target=target, started_at=node.sim.now)
        self.state: dict[int, int] = {}
        self.contact_of: dict[int, Contact] = {}
        self.shortlist: list[int] = []
        self.inflight = 0
        self.finished = False
        self._add_candidates(node.routing_table.closest(target, node.config.k))

    def _add_candidates(self, contacts: Iterable[Contact]) -> None:
        """New ids enter ``state`` and ``shortlist``; a known one keeps
        the lower-RTT of its contacts."""
        own_id = self.node.node_id
        state = self.state
        contact_of = self.contact_of
        shortlist = self.shortlist
        distance = self.target.__xor__
        for contact in contacts:
            node_id = contact.node_id
            if node_id == own_id:
                continue
            if node_id not in state:
                state[node_id] = self._NEW
                contact_of[node_id] = contact
                insort(shortlist, node_id, key=distance)
            elif contact.rtt_ms < contact_of[node_id].rtt_ms:
                contact_of[node_id] = contact

    def _fail(self, node_id: int) -> None:
        """An in-flight id failed: it leaves the shortlist for good."""
        self.state[node_id] = self._FAILED
        self.inflight -= 1
        distance = self.target.__xor__
        del self.shortlist[
            bisect_left(self.shortlist, distance(node_id), key=distance)
        ]

    def start(self) -> None:
        self._launch_queries()
        self._check_done()

    def _launch_queries(self) -> None:
        cfg = self.node.config
        budget = cfg.alpha - self.inflight
        if budget <= 0:
            return
        state = self.state
        candidates = [i for i in self.shortlist[: cfg.k] if state[i] == self._NEW]
        if cfg.proximity_routing:
            # PR: among the useful candidates, lowest measured RTT first.
            # Only the alpha cheapest are dispatched, so take them with a
            # single scan instead of sorting the whole candidate list
            # (nsmallest == sorted(...)[:budget], same tie-break key).
            candidates = heapq.nsmallest(
                budget,
                candidates,
                key=lambda i: (self.contact_of[i].rtt_ms, i ^ self.target),
            )
        dispatch = candidates[:budget]
        for nid in dispatch:
            state[nid] = self._INFLIGHT
        self.inflight += len(dispatch)
        self.result.rpcs_sent += len(dispatch)
        if dispatch:
            self.node._send_lookup_rpcs(
                self, [self.contact_of[nid] for nid in dispatch]
            )

    def on_reply(
        self,
        queried_id: int,
        responder: Contact,
        contacts: list[Contact],
        values: set[int],
    ) -> None:
        """``responder`` answered the RPC that was sent to ``queried_id``."""
        if self.finished:
            return
        inflight = self.state.get(queried_id) == self._INFLIGHT
        if responder.node_id == queried_id:
            if inflight:
                self.state[queried_id] = self._DONE
                self.inflight -= 1
            self.contact_of[queried_id] = responder
        else:
            # the host rejoined under a fresh id: the id we queried is
            # gone for good, the id it answers under is one more candidate
            if inflight:
                self._fail(queried_id)
            self._add_candidates((responder,))
        if self.find_value and values:
            self.result.values |= values
            self.result.found_value = True
            self._finish()
            return
        self._add_candidates(contacts)
        self._launch_queries()
        self._check_done()

    def on_timeout(self, node_id: int) -> None:
        if self.finished:
            return
        if self.state.get(node_id) == self._INFLIGHT:
            self._fail(node_id)
            self.result.timeouts += 1
        self._launch_queries()
        self._check_done()

    def _check_done(self) -> None:
        if self.finished or self.inflight:
            return
        # nothing in flight: done once none of the k closest is still new
        closest = self.shortlist[: self.node.config.k]
        if self._NEW not in map(self.state.__getitem__, closest):
            self._finish()

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        self.result.finished_at = self.node.sim.now
        state = self.state
        self.result.closest = [
            self.contact_of[i]
            for i in self.shortlist[: self.node.config.k]
            if state[i] == self._DONE
        ]
        self.on_done(self.result)


class KademliaNode(OverlayNode):
    """One DHT participant: routing table, storage, RPCs, lookup machine."""

    def __init__(
        self,
        host: Host,
        sim: Simulation,
        bus: MessageBus,
        node_id: int,
        config: KademliaConfig | None = None,
        rtt_estimator: Optional[Callable[[int, int], float]] = None,
    ) -> None:
        super().__init__(host, sim, bus)
        self.config = config or KademliaConfig()
        #: predicts RTT to a host we have not measured yet (e.g. network
        #: coordinates, §3.2 prediction methods); enables PNS/PR to act on
        #: heard-of contacts.  Signature: (my_host_id, other_host_id) -> ms.
        self.rtt_estimator = rtt_estimator
        self.node_id = validate_id(node_id)
        self.routing_table = RoutingTable(
            node_id, k=self.config.k, proximity=self.config.proximity_buckets
        )
        self.storage: dict[int, set[int]] = {}
        #: (node_id, host_id) -> the one unmeasured Contact for that pair;
        #: a KademliaNetwork replaces it with the table all its nodes share
        self._heard: dict[tuple[int, int], Contact] = {}
        self._rpc_seq = itertools.count()
        # rpc_id -> (lookup, contact, first_sent_at); timeouts/retries are
        # owned by the request manager
        self._pending: dict[int, tuple[_Lookup, Contact, float]] = {}
        self.requests = RequestManager(
            sim, policy=self.config.retry_policy(), component="kademlia"
        )

    def shutdown(self) -> None:
        super().shutdown()
        # each unanswered RPC's lookup holds this node: drop them
        self._pending.clear()

    # -- wire helpers ------------------------------------------------------------
    def contact(self) -> Contact:
        return self._heard_of(self.node_id, self.host_id)

    def _heard_of(self, node_id: int, host_id: int) -> Contact:
        """The unmeasured contact for ``(node_id, host_id)``, built once
        per table; the id is checked when the pair is first seen.  Only a
        plain ``int`` id is looked up: any other type, even one equal to
        a known id (``12.0``), is checked as a new id and never kept."""
        if type(node_id) is not int:
            return Contact(validate_id(node_id), host_id)
        contact = self._heard.get((node_id, host_id))
        if contact is None:
            contact = Contact(validate_id(node_id), host_id)
            self._heard[node_id, host_id] = contact
        return contact

    def _observe(self, contacts: Iterable[Contact]) -> None:
        """Learn ``contacts`` with one table write; an unmeasured one
        enters with the estimator's RTT when there is an estimator."""
        estimate = self.rtt_estimator
        if estimate is not None:
            contacts = [
                c if math.isfinite(c.rtt_ms)
                else replace(c, rtt_ms=float(estimate(self.host_id, c.host_id)))
                for c in contacts
            ]
        self.routing_table.update_many(contacts)

    def _send_lookup_rpcs(
        self, lookup: _Lookup, target_contacts: "list[Contact]"
    ) -> None:
        """Dispatch one lookup round: its RPCs transmit in contact order,
        then all first-attempt timeouts are armed with a single heap
        insert through :meth:`RequestManager.issue_many`."""
        if not self.online:
            # a crashed node's lookup cannot transmit; fail the candidates
            # asynchronously so the lookup machine unwinds without sending
            self.sim.schedule_many(
                (0.0, lookup.on_timeout, (c.node_id,)) for c in target_contacts
            )
            return
        kind = "FIND_VALUE" if lookup.find_value else "FIND_NODE"
        items = []
        for contact in target_contacts:
            rpc_id = next(self._rpc_seq)
            payload = {
                "rpc_id": rpc_id,
                "target": lookup.target,
                "sender_id": self.node_id,
            }
            self._pending[rpc_id] = (lookup, contact, self.sim.now)

            def transmit(
                host: int = contact.host_id, p: dict = payload
            ) -> None:
                if self.online:
                    self.send(host, kind, p, RPC_REQUEST_SIZE)

            items.append(
                (rpc_id, transmit, lambda r=rpc_id: self._rpc_failed(r))
            )
        self.requests.issue_many(items)

    def _rpc_failed(self, rpc_id: int) -> None:
        """All attempts timed out: purge the contact, notify the lookup."""
        entry = self._pending.pop(rpc_id, None)
        if entry is None:
            return
        lookup, contact, _sent = entry
        self.routing_table.remove(contact.node_id)
        lookup.on_timeout(contact.node_id)

    # -- server side -----------------------------------------------------------------
    def _reply_contacts(self, msg: Message, with_values: bool) -> None:
        req = msg.payload
        requester = self._heard_of(req["sender_id"], msg.src)
        target = req["target"]
        closest = [
            c
            for c in self.routing_table.closest(target, self.config.k)
            if c.host_id != msg.src
        ]
        values = self.storage.get(target, set()) if with_values else set()
        kind = "FIND_VALUE_REPLY" if with_values else "FIND_NODE_REPLY"
        self.send(
            msg.src,
            kind,
            {
                "rpc_id": req["rpc_id"],
                "sender_id": self.node_id,
                "contacts": [(c.node_id, c.host_id) for c in closest],
                "values": set(values),
            },
            RPC_REPLY_BASE + CONTACT_WIRE_SIZE * len(closest) + 8 * len(values),
        )
        # learn the requester
        self._observe((requester,))

    def on_find_node(self, msg: Message) -> None:
        self._reply_contacts(msg, with_values=False)

    def on_find_value(self, msg: Message) -> None:
        self._reply_contacts(msg, with_values=True)

    def on_store(self, msg: Message) -> None:
        req = msg.payload
        key = validate_id(req["key"])
        requester = self._heard_of(req["sender_id"], msg.src)
        self.storage.setdefault(key, set()).add(req["value"])
        self._observe((requester,))
        self.send(
            msg.src,
            "STORE_ACK",
            {"rpc_id": req["rpc_id"], "sender_id": self.node_id},
            RPC_REPLY_BASE,
        )

    def on_store_ack(self, msg: Message) -> None:
        # acks carry no lookup state; just refresh the contact
        rep = msg.payload
        self._observe((self._heard_of(rep["sender_id"], msg.src),))

    # -- client side --------------------------------------------------------------------
    def _on_lookup_reply(self, msg: Message) -> None:
        rep = msg.payload
        entry = self._pending.pop(rep["rpc_id"], None)
        if entry is None:
            return  # reply after final failure
        lookup, queried, sent_at = entry
        self.requests.resolve(rep["rpc_id"])
        responder = Contact(rep["sender_id"], msg.src, self.sim.now - sent_at)
        # heard-of (not measured) contacts enter the lookup, and the
        # routing table only if there is room / they win on proximity;
        # every id is checked before the table is written
        contacts = [self._heard_of(nid, hid) for nid, hid in rep["contacts"]]
        if responder.node_id == queried.node_id:
            self._observe([responder, *contacts])
        else:
            self._observe((responder,))
            self.routing_table.remove(queried.node_id)
            self._observe(contacts)
        lookup.on_reply(
            queried.node_id, responder, contacts, set(rep.get("values", ()))
        )

    def on_find_node_reply(self, msg: Message) -> None:
        self._on_lookup_reply(msg)

    def on_find_value_reply(self, msg: Message) -> None:
        self._on_lookup_reply(msg)

    # -- public operations ---------------------------------------------------------------
    def iterative_find_node(
        self, target: int, on_done: Callable[[LookupResult], None]
    ) -> _Lookup:
        lookup = _Lookup(self, target, find_value=False, on_done=on_done)
        lookup.start()
        return lookup

    def iterative_find_value(
        self, key: int, on_done: Callable[[LookupResult], None]
    ) -> _Lookup:
        if key in self.storage:
            # local hit: resolve immediately
            res = LookupResult(
                target=key,
                values=set(self.storage[key]),
                found_value=True,
                started_at=self.sim.now,
                finished_at=self.sim.now,
            )
            on_done(res)
            lookup = _Lookup(self, key, find_value=True, on_done=lambda r: None)
            lookup.finished = True
            return lookup
        lookup = _Lookup(self, key, find_value=True, on_done=on_done)
        lookup.start()
        return lookup

    def store_value(
        self,
        key: int,
        value: int,
        on_done: Optional[Callable[[LookupResult], None]] = None,
    ) -> None:
        """Publish ``value`` under ``key`` on the k closest nodes."""

        def _store_at(result: LookupResult) -> None:
            for c in result.closest:
                rpc_id = next(self._rpc_seq)
                self.send(
                    c.host_id,
                    "STORE",
                    {
                        "rpc_id": rpc_id,
                        "key": key,
                        "value": value,
                        "sender_id": self.node_id,
                    },
                    RPC_REQUEST_SIZE + 8,
                )
            # store locally too if we are among the closest... Kademlia
            # leaves this to the k-closest rule; keep the simple variant.
            if on_done is not None:
                on_done(result)

        self.iterative_find_node(key, _store_at)

    def bootstrap(self, seeds: list[Contact], on_done=None) -> None:
        """Insert seed contacts and look up our own id to fill buckets."""
        self.routing_table.update_many(seeds)
        self.iterative_find_node(self.node_id, on_done or (lambda r: None))
