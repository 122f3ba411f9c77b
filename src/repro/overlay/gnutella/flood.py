"""Gnutella flood expansion.

A TTL flood — one QUERY, or the PINGs of a ping round — is expanded to
quiescence in one call, at the moment it is issued.  :class:`FloodKernel`
pops arrivals from a kernel-local ``(time, seq)`` heap, which is the
order the simulator would deliver them in; per-edge delivery times are
memoised scalar reads of the bus's latency provider; the set of hosts a
flood has reached and the reverse routes its QUERYHITs or PONGs follow
are one flood-local dict (``host -> previous hop``), so nothing a flood
needed outlives it.
Every message keeps per-message semantics — loss draws from the bus's
own RNG in per-destination send order, fault-hook interposition with
in-flight drops, TTL decrement, duplicate and TTL-expiry drops, traffic
observers and trace events per send — while stats, per-node counters,
and the sends owed to aggregate traffic observers (one ``observe_sends``
call per expansion, see :class:`~repro.sim.messages.TrafficObserver`)
are committed in aggregate at the end
(:meth:`MessageBus.account_external`).

The PONGs that answer one PING arrival (the node's own address plus
cached ones) travel as one *run* — one heap entry ``(guid, addresses)``
per hop instead of one per PONG.  The run invariant: messages share a
heap entry only if delivering them one at a time would pop them back
to back — same edge, same send time, same delivery time, and
consecutive sequence numbers, so they are adjacent in ``(time, seq)``
order; a fault-hook penalty that differs between two of them, or a
drop, ends the run and the next survivor starts another.  Observers,
trace events, the fault hook and the loss draw still see every PONG, in
send order.

A ping round learns once per node, when it ends.  Each PONG run a node
receives is appended to a round-local log, and one ``learn_addresses``
per node settles it; batching changes no learned state (see
:meth:`GnutellaNode.learn_addresses`).  The only reader of that state
inside a round is a PING answer, which takes its cached addresses from
the tail of the node's log and then from the pre-round pong cache —
the head eager learning would have left (:func:`_pong_head`).
Forwarding reads ``online``, the bus handlers and the round's routes,
none of which learning writes.

What "at the moment it is issued" means for everything else that moves
(DESIGN.md, "A flood is atomic"): the fault hook is called at expansion
time, with ``sim.now`` the issue time; membership changes, fault-hook
changes and other floods' loss draws that fall inside the flood's
simulated span are not seen by it.  ``tests/gnutella_reference.py``
keeps the one-event-per-message servent; on serial floods it sends the
same sorted ``(time, src, dst, kind, size)`` set (the send-log digest
in ``tests/sendlog.py``) bit for bit and ends
with the same counters, which ``tests/test_query_equivalence.py``
asserts.

This module lives in ``overlay`` (not ``sim``) because the kernel reads
protocol state — roles, neighbor sets, shared-content indexes, pong
caches — keeping ``sim`` below ``overlay`` in the import graph.
"""

from __future__ import annotations

import math
from collections import defaultdict
from heapq import heappop, heappush
from itertools import count
from typing import (
    TYPE_CHECKING,
    Callable,
    Hashable,
    Iterable,
    Optional,
    Sequence,
)

from repro.errors import OverlayError, SimulationError
from repro.overlay.gnutella.messages import (
    PING_SIZE,
    PONG_SIZE,
    QUERY_SIZE,
    QUERYHIT_SIZE,
)
from repro.overlay.gnutella.node import ULTRAPEER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.gnutella.messages import Query
    from repro.overlay.gnutella.network import GnutellaNetwork
    from repro.overlay.gnutella.node import GnutellaNode

_SIZES = {
    "QUERY": QUERY_SIZE,
    "QUERYHIT": QUERYHIT_SIZE,
    "PING": PING_SIZE,
    "PONG": PONG_SIZE,
}

# accumulator columns: [sent, delivered, dropped_loss, dropped_fault,
# dropped_no_handler] per kind
_SENT, _DELIV, _LOSS, _FAULT, _NH = range(5)

# kernel-heap event codes (first message of each expansion kind)
_FWD = 0   # QUERY or PING propagating outward
_BACK = 1  # QUERYHIT or PONG routing back

#: the src -> {dst -> delay} memo is cleared past this many source rows
#: (each row is bounded by node degree; delays are deterministic per
#: pair, so dropping entries is only a perf event)
_MEMO_CAP = 1 << 17


def _quiesce() -> None:
    """No-op scheduled at an expansion's last virtual delivery time, so
    ``sim.run()`` advances the clock to the flood's final delivery."""


class _Emitter:
    """The send half of the kernel loop: :meth:`emit` for one message,
    :meth:`emit_run` for a burst over one edge, both replicating
    ``MessageBus._send_one`` — accounting, observers, trace events,
    fault hook, delay validation, loss draw — against the *virtual* send
    time, pushing survivors onto the kernel heap."""

    __slots__ = (
        "_bus", "_heap", "_acc", "_sent_by", "_seq", "_delay",
        "_per_message", "_aggregating", "_edge_sends", "_tracer",
        "uniform",
    )

    def __init__(self, kernel: "FloodKernel", heap: list, acc: dict,
                 sent_by: dict) -> None:
        self._bus = kernel.net.bus
        self._heap = heap
        self._acc = acc
        self._sent_by = sent_by
        self._seq = count()
        self._delay = kernel._delay
        # each observer's shape is resolved once per expansion:
        # aggregate ones get the expansion's (src, dst, kind) -> sends
        # in one observe_sends at commit; the rest are called per
        # message, (True, record) when time-aware (the test suite's
        # SendLog), else (False, observe)
        self._per_message: list[tuple[bool, Callable]] = []
        self._aggregating: list[Callable] = []
        for ob in self._bus._observers:
            if hasattr(ob, "observe_sends"):
                self._aggregating.append(ob.observe_sends)
            elif hasattr(ob, "record"):
                self._per_message.append((True, ob.record))
            else:
                self._per_message.append((False, ob.observe))
        #: (src, dst, kind) -> sends, in first-send order
        self._edge_sends: dict[tuple[int, int, str], int] = {}
        self._tracer = self._bus._tracer
        #: no per-message observer, tracer, fault hook or loss draw:
        #: every send over an edge meets the same fate, the edge's delay
        #: (the query loop inlines such sends)
        self.uniform = (
            not self._per_message
            and self._tracer is None
            and self._bus._fault_hook is None
            and not self._bus._loss_rate
        )

    def _offer(
        self, t: float, src: int, dst: int, kind: str
    ) -> Optional[float]:
        """Everything the bus does to one message between accounting and
        scheduling; its delay, or ``None`` when it is dropped."""
        size = _SIZES[kind]
        for timed, call in self._per_message:
            if timed:
                call(t, src, dst, kind, size)
            else:
                call(src, dst, size, kind)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "bus", "send", time=t, src=src, dst=dst, kind=kind, size=size
            )
        bus = self._bus
        d = self._delay(src, dst)
        if bus._fault_hook is not None:
            penalty = bus._fault_hook(src, dst, kind)
            if penalty == math.inf:
                self._acc[kind][_FAULT] += 1
                if tracer is not None:
                    tracer.emit(
                        "bus", "drop", time=t,
                        src=src, dst=dst, kind=kind, reason="fault",
                    )
                return None
            d += penalty
        if d < 0.0:
            raise SimulationError(
                f"negative total delay {d} for {kind} {src}->{dst} "
                f"(extra_delay/fault penalty exceeds the underlay latency)"
            )
        if bus._loss_rate and bus._loss_rng.random() < bus._loss_rate:
            self._acc[kind][_LOSS] += 1
            if tracer is not None:
                tracer.emit(
                    "bus", "drop", time=t,
                    src=src, dst=dst, kind=kind, reason="loss",
                )
            return None
        return d

    def emit(
        self,
        t: float,
        src: int,
        dst: int,
        kind: str,
        code: int,
        aux,
    ) -> None:
        self._acc[kind][_SENT] += 1
        self._sent_by[kind][src] += 1
        if self._aggregating:
            edge = (src, dst, kind)
            sends = self._edge_sends
            sends[edge] = sends.get(edge, 0) + 1
        if self.uniform:
            d = self._delay(src, dst)
        else:
            d = self._offer(t, src, dst, kind)
            if d is None:
                return
        heappush(self._heap, (t + d, next(self._seq), code, src, dst, aux))

    def emit_run(
        self,
        t: float,
        src: int,
        dst: int,
        kind: str,
        code: int,
        guid: int,
        items: Sequence,
    ) -> None:
        """Send ``items`` (one message each, in order) over one edge at
        one time as heap entries ``(guid, run)``, one per stretch of
        consecutive survivors that share a delivery time.  Only lossy,
        faulted or traced rounds come here; uniform rounds push their
        runs inline."""
        n = len(items)
        self._acc[kind][_SENT] += n
        self._sent_by[kind][src] += n
        if self._aggregating:
            edge = (src, dst, kind)
            sends = self._edge_sends
            sends[edge] = sends.get(edge, 0) + n
        heap = self._heap
        # a run is pushed when its first survivor is known and filled
        # in place: (time, seq) are all the heap orders on
        run_d = None
        for item in items:
            d = self._offer(t, src, dst, kind)
            if d is None:
                continue
            if d != run_d:
                run_d = d
                run: list = []
                heappush(
                    heap, (t + d, next(self._seq), code, src, dst, (guid, run))
                )
            run.append(item)

    def hand_over_aggregates(self) -> None:
        """The expansion's ``(src, dst, kind) -> sends``, in first-send
        order, to every aggregate observer in one call each."""
        for observe_sends in self._aggregating:
            observe_sends(self._edge_sends, _SIZES)


class FloodKernel:
    """Expansion of Gnutella descriptor floods for one network."""

    def __init__(self, net: "GnutellaNetwork") -> None:
        self.net = net
        self._lat = net.bus.latency
        self._memo: dict[Hashable, dict[Hashable, float]] = {}

    def _memo_row(self, src: int) -> dict:
        memo = self._memo
        row = memo.get(src)
        if row is None:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            row = memo[src] = {}
        return row

    def _delay(self, src: int, dst: int) -> float:
        row = self._memo_row(src)
        d = row.get(dst)
        if d is None:
            d = row[dst] = self._lat.one_way_delay(src, dst)
        return d

    def _commit(
        self, em: _Emitter, acc: dict, sent_by: dict, recv_by: dict
    ) -> None:
        """Fold the expansion's aggregate accounting into the bus stats,
        aggregate traffic observers, and per-node counters — one pass
        per kind, one call per observer and one update per (node, kind)
        instead of one update per message."""
        net = self.net
        bus = net.bus
        nodes = net.nodes
        for kind, a in acc.items():
            if any(a):
                bus.account_external(
                    kind,
                    sent=a[_SENT],
                    bytes_sent=a[_SENT] * _SIZES[kind],
                    delivered=a[_DELIV],
                    dropped_loss=a[_LOSS],
                    dropped_fault=a[_FAULT],
                    dropped_no_handler=a[_NH],
                )
        em.hand_over_aggregates()
        for kind, per_host in sent_by.items():
            for host, n in per_host.items():
                node = nodes[host]
                node.sent_counts[kind] += n
        for kind, per_host in recv_by.items():
            for host, n in per_host.items():
                node = nodes[host]
                node.received_counts[kind] += n

    # ------------------------------------------------------------------ queries
    def expand_query(self, origin: "GnutellaNode", query: "Query") -> None:
        """Expand one QUERY flood (issued by ``origin``) to quiescence.

        Hits arriving at the origin are committed through
        ``sim.schedule_many`` at their virtual delivery times, so a
        search's first-hit latency is the simulated one.
        """
        net = self.net
        bus = net.bus
        sim = net.sim
        nodes = net.nodes
        handlers = bus._handlers
        t0 = sim.now
        guid = query.guid
        keyword = query.keyword
        init_ttl = query.ttl
        origin_host = origin.host_id

        #: host -> the peer its first copy came from: membership is
        #: duplicate suppression, the value is the QUERYHIT route back
        route: dict[int, Optional[int]] = {origin_host: None}
        acc = {"QUERY": [0] * 5, "QUERYHIT": [0] * 5}
        sent_by: dict = {
            "QUERY": defaultdict(int), "QUERYHIT": defaultdict(int)
        }
        recv_by: dict = {
            "QUERY": defaultdict(int), "QUERYHIT": defaultdict(int)
        }
        heap: list = []
        em = _Emitter(self, heap, acc, sent_by)
        emit = em.emit
        dup_drops = 0
        ttl_drops = 0
        hit_commits: list[tuple[float, int]] = []

        # -- origin expansion (the synchronous part of start_query) ----------
        if origin.role == ULTRAPEER:
            responders: list[int] = []
            if keyword in origin.shared:
                responders.append(origin_host)
            responders.extend(sorted(origin.leaf_index.get(keyword, ())))
            for responder in responders:
                net.record_hit(guid, responder)
            if init_ttl > 1:
                targets = list(origin.neighbors)
                fwd_ttl = init_ttl - 1
            else:
                targets = []
                fwd_ttl = 0
                ttl_drops += 1
        else:
            # a leaf hands the query to its ultrapeers, TTL unchanged
            targets = list(origin.neighbors)
            fwd_ttl = init_ttl
        if targets and not origin.online:
            raise OverlayError(
                f"node {origin_host} tried to send QUERY while offline"
            )
        for dst in targets:
            emit(t0, origin_host, dst, "QUERY", _FWD, fwd_ttl)

        # -- frontier loop: arrivals in simulator (time, seq) order -----------
        # hoisted locals: this loop touches every message of the flood
        acc_q = acc["QUERY"]
        acc_h = acc["QUERYHIT"]
        sent_q = sent_by["QUERY"]
        recv_q = recv_by["QUERY"]
        recv_h = recv_by["QUERYHIT"]
        uniform = em.uniform
        aggregating = bool(em._aggregating)
        edge_sends = em._edge_sends
        memo_row = self._memo_row
        one_way = self._lat.one_way_delay
        seq = em._seq
        nodes_get = nodes.get
        last_t = t0
        while heap:
            t, _s, code, src, dst, aux = heappop(heap)
            last_t = t
            if code == _FWD:
                if dst not in handlers:
                    acc_q[_NH] += 1
                    continue
                acc_q[_DELIV] += 1
                node = nodes_get(dst)
                if node is None or not node.online:
                    continue
                recv_q[dst] += 1
                if dst in route:
                    dup_drops += 1
                    continue
                route[dst] = src
                ttl = aux
                responders = []
                if keyword in node.shared:
                    responders.append(dst)
                responders.extend(sorted(node.leaf_index.get(keyword, ())))
                for responder in responders:
                    emit(t, dst, src, "QUERYHIT", _BACK, responder)
                if ttl > 1 and node.role == ULTRAPEER:
                    fts = [nb for nb in node.neighbors if nb != src]
                    if uniform:
                        # inlined emit: forwards are the bulk of a flood
                        ttl1 = ttl - 1
                        n_fts = len(fts)
                        acc_q[_SENT] += n_fts
                        sent_q[dst] += n_fts
                        row = memo_row(dst)
                        row_get = row.get
                        for nb in fts:
                            dd = row_get(nb)
                            if dd is None:
                                dd = row[nb] = one_way(dst, nb)
                            heappush(
                                heap, (t + dd, next(seq), _FWD, dst, nb, ttl1)
                            )
                        if aggregating:
                            for nb in fts:
                                edge = (dst, nb, "QUERY")
                                edge_sends[edge] = edge_sends.get(edge, 0) + 1
                    else:
                        for nb in fts:
                            emit(t, dst, nb, "QUERY", _FWD, ttl - 1)
                elif node.role == ULTRAPEER:
                    ttl_drops += 1
            else:  # QUERYHIT routing back toward the origin
                if dst not in handlers:
                    acc_h[_NH] += 1
                    continue
                acc_h[_DELIV] += 1
                node = nodes_get(dst)
                if node is None or not node.online:
                    continue
                recv_h[dst] += 1
                if dst == origin_host:
                    hit_commits.append((t, aux))
                    continue
                emit(t, dst, route[dst], "QUERYHIT", _BACK, aux)

        # -- commit ------------------------------------------------------------
        self._commit(em, acc, sent_by, recv_by)
        net.drop_counts["duplicate"] += dup_drops
        net.drop_counts["ttl"] += ttl_drops
        if hit_commits:
            # hits reach the origin at their virtual delivery times, so
            # first-hit latency and listener firing order are preserved
            sim.schedule_many(
                (ht - t0, net.record_hit, (guid, responder))
                for ht, responder in hit_commits
            )
        if last_t > t0:
            sim.schedule(last_t - t0, _quiesce)

    # ------------------------------------------------------------------ pings
    def expand_ping_round(self, origins: Iterable["GnutellaNode"]) -> None:
        """Expand one PING round (every online node of ``origins`` pings
        its connected peers at the current time) to quiescence.

        The PONGs answering one PING arrival travel as one run per hop
        (see the module docstring).  Learning settles once per node when
        the round ends: each PONG run a node receives is appended to its
        round-local log, one ``learn_addresses(log)`` per node applies
        them all, and a PING answer reads its cached addresses from the
        log and the pre-round pong cache (:func:`_pong_head`) — what
        learning each run as it arrived would have left there.
        """
        net = self.net
        bus = net.bus
        nodes = net.nodes
        handlers = bus._handlers
        cfg = net.config
        t0 = net.sim.now
        pongs_head = cfg.pongs_per_ping - 1
        cache_cap = cfg.pong_cache_size

        acc = {"PING": [0] * 5, "PONG": [0] * 5}
        sent_by: dict = {"PING": defaultdict(int), "PONG": defaultdict(int)}
        recv_by: dict = {"PING": defaultdict(int), "PONG": defaultdict(int)}
        heap: list = []
        em = _Emitter(self, heap, acc, sent_by)
        emit = em.emit
        emit_run = em.emit_run
        dup_drops = 0
        ttl_drops = 0
        #: per PING guid, host -> the peer its first copy came from:
        #: membership is duplicate suppression, the value is the PONG
        #: route back (``None`` at the originator, which consumes)
        routes: dict[int, dict[int, Optional[int]]] = {}
        origin_of: dict[int, int] = {}
        #: host -> its connected peers, read once per round
        peers_of: dict[int, list[int]] = {}
        #: host -> every PONG address it received this round, in arrival
        #: order; learned at the end of the round
        logs: dict[int, list[int]] = {}

        # all pings are issued synchronously at t0, in the order given
        for node in origins:
            if not node.online:
                continue
            host = node.host_id
            guid = net.next_guid()
            origin_of[guid] = host
            routes[guid] = {host: None}
            peers = peers_of[host] = node._connected_peers()
            for dst in peers:
                emit(t0, host, dst, "PING", _FWD, (guid, cfg.ping_ttl))

        # hoisted locals: this loop touches every message of the round
        acc_ping = acc["PING"]
        acc_pong = acc["PONG"]
        sent_ping = sent_by["PING"]
        sent_pong = sent_by["PONG"]
        recv_ping = recv_by["PING"]
        recv_pong = recv_by["PONG"]
        uniform = em.uniform
        aggregating = bool(em._aggregating)
        edge_sends = em._edge_sends
        memo_row = self._memo_row
        one_way = self._lat.one_way_delay
        seq = em._seq
        nodes_get = nodes.get
        logs_get = logs.get
        last_t = t0
        while heap:
            t, _s, code, src, dst, aux = heappop(heap)
            last_t = t
            guid, arg = aux
            route = routes[guid]
            if code == _FWD:  # PING arrival
                if dst not in handlers:
                    acc_ping[_NH] += 1
                    continue
                acc_ping[_DELIV] += 1
                node = nodes_get(dst)
                if node is None or not node.online:
                    continue
                recv_ping[dst] += 1
                if dst in route:
                    dup_drops += 1
                    continue
                route[dst] = src
                ttl = arg
                # answer: own pong + cached addresses (skip the origin)
                origin = origin_of[guid]
                log = logs_get(dst)
                cached = (
                    node._pong_cache[:pongs_head] if log is None
                    else _pong_head(
                        log, dst, node._pong_cache, pongs_head, cache_cap
                    )
                )
                burst = [dst] + [c for c in cached if c != origin]
                relay = ttl > 1 and node.role == ULTRAPEER
                if relay:
                    fts = peers_of.get(dst)
                    if fts is None:
                        fts = peers_of[dst] = node._connected_peers()
                elif node.role == ULTRAPEER:
                    ttl_drops += 1
                if uniform:
                    # inlined emit_run / emit, as in expand_query
                    row = memo_row(dst)
                    row_get = row.get
                    n = len(burst)
                    acc_pong[_SENT] += n
                    sent_pong[dst] += n
                    if aggregating:
                        edge = (dst, src, "PONG")
                        edge_sends[edge] = edge_sends.get(edge, 0) + n
                    dd = row_get(src)
                    if dd is None:
                        dd = row[src] = one_way(dst, src)
                    heappush(
                        heap, (t + dd, next(seq), _BACK, dst, src, (guid, burst))
                    )
                    if relay:
                        fwd = (guid, ttl - 1)
                        n_fts = 0
                        for nb in fts:
                            if nb == src:
                                continue
                            n_fts += 1
                            dd = row_get(nb)
                            if dd is None:
                                dd = row[nb] = one_way(dst, nb)
                            heappush(
                                heap, (t + dd, next(seq), _FWD, dst, nb, fwd)
                            )
                            if aggregating:
                                edge = (dst, nb, "PING")
                                edge_sends[edge] = edge_sends.get(edge, 0) + 1
                        acc_ping[_SENT] += n_fts
                        sent_ping[dst] += n_fts
                else:
                    emit_run(t, dst, src, "PONG", _BACK, guid, burst)
                    if relay:
                        for nb in fts:
                            if nb != src:
                                emit(t, dst, nb, "PING", _FWD, (guid, ttl - 1))
            else:  # PONG run arrival (arg = advertised peer addresses)
                n = len(arg)
                if dst not in handlers:
                    acc_pong[_NH] += n
                    continue
                acc_pong[_DELIV] += n
                node = nodes_get(dst)
                if node is None or not node.online:
                    continue
                recv_pong[dst] += n
                # forward along the reverse route (the originator has
                # none and consumes), then log the run for learning
                back = route[dst]
                if back is not None:
                    if uniform:
                        acc_pong[_SENT] += n
                        sent_pong[dst] += n
                        if aggregating:
                            edge = (dst, back, "PONG")
                            edge_sends[edge] = edge_sends.get(edge, 0) + n
                        row = memo_row(dst)
                        dd = row.get(back)
                        if dd is None:
                            dd = row[back] = one_way(dst, back)
                        heappush(
                            heap, (t + dd, next(seq), _BACK, dst, back, aux)
                        )
                    else:
                        emit_run(t, dst, back, "PONG", _BACK, guid, arg)
                log = logs_get(dst)
                if log is None:
                    logs[dst] = list(arg)
                else:
                    log.extend(arg)

        for host, log in logs.items():
            nodes[host].learn_addresses(log)
        self._commit(em, acc, sent_by, recv_by)
        net.drop_counts["duplicate"] += dup_drops
        net.drop_counts["ttl"] += ttl_drops
        if last_t > t0:
            net.sim.schedule(last_t - t0, _quiesce)


def _pong_head(
    log: Sequence[int], own: int, pong_cache: list[int], n: int, cap: int
) -> list[int]:
    """``pong_cache[:n]`` as it would read had host ``own`` learned
    ``log`` (PONG addresses, oldest first) with ``learn_addresses``,
    which trims its pong cache to ``cap`` entries.

    Learning puts the log's distinct addresses, most recent first and
    ``own`` left out, ahead of the cached entries the log does not
    mention; so the head is the log's tail read backwards, then the
    cache.
    """
    need = n if n < cap else cap
    if need <= 0:
        return []
    head: list[int] = []
    for p in reversed(log):
        if p != own and p not in head:
            head.append(p)
            need -= 1
            if not need:
                return head
    if not head:  # nothing learnable: the cache is untouched
        return pong_cache[:n]
    # the whole log was read, so ``head`` is everything it teaches
    for c in pong_cache:
        if c not in head:
            head.append(c)
            need -= 1
            if not need:
                break
    return head


__all__ = ["FloodKernel"]
