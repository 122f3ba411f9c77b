"""The flood kernel vs the per-message reference servent
(``tests/gnutella_reference.py``).

The equivalence currency is the message-level send log: the sorted
``(time, src, dst, kind, size)`` tuple set of every bus send, hashed by
:func:`flood_trace_digest`.  Both must be bit-identical on it —
and on bus stats, ``message_counts()`` (including the drop counters),
per-node counters, what every node learned from the ping round (pong
cache and hostcache, in order), search hits, and first-hit latencies —
across seeds,
loss rates (serial floods), whole-run fault windows and TTL edge cases.

A :class:`TrafficAccountant` rides on the same bus ahead of the
``SendLog``: the kernel hands it one aggregate per ``(src, dst, kind)``
at commit while the reference calls it per message, and every table it
keeps must come out the same.
"""

import heapq
import math
from collections import Counter
from functools import lru_cache
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import OverlayError
from repro.faults import DelayFault, FaultInjector, FaultSchedule, LossFault
from repro.overlay.gnutella import (
    GnutellaConfig, GnutellaNetwork, GnutellaNode, flood,
)
from repro.overlay.kademlia.network import KademliaNetwork
from repro.sim import Simulation
from repro.sim.messages import MessageBus
from repro.underlay import TrafficAccountant, Underlay, UnderlayConfig
from tests.gnutella_reference import ReferenceGnutellaNetwork
from tests.sendlog import SendLog
from tests.test_traffic_oracle import state as traffic_state

SEEDS = (7, 11, 23)

_NETWORKS = {"batch": GnutellaNetwork, "reference": ReferenceGnutellaNetwork}

# one shared (read-only) underlay per population size keeps these tests
# from re-running topology generation for every arm
_UNDERLAYS: dict = {}


def _underlay(n_hosts, seed=13):
    """The shared underlay of one population size."""
    key = (n_hosts, seed)
    if key not in _UNDERLAYS:
        _UNDERLAYS[key] = Underlay.generate(
            UnderlayConfig(n_hosts=n_hosts, seed=seed)
        )
    return _UNDERLAYS[key]


def _build(backend, *, seed, n_hosts=45, loss=0.0, ttl=5,
           fault_schedule=None, accounting=True, send_log=True):
    u = _underlay(n_hosts)
    sim = Simulation()
    bus = MessageBus(sim, u, loss_rate=loss, loss_seed=seed)
    acct = None
    if accounting:
        # every run here ends inside the first 300 s billing bucket, so
        # billing a kernel expansion at its start time changes no bucket
        acct = TrafficAccountant(
            u.topology, u.routing, u.asn_of, clock=lambda: sim.now / 1000.0
        )
        bus.add_observer(acct)
    # a per-message observer: without it (and loss, faults, tracer) the
    # kernel's sends are uniform and take its inlined paths
    log = None
    if send_log:
        log = SendLog(sim)
        bus.add_observer(log)
    net = _NETWORKS[backend](
        u, sim, bus, config=GnutellaConfig(query_ttl=ttl), rng=seed,
    )
    injector = None
    if fault_schedule is not None:
        injector = FaultInjector(sim, bus, fault_schedule, seed=seed)
        injector.start()
    net.add_population(u.hosts)
    net.bootstrap(cache_fill=30)
    net.join_all()
    sim.run()
    for h in u.hosts:
        net.share_content(h.host_id, [h.host_id % 7])
    sim.run()
    return u, sim, bus, net, log, acct


def _fingerprint(u, bus, net, log, acct, guids):
    return {
        "digest": None if log is None else log.digest(),
        "traffic": None if acct is None else traffic_state(acct),
        "observed": None if acct is None else (
            acct.summary.messages, None if log is None else len(log.events)
        ),
        "stats": (
            bus.stats.sent, bus.stats.delivered, bus.stats.bytes_sent,
            bus.stats.dropped_loss, bus.stats.dropped_fault,
            bus.stats.dropped_no_handler,
            dict(sorted(bus.stats.by_kind.items())),
        ),
        "message_counts": net.message_counts(),
        "per_node": {
            h.host_id: (
                dict(net.nodes[h.host_id].sent_counts),
                dict(net.nodes[h.host_id].received_counts),
            )
            for h in u.hosts
        },
        # what a ping round is for: a mis-ordered batch learn shows here
        "learned": {
            h.host_id: (
                list(net.nodes[h.host_id]._pong_cache),
                net.nodes[h.host_id].hostcache.snapshot(),
            )
            for h in u.hosts
        },
        "hits": {g: sorted(net.searches[g].hits) for g in guids},
        "first_hit": {
            g: net.searches[g].first_hit_at
            for g in guids
            if not math.isnan(net.searches[g].first_hit_at)
        },
        "now": net.sim.now,
    }


def _conserved(fp) -> bool:
    """The bus law once a run has drained: every send was delivered or
    dropped for exactly one reason."""
    sent, delivered, _bytes, loss, fault, no_handler, _kinds = fp["stats"]
    return sent == delivered + loss + fault + no_handler


def _run_workload(backend, *, seed, serial=False, with_events=False,
                  **kwargs):
    u, sim, bus, net, log, acct = _build(backend, seed=seed, **kwargs)
    log.clear()
    if acct is not None:
        acct.reset()
    net.ping_round()
    sim.run()
    guids = []
    for h in u.hosts:
        guids.append(net.search(h.host_id, (h.host_id + 3) % 7))
        if serial:
            sim.run()  # quiesce between floods: loss draws stay aligned
    sim.run()
    fp = _fingerprint(u, bus, net, log, acct, guids)
    if with_events:
        fp["events"] = list(log.events)
    return fp


@pytest.mark.parametrize("seed", SEEDS)
def test_flood_workload_bit_identical(seed):
    ref = _run_workload("reference", seed=seed)
    bat = _run_workload("batch", seed=seed)
    assert ref == bat
    # the accountant saw every send, once, and some of it left its AS
    seen, logged = bat["observed"]
    assert seen == logged > 0
    assert bat["traffic"]["link_bytes"] and bat["traffic"]["billing.samples"]


@pytest.mark.parametrize("seed", SEEDS)
def test_serial_floods_bit_identical_under_loss(seed):
    ref = _run_workload("reference", seed=seed, loss=0.12, serial=True)
    bat = _run_workload("batch", seed=seed, loss=0.12, serial=True)
    assert ref == bat
    assert ref["stats"][3] > 0  # losses actually happened
    assert _conserved(ref) and _conserved(bat)
    # sends lost in flight were sent, so they are accounted
    assert bat["observed"][0] == bat["observed"][1]


@pytest.mark.parametrize("seed", SEEDS)
def test_aggregating_observer_leaves_per_message_observers_alone(seed):
    # the SendLog behind an accountant gets the same record() calls in
    # the same order as a SendLog alone
    mixed = _run_workload("batch", seed=seed, with_events=True)
    alone = _run_workload(
        "batch", seed=seed, with_events=True, accounting=False
    )
    assert mixed["events"] == alone["events"]
    for key in ("digest", "stats", "message_counts", "per_node", "hits", "now"):
        assert mixed[key] == alone[key]


def test_whole_run_fault_window_bit_identical():
    # windows spanning the whole run: the kernel calls the hook at
    # expansion time, which only matters for hooks that change mid-flood
    sched = FaultSchedule((
        DelayFault(start=0.0, end=1e9, extra_ms=25.0),
        LossFault(start=0.0, end=1e9, rate=1.0, src=0, dst=1),
        LossFault(start=0.0, end=1e9, rate=1.0, src=1, dst=0),
    ))
    fault_drops = 0
    for seed in SEEDS:
        ref = _run_workload("reference", seed=seed, fault_schedule=sched)
        bat = _run_workload("batch", seed=seed, fault_schedule=sched)
        assert ref == bat
        # sends the fault hook dropped are still accounted
        assert bat["observed"][0] == bat["observed"][1]
        assert _conserved(ref) and _conserved(bat)
        fault_drops += bat["stats"][4]
    assert fault_drops > 0  # the 0<->1 blackhole did drop sends


def _ping_round_under_splitting_faults(backend, seed, rounds=1):
    """``rounds`` ping rounds where PONG runs must split: a fault hook
    whose penalty changes on every call (0 ms, 5 ms, a drop every 7th),
    30% loss, a per-message observer and a tracer all attached."""
    with obs.observe() as tracer:
        u, sim, bus, net, log, acct = _build(backend, seed=seed)
    calls = count(1)

    def hook(src, dst, kind):
        i = next(calls)
        return math.inf if i % 7 == 0 else 5.0 * (i % 2)

    bus_events = []

    def on_event(ev):
        if ev.component == "bus" and ev.kind in ("send", "drop"):
            bus_events.append((
                ev.time, ev.kind, ev.attrs.get("reason"),
                ev.attrs["src"], ev.attrs["dst"], ev.attrs["kind"],
            ))

    tracer.subscribe(on_event)
    bus.set_fault_hook(hook)
    bus.loss_rate = 0.3
    log.clear()
    acct.reset()
    for _ in range(rounds):
        net.ping_round()
        sim.run()
    fp = _fingerprint(u, bus, net, log, acct, [])
    fp["bus_events"] = bus_events
    return fp


@pytest.mark.parametrize(
    "seed, rounds",
    [(seed, 1) for seed in SEEDS] + [(11, 2)],
    ids=[str(seed) for seed in SEEDS] + ["11-two-rounds"],
)
def test_ping_round_runs_split_by_faults_bit_identical(seed, rounds):
    # two rounds: the second answers PINGs from caches the first settled
    ref = _ping_round_under_splitting_faults("reference", seed, rounds=rounds)
    bat = _ping_round_under_splitting_faults("batch", seed, rounds=rounds)
    assert ref == bat
    # every send was traced and logged once, and all three fates happened,
    # so runs were cut both by drops and by differing penalties
    fates = Counter((kind, reason) for _t, kind, reason, *_ in bat["bus_events"])
    assert set(fates) == {("send", None), ("drop", "loss"), ("drop", "fault")}
    assert fates["send", None] == bat["observed"][1]
    assert _conserved(ref) and _conserved(bat)


def test_ping_round_heap_pushes_are_per_run_not_per_pong(monkeypatch):
    # counted work, no timing: the PONGs answering one PING arrival ride
    # one heap entry per hop, so a loss-free round pushes one entry per
    # PING sent plus, per accepted PING arrival, one per hop back to the
    # origin — whatever pongs_per_ping is
    u, sim, bus, net, log, _acct = _build(
        "batch", seed=11, n_hosts=200, accounting=False
    )
    assert net.config.pongs_per_ping == 10
    pushes = []

    def counting_push(heap, entry):
        pushes.append(entry)
        heapq.heappush(heap, entry)

    with monkeypatch.context() as patched:
        patched.setattr(flood, "heappush", counting_push)
        net.ping_round()
    sim.run()
    pings, pongs = bus.stats.by_kind["PING"], bus.stats.by_kind["PONG"]

    ref_pings, hops = _reference_round_hops(seed=11, n_hosts=200)
    assert ref_pings == pings
    assert hops > pings / 2  # most arrivals were accepted, some at depth 2
    assert len(pushes) == pings + hops
    assert len(pushes) < pings + pongs / 4


@lru_cache(maxsize=None)
def _reference_round_hops(*, seed, n_hosts):
    """PINGs sent in one ping round of reference servents, which keep
    their routes, and the hops from every accepted PING arrival back to
    its origin."""
    *_, ref, _log, _acct = _build(
        "reference", seed=seed, n_hosts=n_hosts, accounting=False
    )
    ref.ping_round()
    ref.sim.run()

    def hops_to_origin(host, key):
        back = ref.nodes[host]._routes.get(key)
        return 0 if back is None else 1 + hops_to_origin(back, key)

    # a node holds a reverse route for exactly the PINGs it accepted
    hops = sum(
        hops_to_origin(host, key)
        for host, node in ref.nodes.items()
        for key in node._routes
    )
    return ref.bus.stats.by_kind["PING"], hops


def test_ping_round_work_is_once_per_node_with_uniform_sends(monkeypatch):
    # counted work, no timing: a loss-free, unlogged round learns once
    # per node at its end, lists each node's peers once, sends nothing
    # but the origins' PINGs through the emitter, and pushes exactly
    # what the per-run invariant allows
    u, sim, bus, net, log, acct = _build(
        "batch", seed=11, n_hosts=200, send_log=False
    )
    assert log is None and acct is not None
    learned, listed, emitted = Counter(), Counter(), Counter()
    pushes = []
    learn = GnutellaNode.learn_addresses
    peers = GnutellaNode._connected_peers
    emit, emit_run = flood._Emitter.emit, flood._Emitter.emit_run

    def counting_learn(node, addresses):
        learned[node.host_id] += 1
        learn(node, addresses)

    def counting_peers(node):
        listed[node.host_id] += 1
        return peers(node)

    def counting_emit(em, t, src, dst, kind, *rest):
        emitted[kind] += 1
        emit(em, t, src, dst, kind, *rest)

    def counting_emit_run(em, t, src, dst, kind, *rest):
        emitted[kind, "run"] += 1
        emit_run(em, t, src, dst, kind, *rest)

    def counting_push(heap, entry):
        pushes.append(entry)
        heapq.heappush(heap, entry)

    with monkeypatch.context() as patched:
        patched.setattr(GnutellaNode, "learn_addresses", counting_learn)
        patched.setattr(GnutellaNode, "_connected_peers", counting_peers)
        patched.setattr(flood._Emitter, "emit", counting_emit)
        patched.setattr(flood._Emitter, "emit_run", counting_emit_run)
        patched.setattr(flood, "heappush", counting_push)
        net.ping_round()
    sim.run()
    assert set(learned.values()) == {1} and set(listed.values()) == {1}
    origin_pings = sum(
        len(node._connected_peers()) for node in net.nodes.values()
    )
    assert emitted == {"PING": origin_pings}
    pings = bus.stats.by_kind["PING"]
    assert pings > origin_pings
    assert len(pushes) == pings + _reference_round_hops(seed=11, n_hosts=200)[1]


def _ping_rounds(backend, *, seed, rounds, **kwargs):
    u, sim, bus, net, log, acct = _build(backend, seed=seed, **kwargs)
    if log is not None:
        log.clear()
    acct.reset()
    for _ in range(rounds):
        net.ping_round()
        sim.run()
    return _fingerprint(u, bus, net, log, acct, [])


@pytest.mark.parametrize(
    ("loss", "send_log"), [(0.0, False), (0.0, True), (0.1, True)]
)
def test_back_to_back_ping_rounds_bit_identical(monkeypatch, loss, send_log):
    # the second round answers PINGs from caches the first one settled
    ref = _ping_rounds(
        "reference", seed=11, rounds=2, loss=loss, send_log=send_log
    )
    lazy_reads = []
    head = flood._pong_head

    def counting_head(*args):
        lazy_reads.append(args)
        return head(*args)

    monkeypatch.setattr(flood, "_pong_head", counting_head)
    bat = _ping_rounds(
        "batch", seed=11, rounds=2, loss=loss, send_log=send_log
    )
    assert ref == bat
    assert _conserved(bat)
    # some PINGs reached a node that had learned earlier in its round
    assert lazy_reads


@pytest.mark.parametrize("ttl", [1, 2])
def test_ttl_edge_cases_bit_identical(ttl):
    ref = _run_workload("reference", seed=11, ttl=ttl)
    bat = _run_workload("batch", seed=11, ttl=ttl)
    assert ref == bat
    if ttl == 1:
        # ttl=1 queries from ultrapeers never leave the origin; every
        # ultrapeer expiry shows up in the drop counter on both paths
        assert bat["message_counts"]["dropped_ttl"] > 0


def test_config_rejects_invalid_ttl():
    with pytest.raises(OverlayError):
        GnutellaConfig(query_ttl=0)
    with pytest.raises(OverlayError):
        GnutellaConfig(ping_ttl=0)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    ttl=st.integers(min_value=1, max_value=6),
    lossy=st.booleans(),
)
def test_flood_equivalence_property(seed, ttl, lossy):
    loss = 0.08 if lossy else 0.0
    ref = _run_workload(
        "reference", seed=seed, n_hosts=30, ttl=ttl, loss=loss, serial=True
    )
    bat = _run_workload(
        "batch", seed=seed, n_hosts=30, ttl=ttl, loss=loss, serial=True
    )
    assert ref == bat


# ------------------------------------------------------------------ kademlia
def _run_kademlia(*, seed, loss=0.0):
    u = _underlay(40)
    sim = Simulation()
    bus = MessageBus(sim, u, loss_rate=loss, loss_seed=seed)
    log = SendLog(sim)
    bus.add_observer(log)
    net = KademliaNetwork(u, sim, bus, rng=seed)
    net.add_all_hosts()
    net.bootstrap_all()
    sim.run()
    log.clear()
    stats = net.run_value_workload(10, 20)
    sim.run()
    return {
        "digest": log.digest(),
        "bus": (bus.stats.sent, bus.stats.delivered, bus.stats.dropped_loss),
        "lookups": (stats.n, stats.success_rate, stats.mean_rpcs),
    }


# Recorded at f8cfdc7, where dispatching a lookup round per RPC and as one
# batch were both in the tree and this fingerprint was equal between them
# (and between the array and KBucket routing tables).  Only the batch
# survives; it must keep sending the same messages at the same times.
_KADEMLIA_GOLDEN = {
    (7, 0.0): {
        "digest": "325f6bc7b9cee0017d6f724ecc21420a2da3c2f9a93eda78cec9d2452ac9f57c",
        "bus": (1360, 1360, 0), "lookups": (20, 1.0, 2.2),
    },
    (7, 0.05): {
        "digest": "b1d2afa61e430dcd7e1d8f0c308fea99df52fa750b95e7274b10211ec2df0a76",
        "bus": (1441, 1375, 66), "lookups": (20, 1.0, 2.2),
    },
    (11, 0.0): {
        "digest": "7d8de9bba333dc07957cb00a725b80fc7f0ca5da98c49137d54dd854036a2265",
        "bus": (1378, 1378, 0), "lookups": (20, 1.0, 2.8),
    },
    (11, 0.05): {
        "digest": "f942da73232490027712053787d84dd7483c0753c88555163b1aca2bca92623e",
        "bus": (1512, 1433, 79), "lookups": (20, 1.0, 2.8),
    },
}


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("loss", [0.0, 0.05])
def test_kademlia_round_batching_bit_identical(seed, loss):
    assert _run_kademlia(seed=seed, loss=loss) == _KADEMLIA_GOLDEN[seed, loss]
