"""Query-plane primitives: SeenFilter windowing, BoundedRouteTable,
Bitmap2D batch ops, send-log digests, and the memory-flat guarantee."""

import numpy as np
import pytest

from repro.core.peerstate import Bitmap2D, PeerState
from repro.errors import SimulationError
from repro.overlay.gnutella import GnutellaConfig, GnutellaNetwork
from repro.sim import Simulation
from repro.sim.messages import MessageBus
from repro.sim.queryplane import (
    BoundedRouteTable,
    SeenFilter,
    SendLog,
    flood_trace_digest,
)
from repro.underlay import Underlay, UnderlayConfig


def _peerstate(hosts, recycled=False):
    """A population's slot space; with ``recycled`` every host lands in a
    slot a previous tenant has already used and vacated."""
    ps = PeerState()
    if recycled:
        tenants = [("old", h) for h in hosts]
        for t in tenants:
            ps.admit(t)
        for t in tenants:
            ps.evict(t)
    for h in hosts:
        ps.admit(h)
    return ps


# ---------------------------------------------------------------- Bitmap2D
def test_bitmap_batch_ops_match_scalar():
    ps = _peerstate(range(16))
    bm = ps.bitmap("b", 70)  # spans >1 uint64 word
    rng = np.random.default_rng(3)
    marked = set()
    for _ in range(200):
        slot, bit = int(rng.integers(16)), int(rng.integers(70))
        bm.set(slot, bit)
        marked.add((slot, bit))
    for bit in (0, 5, 63, 64, 69):
        slots = list(range(16))
        got = bm.test_slots(slots, bit)
        want = np.array([(s, bit) in marked for s in slots])
        assert (got == want).all()
    bm.set_slots([1, 3, 5], 69)
    assert all(bm.test(s, 69) for s in (1, 3, 5))
    bm.clear_column(69)
    assert not any(bm.test(s, 69) for s in range(16))
    # other columns untouched by the clear
    assert bm.test_slots(list(range(16)), 64).sum() == sum(
        1 for s, b in marked if b == 64
    )


# ---------------------------------------------------------------- SeenFilter
@pytest.mark.parametrize("recycled", [True, False])
def test_seen_filter_mark_and_window_expiry(recycled):
    sf = SeenFilter(2, peerstate=_peerstate(range(8), recycled))
    sf.mark(1, "k1")
    sf.mark_many([2, 3], "k2")
    assert sf.test(1, "k1") and sf.test(2, "k2") and sf.test(3, "k2")
    assert not sf.test(4, "k2") and not sf.test(2, "k1")
    assert len(sf) == 2 and sf.known("k1")
    # third key expires the oldest (k1), FIFO
    sf.mark(4, "k3")
    assert sf.expired_keys == 1
    assert not sf.known("k1") and not sf.test(1, "k1")
    assert sf.test(2, "k2") and sf.test(4, "k3")
    # re-admitting the expired key starts from a clean column
    sf.mark(5, "k1")
    assert sf.test(5, "k1") and not sf.test(1, "k1")


@pytest.mark.parametrize("recycled", [True, False])
def test_seen_filter_membership_and_empty_mark(recycled):
    sf = SeenFilter(4, peerstate=_peerstate(range(4), recycled))
    assert sf.membership("fresh") is None
    sf.mark_many([], "reserved")  # an empty flood still claims its slot
    assert sf.known("reserved") and len(sf) == 1
    sf.mark(2, "k")
    member = sf.membership("k")
    assert member is not None and member(2) and not member(3)


def test_seen_filter_agrees_with_window_model():
    """Against the window policy written with builtins: an insertion-
    ordered dict of host sets that forgets its oldest key when full.  A
    host evicted mid-run hands its slot, and none of its marks, to the
    host admitted next."""
    ps = _peerstate(range(10))
    sf = SeenFilter(3, peerstate=ps)
    model: dict[str, set] = {}
    expired = 0
    rng = np.random.default_rng(7)
    hosts = list(range(10))
    for step in range(600):
        host = hosts[int(rng.integers(10))]
        key = f"k{int(rng.integers(6))}"
        if rng.random() < 0.5:
            sf.mark(host, key)
            if key not in model and len(model) == 3:
                del model[next(iter(model))]
                expired += 1
            model.setdefault(key, set()).add(host)
        if step % 50 == 49:  # churn: the host's slot changes hands
            ps.evict(host)
            newcomer = ("new", step)
            ps.admit(newcomer)
            hosts[hosts.index(host)] = newcomer
            for marked in model.values():
                marked.discard(host)
        for h in hosts:
            assert sf.test(h, key) == (h in model.get(key, ()))
        assert sf.known(key) == (key in model)
    assert len(sf) == len(model) and sf.expired_keys == expired > 0


def test_seen_filter_rejects_bad_window():
    with pytest.raises(SimulationError):
        SeenFilter(0, peerstate=PeerState())


# ---------------------------------------------------------- BoundedRouteTable
def test_route_table_fifo_eviction():
    rt = BoundedRouteTable(2)
    rt["a"] = 1
    rt["b"] = 2
    rt["a"] = 9  # overwrite does not evict
    assert len(rt) == 2 and rt.get("a") == 9
    rt["c"] = 3  # evicts "a" (oldest insertion)
    assert "a" not in rt and rt.get("a") is None
    assert rt.get("b") == 2 and rt.get("c") == 3
    assert rt.pop("b") == 2 and "b" not in rt
    rt.clear()
    assert len(rt) == 0
    with pytest.raises(SimulationError):
        BoundedRouteTable(0)


# ------------------------------------------------------------------ SendLog
def test_flood_trace_digest_order_insensitive():
    a = [(1.0, 1, 2, "QUERY", 50), (0.5, 2, 3, "PING", 23)]
    assert flood_trace_digest(a) == flood_trace_digest(list(reversed(a)))
    assert flood_trace_digest(a) != flood_trace_digest(a[:1])


def test_send_log_observer_and_record():
    sim = Simulation()
    log = SendLog(sim)
    log.observe(1, 2, 50, "QUERY")  # bus path stamps sim.now
    log.record(7.5, 2, 3, "QUERY", 50)  # kernel path supplies the time
    assert log.events == [(0.0, 1, 2, "QUERY", 50), (7.5, 2, 3, "QUERY", 50)]
    d = log.digest()
    log.clear()
    assert log.events == [] and log.digest() != d


# ----------------------------------------------------------- obs metrics
def test_batch_expansion_wires_obs_metrics():
    from repro.obs.registry import MetricRegistry

    u = Underlay.generate(UnderlayConfig(n_hosts=20, seed=9))
    sim = Simulation()
    bus = MessageBus(sim, u)
    net = GnutellaNetwork(u, sim, bus, rng=2, query_backend="batch")
    registry = MetricRegistry()
    net.instrument(registry)
    net.add_population(u.hosts)
    net.bootstrap(cache_fill=15)
    net.join_all()
    sim.run()
    net.ping_round()
    sim.run()
    net.search(u.hosts[0].host_id, 1)
    sim.run()

    expanded = registry.get("queries_expanded_total")
    assert expanded.value(kind="QUERY") == 1
    assert expanded.value(kind="PING") == len(net.nodes)
    frontier = registry.get("query_frontier_size")
    assert frontier.count() > 0


# -------------------------------------------------------- memory-flat regression
def test_query_state_memory_flat_over_many_queries():
    """10^5 queries leave the suppression/bookkeeping state bounded: the
    seen window recycles columns, route tables stay capped, and search
    retention evicts old records — memory does not grow with query count."""
    u = Underlay.generate(UnderlayConfig(n_hosts=8, seed=3))
    sim = Simulation()
    bus = MessageBus(sim, u)
    cfg = GnutellaConfig(query_ttl=1, seen_window=256, route_cache_size=64)
    net = GnutellaNetwork(
        u, sim, bus, config=cfg, rng=1,
        query_backend="batch", search_retention=128,
    )
    net.add_population(u.hosts, ultrapeer_fraction=1.0)
    net.bootstrap(cache_fill=8)
    net.join_all()
    sim.run()

    origins = [h.host_id for h in u.hosts]
    checkpoint = None
    for i in range(100_000):
        net.search(origins[i % len(origins)], i % 11)
        if i == 9_999:
            checkpoint = net.seen.memory_bytes()
    assert net.seen.memory_bytes() == checkpoint  # flat after window fill
    assert len(net.seen) <= cfg.seen_window
    assert net.seen.expired_keys >= 100_000 - cfg.seen_window
    assert len(net.searches) <= 128
    for node in net.nodes.values():
        assert len(node._route_back) <= cfg.route_cache_size
