"""Unit tests for Gnutella node message-handling edge cases.

The descriptor-handler cases dispatch by hand to the per-message servent
of ``tests/gnutella_reference.py`` — they pin down the oracle the flood
kernel is compared with.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OverlayError
from repro.overlay.gnutella import (
    GnutellaConfig, GnutellaNetwork, LEAF, ULTRAPEER, flood,
)
from repro.overlay.gnutella.hostcache import HostCache
from repro.overlay.gnutella.messages import Query
from repro.sim import Simulation
from repro.underlay import Underlay, UnderlayConfig
from tests.gnutella_reference import Ping, QueryHit, ReferenceGnutellaNetwork


def _tiny_net(config=GnutellaConfig(query_ttl=3), network=GnutellaNetwork):
    u = Underlay.generate(UnderlayConfig(n_hosts=12, seed=51))
    sim = Simulation()
    bus, _ = u.message_bus(sim, with_accounting=False)
    net = network(u, sim, bus, config=config, rng=1)
    # deterministic roles: first 4 ultrapeers, rest leaves
    for i, h in enumerate(u.hosts):
        net.add_node(h, ULTRAPEER if i < 4 else LEAF)
    net.bootstrap(cache_fill=11)
    net.join_all()
    sim.run()
    return u, sim, net


@pytest.fixture()
def tiny_net():
    return _tiny_net(network=ReferenceGnutellaNetwork)


def test_duplicate_query_not_reflooded(tiny_net):
    _u, sim, net = tiny_net
    ups = net.ultrapeers()
    a, b = ups[0], ups[1]
    query = Query(guid=90_001, ttl=3, keyword=5, origin=a.host_id)
    net.register_query(90_001, a.host_id, 5)
    b._dispatch_count_before = dict(b.sent_counts)
    # deliver the same query twice by hand
    from repro.sim.messages import Message

    msg = Message(src=a.host_id, dst=b.host_id, kind="QUERY", payload=query)
    b._dispatch(msg)
    sent_after_first = b.sent_counts.get("QUERY", 0)
    b._dispatch(msg)
    assert b.sent_counts.get("QUERY", 0) == sent_after_first  # dup dropped


def test_ttl_one_query_not_forwarded(tiny_net):
    _u, sim, net = tiny_net
    ups = net.ultrapeers()
    a, b = ups[0], ups[1]
    from repro.sim.messages import Message

    query = Query(guid=90_002, ttl=1, keyword=6, origin=a.host_id)
    net.register_query(90_002, a.host_id, 6)
    before = b.sent_counts.get("QUERY", 0)
    b._dispatch(Message(src=a.host_id, dst=b.host_id, kind="QUERY", payload=query))
    assert b.sent_counts.get("QUERY", 0) == before  # answered, not forwarded


def test_ping_answered_with_pong_burst(tiny_net):
    _u, sim, net = tiny_net
    ups = net.ultrapeers()
    a, b = ups[0], ups[1]
    # prime b's pong cache
    b.learn_addresses(list(net.nodes)[:6])
    from repro.sim.messages import Message

    before = b.sent_counts.get("PONG", 0)
    ping = Ping(guid=90_003, ttl=1, origin=a.host_id)
    b._dispatch(Message(src=a.host_id, dst=b.host_id, kind="PING", payload=ping))
    burst = b.sent_counts.get("PONG", 0) - before
    assert 1 <= burst <= b.config.pongs_per_ping


def test_offline_node_send_raises(tiny_net):
    _u, _sim, net = tiny_net
    node = net.leaves()[0]
    node.go_offline()
    with pytest.raises(OverlayError):
        node.send(net.ultrapeers()[0].host_id, "PING", None)


def test_unknown_message_kind_raises(tiny_net):
    _u, _sim, net = tiny_net
    from repro.sim.messages import Message

    node = net.ultrapeers()[0]
    with pytest.raises(OverlayError):
        node._dispatch(
            Message(src=1, dst=node.host_id, kind="NO_SUCH_KIND", payload=None)
        )


def test_share_before_connect_announced_at_connect():
    u = Underlay.generate(UnderlayConfig(n_hosts=12, seed=52))
    sim = Simulation()
    bus, _ = u.message_bus(sim, with_accounting=False)
    net = GnutellaNetwork(u, sim, bus, rng=2)
    for i, h in enumerate(u.hosts):
        net.add_node(h, ULTRAPEER if i < 4 else LEAF)
    # leaf gets content BEFORE joining
    leaf = net.leaves()[0]
    leaf.shared.add(777)
    net.bootstrap(cache_fill=11)
    net.join_all()
    sim.run()
    # its ultrapeers learned the content through the connect-time SHARE
    assert any(
        leaf.host_id in net.nodes[up].leaf_index.get(777, set())
        for up in leaf.neighbors
    )


def test_queryhit_route_evaporation_dropped_silently(tiny_net):
    _u, sim, net = tiny_net
    from repro.sim.messages import Message

    node = net.ultrapeers()[0]
    # a hit for a guid this node never routed: must not raise
    hit = QueryHit(guid=99_999, responder=3, keyword=1)
    node._dispatch(
        Message(src=net.ultrapeers()[1].host_id, dst=node.host_id,
                kind="QUERYHIT", payload=hit)
    )


def test_leaf_does_not_accept_connections(tiny_net):
    _u, sim, net = tiny_net
    from repro.overlay.gnutella.messages import ConnectRequest
    from repro.sim.messages import Message

    leaf = net.leaves()[0]
    other = net.leaves()[1]
    before = set(leaf.neighbors)
    leaf._dispatch(
        Message(
            src=other.host_id, dst=leaf.host_id, kind="CONNECT_REQUEST",
            payload=ConnectRequest(peer=other.host_id, role=LEAF),
        )
    )
    sim.run()
    assert leaf.neighbors == before
    assert other.host_id not in leaf.leaves


# ------------------------------------------------------------ pong learning
_LEARNER = []


def _learner():
    # one node with caches small enough for a batch to overflow both
    if not _LEARNER:
        config = GnutellaConfig(pong_cache_size=4, hostcache_capacity=6)
        _LEARNER.append(_tiny_net(config)[2].ultrapeers()[0])
    return _LEARNER[0]


def _learn_one_by_one(own, hostcache, pong_cache, config, peers):
    """What ``GnutellaNode._learn_address`` did per PONG before learning
    was batched: hostcache oldest first, pong cache most recent first."""
    for peer in peers:
        if peer == own:
            continue
        if peer in hostcache:
            hostcache.remove(peer)
        hostcache.append(peer)
        del hostcache[: -config.hostcache_capacity]
        if peer in pong_cache:
            pong_cache.remove(peer)
        pong_cache.insert(0, peer)
        del pong_cache[config.pong_cache_size:]


_addresses = st.integers(min_value=0, max_value=11)


@settings(max_examples=300, deadline=None)
@given(
    known=st.lists(_addresses, unique=True, max_size=6),
    cached=st.lists(_addresses, unique=True, max_size=4),
    batch=st.lists(_addresses, max_size=16),
)
def test_learning_a_batch_equals_learning_one_by_one(known, cached, batch):
    node = _learner()
    own = node.host_id
    cached = [p for p in cached if p != own]
    want_known, want_cached = list(known), list(cached)
    _learn_one_by_one(own, want_known, want_cached, node.config, batch)

    def learned_by(learn):
        node.hostcache = HostCache(node.config.hostcache_capacity)
        node.hostcache.add_all(known)
        node._pong_cache = list(cached)
        learn()
        return node._pong_cache, node.hostcache.snapshot()[::-1]

    assert learned_by(lambda: node.learn_addresses(batch)) == (
        want_cached, want_known
    )
    # and a batch of one is the per-PONG path (the reference servent's
    # on_pong passes a 1-tuple)
    assert learned_by(
        lambda: [node.learn_addresses((peer,)) for peer in batch]
    ) == (want_cached, want_known)


# a PING answer inside a round reads the round's log, not the cache
_HEAD_LEARNERS: dict = {}


def _head_learner(pongs_per_ping):
    if pongs_per_ping not in _HEAD_LEARNERS:
        config = GnutellaConfig(
            pong_cache_size=4, hostcache_capacity=6,
            pongs_per_ping=pongs_per_ping,
        )
        _HEAD_LEARNERS[pongs_per_ping] = _tiny_net(config)[2].ultrapeers()[0]
    return _HEAD_LEARNERS[pongs_per_ping]


@pytest.mark.parametrize("pongs_per_ping", [1, 3, 5, 10])
@settings(max_examples=200, deadline=None)
@given(
    seeded=st.lists(_addresses, max_size=8),
    runs=st.lists(st.lists(_addresses, max_size=6), max_size=8),
)
def test_lazy_pong_head_equals_eager_learning(pongs_per_ping, seeded, runs):
    # runs may repeat addresses and carry the node's own id; 1 answers
    # with the own address only, so nothing is read from the log or the
    # cache; 10 asks for more cached addresses than the 4-entry cache holds
    node = _head_learner(pongs_per_ping)
    n = pongs_per_ping - 1
    node.hostcache = HostCache(node.config.hostcache_capacity)
    node._pong_cache = []
    node.learn_addresses(seeded)
    pre_round = eager = node._pong_cache
    log = []
    for run in runs:
        # eager: learn every run as it arrives
        node._pong_cache = eager
        node.learn_addresses(run)
        eager = node._pong_cache
        # lazy: the pre-round cache and the round's log so far
        log.extend(run)
        node._pong_cache = pre_round
        assert flood._pong_head(
            log, node.host_id, pre_round, n, node.config.pong_cache_size
        ) == eager[:n]
        node.learn_addresses(log)
        assert node._pong_cache == eager  # and settling agrees


def _ping_round_state(config, network):
    _u, sim, net = _tiny_net(config, network)
    net.ping_round()
    sim.run()
    return {
        "counts": net.message_counts(),
        "now": sim.now,
        "nodes": {
            hid: (
                dict(node.sent_counts), dict(node.received_counts),
                list(node._pong_cache), node.hostcache.snapshot(),
            )
            for hid, node in net.nodes.items()
        },
    }


@pytest.mark.parametrize("knob", ["pongs_per_ping", "ping_ttl"])
def test_ping_round_edge_cases_batch_equals_reference(knob):
    # pongs_per_ping=1: every PONG run is a run of one (own address
    # only); ping_ttl=1: no PING is relayed, so no run is forwarded
    config = GnutellaConfig(**{knob: 1})
    bat = _ping_round_state(config, GnutellaNetwork)
    assert bat == _ping_round_state(config, ReferenceGnutellaNetwork)
    counts = bat["counts"]
    accepted = counts["PING"] - counts["dropped_duplicate"]
    assert accepted > 0
    if knob == "ping_ttl":
        # each PING is a first arrival, answered over its own link only
        assert counts["dropped_duplicate"] == 0
        assert accepted <= counts["PONG"] <= config.pongs_per_ping * accepted
    else:
        # own address only: one PONG per accepted PING per hop back
        assert accepted <= counts["PONG"] <= config.ping_ttl * accepted
