"""Integration tests: Gnutella join, ping/pong, search, download stages."""

import pytest

from repro.collection import ISPOracle
from repro.errors import OverlayError
from repro.metrics import intra_as_edge_fraction
from repro.overlay.gnutella import (
    GnutellaConfig,
    GnutellaNetwork,
    LEAF,
    NeighborPolicy,
    ULTRAPEER,
)
from repro.overlay.gnutella.node import MAX_LEAVES
from repro.sim import Simulation
from repro.underlay import Underlay, UnderlayConfig


@pytest.fixture()
def net():
    u = Underlay.generate(UnderlayConfig(n_hosts=45, seed=13))
    sim = Simulation()
    bus, acct = u.message_bus(sim)
    network = GnutellaNetwork(u, sim, bus, rng=2)
    network.add_population(u.hosts, ultrapeer_fraction=1 / 3)
    network.bootstrap(cache_fill=30)
    network.join_all()
    sim.run()
    return u, sim, network, acct


def test_population_roles(net):
    _u, _sim, network, _a = net
    assert len(network.ultrapeers()) == 15
    assert len(network.leaves()) == 30


def test_join_builds_connected_structure(net):
    _u, _sim, network, _a = net
    # all leaves found at least one ultrapeer
    attached = [n for n in network.leaves() if n.neighbors]
    assert len(attached) >= 0.9 * len(network.leaves())
    # UP mesh has edges
    assert all(len(up.neighbors) > 0 for up in network.ultrapeers())
    # neighbor sets are symmetric between ultrapeers
    for up in network.ultrapeers():
        for nb in up.neighbors:
            other = network.nodes[nb]
            assert up.host_id in other.neighbors or up.host_id in other.leaves


def test_leaf_neighbor_caps_respected(net):
    _u, _sim, network, _a = net
    cfg = network.config
    for leaf in network.leaves():
        assert len(leaf.neighbors) <= cfg.leaf_connections
    for up in network.ultrapeers():
        assert len(up.leaves) <= MAX_LEAVES
        # outbound target + inbound slack
        assert len(up.neighbors) <= 2 * cfg.max_up_neighbors + 1


def test_ping_generates_pongs_and_fills_caches(net):
    _u, sim, network, _a = net
    network.ping_round()
    sim.run()
    counts = network.message_counts()
    assert counts.get("PING", 0) > 0
    assert counts.get("PONG", 0) > counts["PING"]  # pong caching multiplies


def test_search_finds_shared_content(net):
    u, sim, network, _a = net
    owner = network.leaves()[0].host_id
    network.share_content(owner, [777])
    sim.run()
    origin = network.leaves()[-1].host_id
    guid = network.search(origin, 777)
    sim.run()
    rec = network.searches[guid]
    assert owner in rec.hits


def test_search_for_missing_content_fails_cleanly(net):
    _u, sim, network, _a = net
    guid = network.search(network.leaves()[0].host_id, 31337)
    sim.run()
    assert network.searches[guid].hits == []
    assert network.download_stage(guid) is None


def test_download_stage_transfers_from_hit(net):
    u, sim, network, acct = net
    owner = network.leaves()[1].host_id
    network.share_content(owner, [555])
    sim.run()
    origin = network.leaves()[2].host_id
    guid = network.search(origin, 555)
    sim.run()
    bytes_before = acct.summary.total_bytes
    src = network.download_stage(guid, file_size_bytes=1_000_000)
    sim.run()
    assert src == owner
    assert acct.summary.total_bytes - bytes_before >= 1_000_000
    assert network.searches[guid].download_done


def test_biased_policy_requires_oracle():
    u = Underlay.generate(UnderlayConfig(n_hosts=10, seed=1))
    sim = Simulation()
    bus, _ = u.message_bus(sim)
    with pytest.raises(OverlayError):
        GnutellaNetwork(u, sim, bus, policy=NeighborPolicy.BIASED)


def test_biased_join_improves_locality():
    results = {}
    for policy in (NeighborPolicy.UNBIASED, NeighborPolicy.BIASED):
        u = Underlay.generate(UnderlayConfig(n_hosts=60, seed=21))
        sim = Simulation()
        bus, _ = u.message_bus(sim, with_accounting=False)
        network = GnutellaNetwork(
            u, sim, bus, policy=policy, oracle=ISPOracle(u), rng=4
        )
        network.add_population(u.hosts)
        network.bootstrap(cache_fill=59)
        network.join_all()
        sim.run()
        results[policy] = intra_as_edge_fraction(network.overlay_graph(), u.asn_of)
    assert results[NeighborPolicy.BIASED] > 2 * results[NeighborPolicy.UNBIASED]


def test_duplicate_node_rejected(net):
    u, _sim, network, _a = net
    with pytest.raises(OverlayError):
        network.add_node(u.hosts[0], ULTRAPEER)


def _empty_network():
    u = Underlay.generate(UnderlayConfig(n_hosts=10, seed=1))
    sim = Simulation()
    bus, _ = u.message_bus(sim)
    return u, GnutellaNetwork(u, sim, bus, rng=1)


@pytest.mark.parametrize("fraction", [1.5, 0.0, -0.2, float("nan")])
def test_add_population_rejects_bad_ultrapeer_fraction(fraction):
    # 1.5 and nan used to die inside numpy; -0.2 silently made one ultrapeer
    u, network = _empty_network()
    with pytest.raises(OverlayError, match="ultrapeer_fraction"):
        network.add_population(u.hosts, ultrapeer_fraction=fraction)
    assert not network.nodes


def test_add_population_rejects_empty_and_accepts_all_ultrapeers():
    u, network = _empty_network()
    with pytest.raises(OverlayError, match="empty population"):
        network.add_population([])
    network.add_population(u.hosts, ultrapeer_fraction=1.0)
    assert len(network.ultrapeers()) == 10


def test_role_of_unknown_rejected(net):
    _u, _sim, network, _a = net
    with pytest.raises(OverlayError):
        network.role_of(10_000)


def test_query_ttl_limits_flooding():
    u = Underlay.generate(UnderlayConfig(n_hosts=60, seed=9))

    def run_with_ttl(ttl):
        sim = Simulation()
        bus, _ = u.message_bus(sim, with_accounting=False)
        network = GnutellaNetwork(
            u, sim, bus, config=GnutellaConfig(query_ttl=ttl), rng=3
        )
        network.add_population(u.hosts)
        network.bootstrap(cache_fill=40)
        network.join_all()
        sim.run()
        network.search(network.leaves()[0].host_id, 1)
        sim.run()
        return network.message_counts().get("QUERY", 0)

    assert run_with_ttl(1) < run_with_ttl(4)


def test_join_all_matches_one_join_per_node():
    """join_all inserts the population's joins as one batch; the event
    trace is the one that scheduling them one node at a time leaves —
    same sequence numbers, same handshakes, same digest."""
    import numpy as np

    from repro import obs

    def run(batched: bool):
        with obs.observe() as tracer:
            u = Underlay.generate(UnderlayConfig(n_hosts=45, seed=13))
            sim = Simulation()
            bus, _acct = u.message_bus(sim)
            rng = np.random.default_rng(2)
            network = GnutellaNetwork(u, sim, bus, rng=rng)
            network.add_population(u.hosts, ultrapeer_fraction=1 / 3)
            network.bootstrap(cache_fill=30)
            if batched:
                network.join_all(stagger_ms=2000.0)
            else:
                for node in network.ultrapeers() + network.leaves():
                    delay = float(rng.uniform(0, 2000.0))
                    if node.role == LEAF:
                        delay += 2000.0
                    sim.schedule(delay, network._join_node, node)
            sim.run()
        return tracer.digest(), tracer.emitted

    batched, serial = run(True), run(False)
    assert batched[1] > 1_000
    assert batched == serial


def test_unreachable_candidate_leaves_the_hostcache():
    """A handshake that times out on every attempt drops the peer from
    the hostcache (``HostCache.remove``) and moves on to the next
    candidate instead of wedging the join."""
    u = Underlay.generate(UnderlayConfig(n_hosts=30, seed=3))
    sim = Simulation()
    bus, _acct = u.message_bus(sim, with_accounting=False)
    net = GnutellaNetwork(u, sim, bus, rng=1)
    leaf = net.add_node(u.hosts[0], LEAF)
    dead = net.add_node(u.hosts[1], ULTRAPEER)
    live = net.add_node(u.hosts[2], ULTRAPEER)
    dead.go_offline()
    leaf.hostcache.add_all([dead.host_id, live.host_id])
    leaf.join([dead.host_id, live.host_id])
    sim.run()
    assert dead.host_id not in leaf.hostcache
    assert live.host_id in leaf.hostcache
    assert leaf.neighbors == {live.host_id}
    assert leaf.requests.stats.failed == 1
