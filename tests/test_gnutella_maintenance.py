"""Tests for Gnutella periodic maintenance."""

import pytest

from repro.overlay.gnutella import FloodKernel, GnutellaNetwork, GnutellaNode
from repro.sim import ChurnConfig, ChurnProcess, Simulation
from repro.sim.messages import MessageBus
from repro.underlay import Underlay, UnderlayConfig


@pytest.fixture()
def net():
    u = Underlay.generate(UnderlayConfig(n_hosts=40, seed=81))
    sim = Simulation()
    bus, _ = u.message_bus(sim, with_accounting=False)
    network = GnutellaNetwork(u, sim, bus, rng=2)
    network.add_population(u.hosts)
    network.bootstrap(cache_fill=20)
    network.join_all()
    sim.run()
    return u, sim, network


def test_auto_maintenance_generates_periodic_pings(net):
    _u, sim, network = net
    before = network.message_counts().get("PING", 0)
    network.start_auto_maintenance(ping_period_ms=10_000.0)
    sim.run(until=sim.now + 65_000)
    network.stop_auto_maintenance()
    after = network.message_counts().get("PING", 0)
    # ~6 rounds from every connected node, each fanning out
    assert after - before > 5 * len(network.nodes)


def test_maintenance_refreshes_hostcaches(net):
    _u, sim, network = net
    # empty one leaf's hostcache; maintenance pongs should repopulate it
    leaf = network.leaves()[0]
    for entry in list(leaf.hostcache.snapshot()):
        leaf.hostcache.remove(entry)
    assert len(leaf.hostcache) == 0
    network.start_auto_maintenance(ping_period_ms=5_000.0)
    sim.run(until=sim.now + 40_000)
    network.stop_auto_maintenance()
    assert len(leaf.hostcache) > 0


def test_stop_auto_maintenance_quiesces(net):
    _u, sim, network = net
    network.start_auto_maintenance(ping_period_ms=5_000.0)
    sim.run(until=sim.now + 12_000)
    network.stop_auto_maintenance()
    sim.run()  # drains in-flight messages and stops — must terminate
    count_a = network.message_counts().get("PING", 0)
    sim.run(until=sim.now + 60_000)
    assert network.message_counts().get("PING", 0) == count_a


def test_offline_nodes_do_not_ping(net):
    _u, sim, network = net
    victim = network.ultrapeers()[0]
    network.part(victim.host_id)
    sim.run()
    sent_before = victim.sent_counts.get("PING", 0)
    network.start_auto_maintenance(ping_period_ms=5_000.0)
    sim.run(until=sim.now + 30_000)
    network.stop_auto_maintenance()
    assert victim.sent_counts.get("PING", 0) == sent_before


def test_second_start_replaces_the_running_batch(net):
    """Regression: a second start_auto_maintenance() used to leave the
    first batch of ping processes running beside the new one, out of
    stop_auto_maintenance()'s reach — every PING doubled, for ever."""
    _u, sim, network = net
    quiet = sim.pending()
    network.start_auto_maintenance(ping_period_ms=5_000.0)
    network.start_auto_maintenance(ping_period_ms=5_000.0)
    assert sim.pending() == quiet + len(network.nodes)  # one process per node
    network.stop_auto_maintenance()
    assert sim.pending() == quiet


def test_maintenance_pings_under_churn_go_through_the_kernel_only(
    net, monkeypatch
):
    """Spy: no flood descriptor is ever a message on the bus, and each
    maintenance firing of an online node is one kernel expansion of that
    node's PING alone."""
    _u, sim, network = net
    delivered, fired, expanded = set(), [], []
    deliver = MessageBus._deliver
    start_ping = GnutellaNode.start_ping
    expand = FloodKernel.expand_ping_round

    def spy_deliver(bus, msg):
        delivered.add(msg.kind)
        deliver(bus, msg)

    def spy_start_ping(node):
        fired.append(node.host_id)
        start_ping(node)

    def spy_expand(kernel, origins):
        origins = list(origins)
        expanded.append([n.host_id for n in origins])
        expand(kernel, origins)

    monkeypatch.setattr(MessageBus, "_deliver", spy_deliver)
    monkeypatch.setattr(GnutellaNode, "start_ping", spy_start_ping)
    monkeypatch.setattr(FloodKernel, "expand_ping_round", spy_expand)

    churn = ChurnProcess(
        sim,
        peers=[n.host_id for n in network.leaves()],
        config=ChurnConfig(mean_session=20_000.0, mean_offline=10_000.0),
        on_join=lambda hid: network.rejoin(hid)
        if not network.nodes[hid].online
        else None,
        on_leave=network.part,
        rng=5,
    )
    pings = network.message_counts().get("PING", 0)
    churn.start(warmup=2_000.0)
    network.start_auto_maintenance(ping_period_ms=5_000.0)
    sim.run(until=sim.now + 60_000.0)
    ticks = sum(p.ticks for p in network._maintenance)
    network.stop_auto_maintenance()
    churn.stop()

    assert churn.leaves > 0 and network.message_counts()["PING"] > pings
    assert expanded == [[hid] for hid in fired]
    assert 0 < len(fired) < ticks  # offline nodes' timers fired and sent nothing
    assert {"BYE", "CONNECT_REQUEST"} <= delivered  # the bus did carry the rest
    assert not delivered & {"PING", "PONG", "QUERY", "QUERYHIT"}
