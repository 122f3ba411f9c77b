"""Integration tests: Kademlia maintenance (refresh/republish) under churn."""

import pytest

from repro.overlay.kademlia import KademliaConfig, KademliaNetwork
from repro.sim import Simulation
from repro.underlay import Underlay, UnderlayConfig


def _build(seed=61, n_hosts=50, **cfg):
    u = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=seed))
    sim = Simulation()
    bus, _ = u.message_bus(sim, with_accounting=False)
    net = KademliaNetwork(
        u, sim, bus, config=KademliaConfig(rpc_timeout_ms=800.0, **cfg), rng=seed
    )
    net.add_all_hosts()
    net.bootstrap_all()
    sim.run(until=120_000)
    return u, sim, net


def test_refresh_buckets_starts_lookups():
    _u, sim, net = _build()
    node = next(iter(net.nodes.values()))
    started = node.refresh_buckets(rng=net._rng)
    assert started >= 0
    sim.run(until=sim.now + 30_000)  # refresh lookups complete


def test_refresh_repairs_tables_after_churn():
    _u, sim, net = _build()
    ids = list(net.nodes)
    # 30% of nodes vanish silently
    dead = set(ids[: len(ids) // 3])
    for hid in dead:
        net.nodes[hid].go_offline()
    # lookups discover the dead (timeouts purge them); then refresh heals
    net.run_value_workload(10, 30, settle_ms=90_000)
    sizes_before = {
        hid: n.routing_table.size()
        for hid, n in net.nodes.items()
        if hid not in dead
    }
    net.start_maintenance(refresh_period_ms=30_000.0)
    sim.run(until=sim.now + 150_000)
    net.stop_maintenance()
    # tables of the survivors did not wither away
    alive = [n for hid, n in net.nodes.items() if hid not in dead]
    assert all(n.routing_table.size() >= 3 for n in alive)
    # and lookups still succeed at high rate
    stats = net.run_value_workload(10, 40, settle_ms=120_000)
    assert stats.success_rate > 0.85


def test_republish_restores_replicas_after_holder_loss():
    _u, sim, net = _build(seed=62)
    ids = list(net.nodes)
    key = net.publish(ids[0], "precious")
    sim.run(until=sim.now + 60_000)
    holders = [hid for hid, n in net.nodes.items() if key in n.storage]
    assert holders
    # half the holders churn out
    for hid in holders[: max(len(holders) // 2, 1)]:
        net.nodes[hid].go_offline()
        net.nodes[hid].storage.clear()
    survivors = net.republish(key)
    assert survivors >= 0
    sim.run(until=sim.now + 90_000)
    results = []
    net.lookup_value(ids[-1], key, results)
    sim.run(until=sim.now + 90_000)
    assert results and results[0].found_value


def test_stop_maintenance_halts_refreshes():
    _u, sim, net = _build(seed=63, n_hosts=30)
    net.start_maintenance(refresh_period_ms=10_000.0)
    sim.run(until=sim.now + 25_000)
    net.stop_maintenance()
    pending_after_stop = sim.pending()
    sim.run(until=sim.now + 100_000)
    # no runaway event production once maintenance stops
    assert sim.pending() <= pending_after_stop


def test_second_start_replaces_the_running_batch():
    """Regression: a second start_maintenance() used to leave the first
    batch of refresh processes running beside the new one, out of
    stop_maintenance()'s reach."""
    _u, sim, net = _build(n_hosts=20)
    sim.run()
    assert sim.pending() == 0
    net.start_maintenance(refresh_period_ms=30_000.0)
    net.start_maintenance(refresh_period_ms=30_000.0)
    assert sim.pending() == len(net.nodes)  # one process per node, not two
    net.stop_maintenance()
    assert sim.pending() == 0


def test_refresh_on_a_fresh_table_allocates_no_bucket():
    from repro.overlay.kademlia import KademliaNode
    from repro.overlay.kademlia.id_space import random_id

    u = Underlay.generate(UnderlayConfig(n_hosts=4, seed=61))
    sim = Simulation()
    bus, _ = u.message_bus(sim, with_accounting=False)
    node = KademliaNode(u.hosts[0], sim, bus, random_id(1), KademliaConfig())
    assert node.refresh_buckets(rng=1) == 0
    assert node.routing_table.buckets == {}
