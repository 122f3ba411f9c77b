"""Integration tests for the Kademlia DHT."""

import numpy as np
import pytest

from repro.overlay.kademlia import (
    KademliaConfig,
    KademliaNetwork,
    key_for,
)
from repro.sim import Simulation
from repro.underlay import Underlay, UnderlayConfig


def _build(n_hosts=40, seed=15, **cfg):
    u = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=seed))
    sim = Simulation()
    bus, acct = u.message_bus(sim)
    net = KademliaNetwork(u, sim, bus, config=KademliaConfig(**cfg), rng=seed)
    net.add_all_hosts()
    net.bootstrap_all()
    sim.run(until=60_000)
    return u, sim, net, acct


@pytest.fixture(scope="module")
def dht():
    return _build()


def test_bootstrap_populates_routing_tables(dht):
    _u, _sim, net, _a = dht
    sizes = [n.routing_table.size() for n in net.nodes.values()]
    assert min(sizes) >= 3
    assert np.mean(sizes) > 8


def test_find_node_converges_to_closest(dht):
    _u, sim, net, _a = dht
    ids = list(net.nodes)
    target = net.nodes[ids[7]].node_id
    results = []
    net.lookup_node(ids[0], target, results)
    sim.run(until=sim.now + 60_000)
    assert len(results) == 1
    res = results[0]
    assert res.closest, "lookup returned no contacts"
    # the true owner of the id should be the closest found
    assert res.closest[0].node_id == target


def test_store_and_find_value(dht):
    _u, sim, net, _a = dht
    ids = list(net.nodes)
    key = net.publish(ids[3], "movie.avi")
    sim.run(until=sim.now + 60_000)
    results = []
    net.lookup_value(ids[-1], key, results)
    sim.run(until=sim.now + 60_000)
    assert results[0].found_value
    assert ids[3] in results[0].values


def test_value_replicated_on_k_closest(dht):
    _u, sim, net, _a = dht
    ids = list(net.nodes)
    key = net.publish(ids[5], "rare-file")
    sim.run(until=sim.now + 60_000)
    holders = [
        n for n in net.nodes.values() if key in n.storage
    ]
    assert 1 <= len(holders) <= net.config.k
    # holders should be among the globally closest nodes to the key
    all_sorted = sorted(
        net.nodes.values(), key=lambda n: n.node_id ^ key
    )
    closest_ids = {n.node_id for n in all_sorted[: net.config.k + 2]}
    assert all(h.node_id in closest_ids for h in holders)


def test_local_hit_short_circuits(dht):
    _u, sim, net, _a = dht
    ids = list(net.nodes)
    key = key_for("local-content")
    net.nodes[ids[0]].storage[key] = {ids[0]}
    results = []
    net.lookup_value(ids[0], key, results)
    assert results and results[0].found_value
    assert results[0].rpcs_sent == 0


def test_workload_stats(dht):
    _u, _sim, net, _a = dht
    stats = net.run_value_workload(10, 30)
    assert stats.n == 30
    assert stats.success_rate >= 0.9
    assert stats.mean_rpcs > 0
    assert stats.median_latency_ms > 0


def test_lookup_survives_dead_nodes():
    u, sim, net, _a = _build(n_hosts=40, seed=16, rpc_timeout_ms=800.0)
    ids = list(net.nodes)
    key = net.publish(ids[0], "content-x")
    sim.run(until=sim.now + 60_000)
    # kill 20% of nodes (not the publisher or the querier)
    for hid in ids[10:18]:
        net.nodes[hid].go_offline()
    results = []
    net.lookup_value(ids[-1], key, results)
    sim.run(until=sim.now + 120_000)
    assert results, "lookup never terminated despite timeouts"
    res = results[0]
    # it either found the value or exhausted candidates, but terminated
    assert res.finished_at > res.started_at


def test_pns_reduces_contact_rtt():
    _u1, _s1, base, _ = _build(n_hosts=50, seed=17)
    base.run_value_workload(15, 40)
    _u2, _s2, pns, _ = _build(
        n_hosts=50, seed=17, proximity_buckets=True
    )
    pns.run_value_workload(15, 40)
    assert pns.mean_contact_rtt() < base.mean_contact_rtt()


def test_event_trace_keeps_its_recorded_digest():
    """The event-level digest ``tests/test_golden_traces.py`` takes of a
    30-node bootstrap plus lookups, as recorded at f8cfdc7 — where the
    array and KBucket routing tables, the serial and sharded bootstrap
    inserts and the per-RPC and batched round dispatch all produced it.
    One of each survives; the schedule, fire, send and deliver stream
    (sequence numbers included) must not have moved."""
    from tests.test_golden_traces import _kademlia_trace

    assert _kademlia_trace(seed=3) == (
        "421612d235eee1970127b442e8763e22522a9915c90d40d1351261ebd063a4ee",
        2164,
    )
