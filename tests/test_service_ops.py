"""Protocol op adapters: seeding, issue/complete paths, origin picking."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.overlay.gnutella.network import GnutellaNetwork
from repro.overlay.kademlia.network import KademliaNetwork
from repro.service import GnutellaServiceOps, KademliaServiceOps
from repro.sim.engine import Simulation
from repro.underlay.network import Underlay, UnderlayConfig
from repro.workloads import ContentCatalog


def _kademlia_net(n_hosts=16, seed=3):
    underlay = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=seed))
    sim = Simulation()
    bus, _ = underlay.message_bus(sim, with_accounting=False)
    net = KademliaNetwork(underlay, sim, bus, rng=seed)
    net.add_all_hosts()
    net.bootstrap_all()
    sim.run(until=10_000.0)
    return net


def _gnutella_net(n_hosts=16, seed=3):
    underlay = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=seed))
    sim = Simulation()
    bus, _ = underlay.message_bus(sim, with_accounting=False)
    net = GnutellaNetwork(underlay, sim, bus, rng=seed)
    net.add_population(underlay.hosts)
    net.bootstrap()
    net.join_all()
    sim.run(until=10_000.0)
    return net


class TestKademliaOps:
    def test_seed_content_publishes_retrievable_keys(self):
        net = _kademlia_net()
        ops = KademliaServiceOps(net, rng=1)
        fresh = ops.seed_content(5, settle_ms=10_000.0)
        assert len(fresh) == 5 and ops.keys == fresh

        outcomes = []
        ops._issue_retrieve(ops.pick_origin(np.random.default_rng(2)),
                            outcomes.append)
        net.sim.run(until=net.sim.now + 20_000.0)
        assert outcomes == [True]

    def test_store_adds_key_on_success(self):
        net = _kademlia_net()
        ops = KademliaServiceOps(net, rng=1)
        outcomes = []
        ops._issue_store(ops.pick_origin(np.random.default_rng(2)),
                         outcomes.append)
        net.sim.run(until=net.sim.now + 20_000.0)
        assert outcomes == [True]
        assert len(ops.keys) == 1

    def test_retrieve_with_no_known_keys_fails_fast(self):
        net = _kademlia_net()
        ops = KademliaServiceOps(net, rng=1)
        outcomes = []
        ops._issue_retrieve(0, outcomes.append)
        assert outcomes == [False]  # synchronous, nothing to look up

    def test_mix_weights_and_validation(self):
        net = _kademlia_net()
        ops = KademliaServiceOps(net, rng=1)
        store, retrieve = ops.mix(store_fraction=0.25)
        assert (store.name, retrieve.name) == ("kad_store", "kad_retrieve")
        assert store.weight + retrieve.weight == pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            ops.mix(store_fraction=0.0)

    def test_pick_origin_requires_online_nodes(self):
        net = _kademlia_net()
        ops = KademliaServiceOps(net, rng=1)
        for node in net.nodes.values():
            node.go_offline()
        with pytest.raises(ConfigurationError):
            ops.pick_origin(np.random.default_rng(1))


class TestGnutellaOps:
    def test_search_completes_on_first_hit(self):
        net = _gnutella_net()
        catalog = ContentCatalog(rng=2)
        ops = GnutellaServiceOps(net, catalog, rng=1)
        ops.seed_content(files_per_host=8)

        rng = np.random.default_rng(3)
        outcomes = []
        for _ in range(20):
            ops._issue_search(ops.pick_origin(rng), outcomes.append)
        net.sim.run(until=net.sim.now + 20_000.0)
        # popular catalogue + dense sharing: most searches hit, each
        # exactly once (the listener pops its pending entry)
        assert 0 < len(outcomes) <= 20
        assert all(ok is True for ok in outcomes)

    def test_listener_slot_is_exclusive(self):
        net = _gnutella_net()
        catalog = ContentCatalog(rng=2)
        GnutellaServiceOps(net, catalog, rng=1)
        with pytest.raises(ConfigurationError):
            GnutellaServiceOps(net, catalog, rng=1)

    def test_mix_is_search_only(self):
        net = _gnutella_net()
        ops = GnutellaServiceOps(net, ContentCatalog(rng=2), rng=1)
        (spec,) = ops.mix()
        assert spec.name == "gnu_search"


class _FixedQuery:
    """A catalogue stand-in whose every query is one keyword."""

    def __init__(self, keyword):
        self.keyword = keyword

    def draw_query(self, asn):
        return self.keyword


class _FixedArrivals:
    def __init__(self, times):
        self._times = times

    def times(self, duration_ms):
        return list(self._times)


class TestGnutellaOriginAnswers:
    """An ultrapeer that holds the keyword itself, or through one of its
    leaves, answers inside ``net.search()``.  That hit used to reach the
    listener before the op had registered, and the search ran into its
    timeout instead of completing."""

    KEYWORD = 987_654

    def _origin_and_ops(self):
        from repro.overlay.gnutella.node import ULTRAPEER

        net = _gnutella_net()
        ops = GnutellaServiceOps(net, _FixedQuery(self.KEYWORD), rng=1)
        origin = next(
            hid for hid, node in net.nodes.items()
            if node.role == ULTRAPEER and node.leaves
        )
        return net, ops, origin

    def _issue(self, net, ops, origin):
        outcomes = []
        ops._issue_search(origin, outcomes.append)
        assert outcomes == [True]  # before the clock moves
        assert ops._pending == {}
        (record,) = net.searches.values()
        assert record.first_hit_at == record.issued_at
        net.sim.run(until=net.sim.now + 20_000.0)
        assert outcomes == [True]  # completed exactly once

    def test_origin_holds_the_keyword(self):
        net, ops, origin = self._origin_and_ops()
        net.share_content(origin, [self.KEYWORD])
        self._issue(net, ops, origin)

    def test_origin_holds_it_through_a_leaf(self):
        net, ops, origin = self._origin_and_ops()
        leaf = next(iter(net.nodes[origin].leaves))
        net.share_content(leaf, [self.KEYWORD])
        net.sim.run(until=net.sim.now + 5_000.0)  # the SHARE lands
        assert leaf in net.nodes[origin].leaf_index[self.KEYWORD]
        self._issue(net, ops, origin)

    def test_open_loop_latency_is_zero(self):
        from repro.service import OpenLoopDriver

        net, ops, origin = self._origin_and_ops()
        net.share_content(origin, [self.KEYWORD])
        ops.pick_origin = lambda rng: origin
        load = OpenLoopDriver(
            net.sim, ops.mix(), _FixedArrivals([0.0, 10.0, 20.0]),
            duration_ms=100.0, timeout_ms=5_000.0, rng=1,
        )
        report = load.run(drain_ms=1_000.0)
        assert report.timed_out == 0
        assert [r.status for r in load.records] == ["ok"] * 3
        assert all(r.latency_ms == 0.0 for r in load.records)
