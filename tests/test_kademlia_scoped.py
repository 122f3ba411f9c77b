"""Unit/integration tests for geographically scoped hashing (Leopard)."""

import pytest

from repro.errors import OverlayError
from repro.overlay.kademlia import ScopedHashing, ScopedKademlia
from repro.overlay.kademlia.id_space import ID_BITS
from repro.overlay.kademlia.scoped import HASHING
from repro.sim import Simulation
from repro.underlay import Underlay, UnderlayConfig


class TestHashing:
    def test_scope_roundtrip(self):
        h = ScopedHashing(scope_bits=4)
        for region in (0, 3, 15):
            nid = h.scoped_node_id(region, rng=1)
            assert 0 <= nid < 1 << ID_BITS
            assert nid >> h.body_bits == region

    def test_region_out_of_range(self):
        h = ScopedHashing(scope_bits=2)
        with pytest.raises(OverlayError):
            h.scoped_node_id(4)
        with pytest.raises(OverlayError):
            h.scoped_node_id(-1)

    def test_invalid_scope_bits(self):
        with pytest.raises(OverlayError):
            ScopedHashing(scope_bits=0)
        with pytest.raises(OverlayError):
            ScopedHashing(scope_bits=20)

    def test_body_bits(self):
        h = ScopedHashing(scope_bits=6)
        assert h.body_bits == ID_BITS - 6
        assert h.n_scopes == 64


class TestScopedKademlia:
    @pytest.fixture(scope="class")
    def dht(self):
        u = Underlay.generate(UnderlayConfig(n_hosts=80, seed=26))
        sim = Simulation()
        bus, acct = u.message_bus(sim)
        net = ScopedKademlia(u, sim, bus, rng=4)
        net.add_all_hosts()
        net.bootstrap_all()
        sim.run(until=120_000)
        return u, sim, net, acct

    def test_node_ids_carry_region(self, dht):
        _u, _sim, net, _a = dht
        for hid, node in net.network.nodes.items():
            assert node.node_id >> HASHING.body_bits == net.region_of(hid)

    def test_scoped_ids_increase_regional_contacts(self, dht):
        u, _sim, net, _a = dht
        frac = net.same_region_contact_fraction()
        # with 4 populated regions, unscoped tables would hold ~25%
        assert frac > 0.35
