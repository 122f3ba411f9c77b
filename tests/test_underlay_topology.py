"""Unit tests for the AS topology generator and InternetTopology."""

import networkx as nx
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.underlay import (
    AutonomousSystem,
    InternetTopology,
    LinkType,
    Position,
    Tier,
    TopologyConfig,
    generate_topology,
)


@pytest.fixture(scope="module")
def topo():
    return generate_topology(TopologyConfig(seed=5))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TopologyConfig(n_tier1=0)
    with pytest.raises(ConfigurationError):
        TopologyConfig(stub_peering_prob=1.5)
    with pytest.raises(ConfigurationError):
        TopologyConfig(stub_providers=0)


def test_counts_and_numbering(topo):
    cfg = TopologyConfig()
    assert len(topo) == cfg.n_tier1 + cfg.n_tier2 + cfg.n_stub
    for i, asys in enumerate(topo.ases):
        assert asys.asn == i


def test_tier1_full_peering_mesh(topo):
    tier1 = [a for a in topo.ases if a.tier == Tier.TIER1]
    for a in tier1:
        for b in tier1:
            if a.asn != b.asn:
                assert b.asn in a.peers


def test_every_lower_tier_as_has_provider(topo):
    for asys in topo.ases:
        if asys.tier != Tier.TIER1:
            assert asys.providers, f"AS{asys.asn} has no provider"


def test_graph_connected_and_symmetric(topo):
    assert nx.is_connected(topo.graph)
    for asys in topo.ases:
        for p in asys.providers:
            assert asys.asn in topo.asys(p).customers
        for q in asys.peers:
            assert asys.asn in topo.asys(q).peers


def test_link_type_queries(topo):
    provider, customer = topo.transit_links()[0]
    assert topo.link_type(provider, customer) is LinkType.TRANSIT
    a, b = topo.peering_links()[0]
    assert topo.link_type(a, b) is LinkType.PEERING
    # unconnected pair raises
    stubs = topo.stub_asns()
    for x in stubs:
        for y in stubs:
            if x != y and topo.asys(x).relationship_to(y) is None:
                with pytest.raises(TopologyError):
                    topo.link_type(x, y)
                return


def test_determinism_same_seed():
    a = generate_topology(TopologyConfig(seed=11))
    b = generate_topology(TopologyConfig(seed=11))
    assert [x.peers for x in a.ases] == [x.peers for x in b.ases]
    assert [x.providers for x in a.ases] == [x.providers for x in b.ases]


def test_different_seed_differs():
    a = generate_topology(TopologyConfig(seed=1))
    b = generate_topology(TopologyConfig(seed=2))
    assert (
        [x.peers for x in a.ases] != [x.peers for x in b.ases]
        or [x.providers for x in a.ases] != [x.providers for x in b.ases]
    )


def test_bad_asn_ordering_rejected():
    bad = [
        AutonomousSystem(asn=1, tier=Tier.TIER1, position=Position(0, 0)),
    ]
    with pytest.raises(TopologyError):
        InternetTopology(bad)


def test_asymmetric_relation_rejected():
    a = AutonomousSystem(asn=0, tier=Tier.TIER1, position=Position(0, 0))
    b = AutonomousSystem(asn=1, tier=Tier.STUB, position=Position(1, 1))
    b.providers.add(0)  # but a.customers does not contain 1
    with pytest.raises(TopologyError):
        InternetTopology([a, b])


def test_unknown_asn_lookup(topo):
    with pytest.raises(TopologyError):
        topo.asys(10_000)


def test_stub_regions_are_assigned(topo):
    for asn in topo.stub_asns():
        assert topo.asys(asn).region >= 0


def test_positions_array_shape(topo):
    assert topo.positions_array().shape == (len(topo), 2)


def test_disconnected_topology_rejected():
    """Connectivity is a search over the business links, no graph built:
    two islands (AS 0 – AS 1, AS 2 alone) are refused."""
    a = AutonomousSystem(asn=0, tier=Tier.TIER1, position=Position(0, 0))
    b = AutonomousSystem(asn=1, tier=Tier.STUB, position=Position(1, 1))
    c = AutonomousSystem(asn=2, tier=Tier.STUB, position=Position(2, 2))
    a.customers.add(1)
    b.providers.add(0)
    with pytest.raises(TopologyError, match="not connected"):
        InternetTopology([a, b, c])


def test_graph_is_built_on_first_access_and_kept():
    topo = generate_topology(TopologyConfig(seed=5))
    assert "graph" not in vars(topo)
    g = topo.graph
    assert topo.graph is g
    assert sorted(tuple(sorted(e)) for e in g.edges()) == sorted(
        tuple(sorted(e)) for e in topo.transit_links() + topo.peering_links()
    )
    assert all(
        g.edges[p, c]["link_type"] is LinkType.TRANSIT for p, c in topo.transit_links()
    )
