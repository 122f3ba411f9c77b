"""Unit tests for the P4P iTracker."""

import numpy as np
import pytest

from repro.collection import P4PPolicy, P4PService
from repro.errors import CollectionError
from repro.underlay.autonomous_system import LinkType


@pytest.fixture(scope="module")
def p4p(dense_underlay):
    return P4PService(dense_underlay)


def test_policy_validation():
    with pytest.raises(CollectionError):
        P4PPolicy(intra_pid_cost=-1.0)
    with pytest.raises(CollectionError):
        P4PPolicy(peering_link_cost=50.0, transit_link_cost=5.0)


def test_pid_is_asn(dense_underlay, p4p):
    for h in dense_underlay.hosts[:10]:
        assert p4p.my_pid(h.host_id) == h.asn


def test_intra_pid_cheapest(dense_underlay, p4p):
    n = dense_underlay.topology.n_ases
    for pid in range(0, n, 5):
        row = p4p.pdistance_map(pid)
        assert row[pid] == min(row.values())


def test_peering_cheaper_than_transit(dense_underlay):
    u = dense_underlay
    p4p = P4PService(u)
    peer_links = u.topology.peering_links()
    transit_links = u.topology.transit_links()
    if not peer_links:
        pytest.skip("no peering links in this topology")
    pd_peer = np.mean([p4p.pdistance_map(a)[b] for a, b in peer_links])
    pd_transit = np.mean([p4p.pdistance_map(a)[b] for a, b in transit_links])
    assert pd_peer < pd_transit


def test_pdistance_symmetric(dense_underlay, p4p):
    n = dense_underlay.topology.n_ases
    for a in range(0, n, 4):
        for b in range(1, n, 5):
            assert p4p.pdistance_map(a)[b] == p4p.pdistance_map(b)[a]


def test_selection_weights_prefer_cheap(dense_underlay, p4p):
    u = dense_underlay
    ids = u.host_ids()
    querier = ids[0]
    cands = ids[1:40]
    w = p4p.selection_weights(querier, cands)
    assert w.sum() == pytest.approx(1.0)
    my = u.asn_of(querier)
    same = [i for i, c in enumerate(cands) if u.asn_of(c) == my]
    diff = [i for i, c in enumerate(cands) if u.asn_of(c) != my]
    if same and diff:
        assert w[same].mean() > w[diff].mean()
    # no candidate is fully excluded (connectivity)
    assert (w > 0).all()


def test_pick_peers_distinct_and_biased(dense_underlay, p4p):
    u = dense_underlay
    ids = u.host_ids()
    picks = p4p.pick_peers(ids[0], ids[1:], 10, rng=2)
    assert len(picks) == len(set(picks)) == 10
    my = u.asn_of(ids[0])
    same_population = sum(1 for c in ids[1:] if u.asn_of(c) == my) / len(ids[1:])
    # resample many times: the same-PID rate must exceed the base rate
    rng_seeds = range(20)
    rates = []
    for s in rng_seeds:
        ps = p4p.pick_peers(ids[0], ids[1:], 10, rng=s)
        rates.append(sum(1 for c in ps if u.asn_of(c) == my) / 10)
    assert np.mean(rates) > same_population


def test_invalid_softness(dense_underlay, p4p):
    with pytest.raises(CollectionError):
        p4p.selection_weights(dense_underlay.host_ids()[0], [1], softness=0.0)


def test_overhead_accounted(dense_underlay):
    p4p = P4PService(dense_underlay)
    p4p.pdistance_map(0)
    p4p.pdistance_map(1)
    n = dense_underlay.topology.n_ases
    assert p4p.overhead.queries == 2
    assert p4p.overhead.messages == 4
    assert p4p.overhead.bytes_on_wire == 2 * (32 + 12 * n)
