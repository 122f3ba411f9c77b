"""Unit tests for the ISP oracle."""

import pytest

from repro.collection import ISPOracle
from repro.errors import CollectionError


def test_rank_orders_by_as_hops(dense_underlay):
    u = dense_underlay
    oracle = ISPOracle(u)
    ids = u.host_ids()
    querier = ids[0]
    ranked = oracle.rank(querier, ids[1:])
    my_asn = u.asn_of(querier)
    hops = [u.routing.hops(my_asn, u.asn_of(c)) for c in ranked]
    assert hops == sorted(hops)


def test_same_as_candidates_rank_first(dense_underlay):
    u = dense_underlay
    oracle = ISPOracle(u)
    querier = u.hosts[0].host_id
    same_as = [h.host_id for h in u.hosts[1:] if h.asn == u.hosts[0].asn]
    assert same_as, "dense underlay should have same-AS peers"
    ranked = oracle.rank(querier, u.host_ids()[1:])
    top = ranked[: len(same_as)]
    assert set(top) == set(same_as)


def test_rank_is_permutation(dense_underlay):
    oracle = ISPOracle(dense_underlay)
    ids = dense_underlay.host_ids()
    ranked = oracle.rank(ids[0], ids[1:20])
    assert sorted(ranked) == sorted(ids[1:20])


def test_limit_truncates_before_ranking(dense_underlay):
    oracle = ISPOracle(dense_underlay)
    ids = dense_underlay.host_ids()
    ranked = oracle.rank(ids[0], ids[1:30], limit=5)
    assert len(ranked) == 5
    assert set(ranked) <= set(ids[1:6])


def test_stable_tie_break_is_deterministic(dense_underlay):
    oracle = ISPOracle(dense_underlay)
    ids = dense_underlay.host_ids()
    a = oracle.rank(ids[0], ids[1:25])
    b = oracle.rank(ids[0], ids[1:25])
    assert a == b


def test_best_and_empty(dense_underlay):
    oracle = ISPOracle(dense_underlay)
    ids = dense_underlay.host_ids()
    assert oracle.best(ids[0], []) is None
    assert oracle.best(ids[0], ids[1:4]) in ids[1:4]


def test_overhead_scales_with_list_size(dense_underlay):
    oracle = ISPOracle(dense_underlay)
    ids = dense_underlay.host_ids()
    oracle.rank(ids[0], ids[1:11])
    small = oracle.overhead.bytes_on_wire
    oracle.rank(ids[0], ids[1:81])
    assert oracle.overhead.bytes_on_wire - small > small


def test_invalid_limit_rejected(dense_underlay):
    oracle = ISPOracle(dense_underlay)
    ids = dense_underlay.host_ids()
    with pytest.raises(CollectionError):
        oracle.rank(ids[0], ids[1:4], limit=0)


def test_counters(dense_underlay):
    oracle = ISPOracle(dense_underlay)
    ids = dense_underlay.host_ids()
    oracle.rank(ids[0], ids[1:5])
    oracle.rank(ids[1], ids[2:8])
    assert oracle.lists_ranked == 2
    assert oracle.candidates_ranked == 10
