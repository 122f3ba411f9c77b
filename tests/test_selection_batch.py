"""Batch-vs-scalar equivalence for the selection engine.

The per-candidate rankers the batch paths replaced live here as oracles
(``rank_scalar`` for the strategies, ``rank_reference`` for the ISP
oracle); these tests assert the batched ``rank``/``top_k``/``score_many``
paths reproduce them **bit-identically** — same orderings, same
tie-breaks, same RNG draw order — across multiple seeds, candidate
sizes, and edge cases (duplicates, empty lists, singletons).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collection.oracle import ISPOracle, OraclePolicy
from repro.coords.gnp import GNPConfig, GNPSystem
from repro.coords.ics import PAPER_EXAMPLE_MATRIX, ICS
from repro.coords.vivaldi import VivaldiSystem
from repro.core.selection import (
    CompositeSelection,
    GeoSelection,
    ISPLocalitySelection,
    LatencySelection,
    RandomSelection,
    ResourceSelection,
)
from repro.errors import ConfigurationError

SEEDS = [0, 11, 42]


def _scalar_score(sel, querier):
    """``candidate -> score`` for one strategy, one Python call per
    candidate and nothing batched."""
    if isinstance(sel, LatencySelection):
        return lambda c: float(sel.rtt_predictor(querier, c))
    if isinstance(sel, ResourceSelection):
        return lambda c: -float(sel.capacity_of(c))
    if isinstance(sel, GeoSelection):
        me = sel.position_source(querier)
        if me is None:
            return lambda c: 0.0

        def distance(c):
            pos = sel.position_source(c)
            return me.distance_to(pos) if pos is not None else float("inf")

        return distance
    assert isinstance(sel, ISPLocalitySelection) and sel.mapping is not None
    my_asn = sel.mapping.lookup(querier)
    return lambda c: 0 if sel.mapping.lookup(c) == my_asn else 1


def rank_scalar(sel, querier, candidates):
    """Stable sort of the de-duplicated candidates by ``(scalar score,
    input position)``; ``(fused score, host id)`` for the composite."""
    cand = list(dict.fromkeys(candidates))
    if isinstance(sel, RandomSelection):
        # the score is the position in one permutation draw
        return [cand[int(i)] for i in sel._rng.permutation(len(cand))]
    if isinstance(sel, ISPLocalitySelection) and sel.oracle is not None:
        return rank_reference(sel.oracle, querier, cand)
    if isinstance(sel, CompositeSelection):
        if len(cand) <= 1:
            return cand
        fused = dict.fromkeys(cand, 0.0)
        for strategy, weight in sel.components:
            for pos, c in enumerate(rank_scalar(strategy, querier, cand)):
                fused[c] += weight * (pos / (len(cand) - 1))
        return sorted(cand, key=lambda c: (fused[c], c))
    score = _scalar_score(sel, querier)
    keyed = sorted((score(c), i, c) for i, c in enumerate(cand))
    return [c for _s, _i, c in keyed]


def rank_reference(oracle, querier, candidates):
    """``ISPOracle.rank`` with one ``routing.hops`` call per candidate:
    same charge, same counters, same single jitter draw."""
    u = oracle.underlay
    cand = list(candidates)
    my_asn = u.asn_of(querier)
    oracle.lists_ranked += 1
    oracle.candidates_ranked += len(cand)
    oracle.overhead.charge(
        queries=1, messages=2, bytes_on_wire=64 + 8 * len(cand)
    )
    keys = []
    for c in cand:
        hops = u.routing.hops(my_asn, u.asn_of(c))
        if oracle.policy is OraclePolicy.COOPERATIVE:
            keys.append((hops, -u.host(c).resources.capacity_score()))
        elif oracle.policy is OraclePolicy.HONEST:
            keys.append((hops,))
        else:  # MALICIOUS: farthest first
            keys.append((-hops,))
    ties = range(len(cand))
    if oracle._rng is not None:
        ties = [float(j) for j in oracle._rng.random(len(cand))]
    keyed = sorted(zip(keys, ties, cand), key=lambda t: t[:2])
    return [c for _k, _t, c in keyed]


def _candidates(underlay, seed, size=40, dupes=True):
    rng = np.random.default_rng(seed)
    ids = underlay.host_ids()
    cand = [int(c) for c in rng.choice(ids, size=size, replace=dupes)]
    querier = int(rng.choice(ids))
    return querier, cand


class _TrueMapping:
    """IP-to-ISP stub that answers from the underlay and counts lookups."""

    def __init__(self, underlay):
        self.underlay = underlay
        self.calls = 0

    def lookup(self, host_id):
        self.calls += 1
        return self.underlay.asn_of(host_id)


def _builtin_selectors(underlay):
    """name -> factory returning a *fresh* selector (RNG state matters)."""
    return {
        "latency": lambda: LatencySelection.from_underlay(underlay),
        "geolocation": lambda: GeoSelection(
            lambda hid: underlay.host(hid).position
        ),
        "peer-resources": lambda: ResourceSelection.from_underlay(underlay),
        "isp-mapping": lambda: ISPLocalitySelection(
            underlay, mapping=_TrueMapping(underlay)
        ),
        "isp-oracle": lambda: ISPLocalitySelection(
            underlay, oracle=ISPOracle(underlay)
        ),
        "random": lambda: RandomSelection(7),
        "composite": lambda: CompositeSelection(
            [
                (LatencySelection.from_underlay(underlay), 0.5),
                (ResourceSelection.from_underlay(underlay), 0.3),
                (GeoSelection(lambda hid: underlay.host(hid).position), 0.2),
            ]
        ),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name",
    [
        "latency", "geolocation", "peer-resources",
        "isp-mapping", "isp-oracle", "random", "composite",
    ],
)
def test_rank_matches_scalar_reference(small_underlay, name, seed):
    querier, cand = _candidates(small_underlay, seed)
    factories = _builtin_selectors(small_underlay)
    batch = factories[name]()
    reference = factories[name]()
    assert batch.rank(querier, cand) == rank_scalar(reference, querier, cand)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name",
    [
        "latency", "geolocation", "peer-resources",
        "isp-mapping", "isp-oracle", "random", "composite",
    ],
)
@pytest.mark.parametrize("k", [0, 1, 3, 1000])
def test_top_k_is_rank_prefix(small_underlay, name, seed, k):
    querier, cand = _candidates(small_underlay, seed)
    factories = _builtin_selectors(small_underlay)
    top = factories[name]().top_k(querier, cand, k)
    full = factories[name]().rank(querier, cand)
    assert top == full[:k]


@pytest.mark.parametrize(
    "name",
    [
        "latency", "geolocation", "peer-resources",
        "isp-mapping", "isp-oracle", "random", "composite",
    ],
)
def test_edge_cases_empty_single_duplicates(small_underlay, name):
    factories = _builtin_selectors(small_underlay)
    ids = small_underlay.host_ids()
    q = ids[0]
    assert factories[name]().rank(q, []) == []
    assert factories[name]().top_k(q, [], 3) == []
    assert factories[name]().rank(q, [ids[1]]) == [ids[1]]
    # duplicates collapse to first occurrence, identically on both paths
    dupes = [ids[1], ids[2], ids[1], ids[3], ids[2], ids[1]]
    assert factories[name]().rank(q, dupes) == \
        rank_scalar(factories[name](), q, dupes)
    with pytest.raises(ConfigurationError):
        factories[name]().top_k(q, dupes, -1)


def test_select_routes_through_top_k(small_underlay):
    ids = small_underlay.host_ids()
    sel = LatencySelection.from_underlay(small_underlay)
    assert sel.select(ids[0], ids[1:], 4) == sel.rank(ids[0], ids[1:])[:4]


def test_score_many_orders_like_rank(small_underlay):
    querier, cand = _candidates(small_underlay, 1, dupes=False)
    for name, factory in _builtin_selectors(small_underlay).items():
        if name == "random":
            continue  # scores draw RNG; ordering asserted elsewhere
        sel = factory()
        scores = sel.score_many(querier, cand)
        key = (lambda i: (scores[i], cand[i])) if name == "composite" else (
            lambda i: (scores[i], i)
        )
        order = sorted(range(len(cand)), key=key)
        assert [cand[i] for i in order] == factory().rank(querier, cand)


# -- oracle ------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", list(OraclePolicy))
@pytest.mark.parametrize("jitter", [None, 13])
def test_oracle_rank_matches_reference(small_underlay, seed, policy, jitter):
    querier, cand = _candidates(small_underlay, seed)
    batch = ISPOracle(small_underlay, policy=policy, rng=jitter)
    reference = ISPOracle(small_underlay, policy=policy, rng=jitter)
    assert batch.rank(querier, cand) == rank_reference(reference, querier, cand)
    # identical RNG draw order: a second ranking still agrees
    assert batch.rank(querier, cand) == rank_reference(reference, querier, cand)
    assert batch.overhead == reference.overhead
    assert (batch.lists_ranked, batch.candidates_ranked) == \
        (reference.lists_ranked, reference.candidates_ranked)


@pytest.mark.parametrize("policy", list(OraclePolicy))
@pytest.mark.parametrize("jitter", [None, 13])
def test_oracle_top_k_is_rank_prefix(small_underlay, policy, jitter):
    querier, cand = _candidates(small_underlay, 2)
    a = ISPOracle(small_underlay, policy=policy, rng=jitter)
    b = ISPOracle(small_underlay, policy=policy, rng=jitter)
    for k in (0, 1, 4, len(cand) + 5):
        assert a.top_k(querier, cand, k) == b.rank(querier, cand)[:k]


def test_oracle_best_single_scan_and_overhead(small_underlay):
    """Satellite regression: ``best`` charges exactly one full-list
    ranking and never touches the per-pair routing path or a sort."""
    querier, cand = _candidates(small_underlay, 3, size=30)
    oracle = ISPOracle(small_underlay)
    reference = ISPOracle(small_underlay)
    expected = reference.rank(querier, cand)[0]

    per_pair_calls = []
    original_hops = small_underlay.routing.hops
    small_underlay.routing.hops = lambda s, d: (
        per_pair_calls.append((s, d)) or original_hops(s, d)
    )
    try:
        got = oracle.best(querier, cand)
    finally:
        small_underlay.routing.hops = original_hops

    assert got == expected
    assert per_pair_calls == []  # batch row gather, no per-pair lookups
    # the peer still ships its whole hostcache: same charge as rank()
    assert oracle.overhead.queries == reference.overhead.queries == 1
    assert oracle.overhead.messages == reference.overhead.messages == 2
    assert oracle.overhead.bytes_on_wire == reference.overhead.bytes_on_wire
    assert oracle.lists_ranked == 1
    assert oracle.candidates_ranked == len(cand)
    assert oracle.best(querier, []) is None


def test_oracle_limit_applies_before_ranking(small_underlay):
    querier, cand = _candidates(small_underlay, 4, size=20)
    a = ISPOracle(small_underlay)
    b = ISPOracle(small_underlay)
    assert a.top_k(querier, cand, 3, limit=8) == \
        b.rank(querier, cand, limit=8)[:3]
    assert a.candidates_ranked == b.candidates_ranked == 8


# -- ISP mapping memoisation (satellite) -------------------------------------


def test_mapping_lookups_memoised_within_call(small_underlay):
    """n distinct candidates cost exactly n + 1 lookups (querier + one
    per distinct candidate) regardless of duplication."""
    ids = small_underlay.host_ids()
    mapping = _TrueMapping(small_underlay)
    sel = ISPLocalitySelection(small_underlay, mapping=mapping)
    distinct = ids[1:9]
    cand = list(distinct) * 3  # heavy duplication
    sel.rank(ids[0], cand)
    assert mapping.calls == len(distinct) + 1
    mapping.calls = 0
    sel.top_k(ids[0], cand, 2)
    assert mapping.calls == len(distinct) + 1
    # querier appearing among the candidates is looked up once, not twice
    mapping.calls = 0
    sel.rank(ids[0], [ids[0], ids[1]])
    assert mapping.calls == 2


# -- composite tie-breaking (satellite) --------------------------------------


def test_composite_ties_break_by_candidate_id(small_underlay):
    """Two opposite-order components give every candidate the same fused
    Borda score (positions sum to n-1); the ranking must then be
    ascending host id on both paths, regardless of input order."""
    ids = small_underlay.host_ids()
    ascending = ResourceSelection(lambda hid: -float(hid))
    descending = ResourceSelection(lambda hid: float(hid))
    comp = CompositeSelection([(ascending, 1.0), (descending, 1.0)])
    cand = [ids[5], ids[2], ids[9], ids[1]]
    expected = sorted(cand)
    assert comp.rank(ids[0], cand) == expected
    assert rank_scalar(comp, ids[0], cand) == expected
    assert comp.top_k(ids[0], cand, 2) == expected[:2]


def test_composite_order_independent_of_input_order(small_underlay):
    querier, cand = _candidates(small_underlay, 5, dupes=False)
    factory = _builtin_selectors(small_underlay)["composite"]
    forward = factory().rank(querier, cand)
    backward = factory().rank(querier, list(reversed(cand)))
    assert forward == backward


# -- coordinate systems: estimate_many bit-identity --------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_vivaldi_estimate_many_bit_identical(small_underlay, seed):
    rtt = small_underlay.rtt_matrix()[:25, :25].copy()
    np.fill_diagonal(rtt, 0.0)
    system = VivaldiSystem(rtt, rng=seed)
    system.run(rounds=10, neighbors_per_round=4)
    dsts = list(range(25))
    batch = system.estimate_many(3, dsts)
    assert [float(x) for x in batch] == [system.estimate(3, j) for j in dsts]
    assert system.estimate_many(3, []).shape == (0,)


def test_gnp_and_ics_estimate_many_bit_identical():
    ics = ICS(PAPER_EXAMPLE_MATRIX)
    dsts = [0, 1, 2, 3, 0]
    assert [float(x) for x in ics.estimate_many(1, dsts)] == [
        ics.estimate(1, j) for j in dsts
    ]
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(6, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    gnp = GNPSystem(d, GNPConfig(dim=2, restarts=1), seed=1)
    assert [float(x) for x in gnp.estimate_many(2, dsts)] == [
        gnp.estimate(2, j) for j in dsts
    ]


def test_default_estimate_many_falls_back_to_scalar():
    from repro.coords.base import CoordinateSystem

    class Fixed(CoordinateSystem):
        def coordinates(self):
            return np.zeros((3, 2))

        def estimate(self, i, j):
            return float(10 * i + j)

    assert list(Fixed().estimate_many(2, [0, 1, 2])) == [20.0, 21.0, 22.0]
