"""Property and unit tests for the flow-level max-min allocators.

The progressive-filling allocator (:func:`repro.sim.flows.max_min_rates`)
must satisfy the defining properties of a max-min fair allocation on
every instance: no link over capacity, every flow pinned by a saturated
bottleneck or its own ceiling, and indifference to flow order.  The
closed-form single-link water-filling fast path must agree with
progressive filling exactly on its domain (each flow crossing one
capacitated link plus an optional ceiling).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.flows import grouped_order, max_min_rates, single_link_waterfill

_SAT_RTOL = 1e-9


def _waterfill_lexsort(capacity, link_of_flow, flow_cap):
    """The water-filling as it stood up to commit 944e555 — ordered by a
    stable ``lexsort``, segments found through ``np.r_`` — kept as the
    oracle the reordered one must equal to the bit."""
    n_flows = link_of_flow.size
    rates = np.zeros(n_flows)
    order = np.lexsort((flow_cap, link_of_flow))
    link = link_of_flow[order]
    cap = flow_cap[order]
    starts = np.flatnonzero(np.r_[True, link[1:] != link[:-1]])
    counts = np.diff(np.r_[starts, n_flows])
    gidx = np.repeat(np.arange(starts.size), counts)
    pos = np.arange(n_flows) - starts[gidx]
    cap_fin = np.where(np.isfinite(cap), cap, 0.0)
    csum = np.cumsum(cap_fin)
    prefix_excl = csum - cap_fin - np.r_[0.0, csum][starts][gidx]
    d = capacity[link[starts]][gidx]
    water = prefix_excl + (counts[gidx] - pos) * cap
    sentinel = n_flows + 1
    first = np.minimum.reduceat(np.where(water >= d, pos, sentinel), starts)
    lam = np.full(starts.size, np.inf)
    bound = np.flatnonzero(first < sentinel)
    at = starts[bound] + first[bound]
    lam[bound] = (capacity[link[starts[bound]]] - prefix_excl[at]) / (
        counts[bound] - first[bound]
    )
    rates[order] = np.where(pos < first[gidx], cap, lam[gidx])
    return rates


def _random_instance(rng, n_links, n_flows):
    capacity = rng.uniform(0.5, 100.0, size=n_links)
    rows = [
        rng.choice(n_links, size=rng.integers(1, min(4, n_links) + 1),
                   replace=False)
        for _ in range(n_flows)
    ]
    indptr = np.zeros(n_flows + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return capacity, indptr, indices


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_max_min_capacity_and_bottleneck(seed):
    rng = np.random.default_rng(seed)
    n_links = int(rng.integers(1, 8))
    n_flows = int(rng.integers(1, 20))
    capacity, indptr, indices = _random_instance(rng, n_links, n_flows)
    rates = max_min_rates(capacity, indptr, indices)

    load = np.bincount(indices, weights=np.repeat(rates, np.diff(indptr)),
                       minlength=n_links)
    # no link above capacity (tolerance for float accumulation)
    assert np.all(load <= capacity * (1 + 1e-6))
    # every flow crosses at least one saturated link (else it could grow:
    # not max-min)
    saturated = load >= capacity * (1 - 1e-6)
    for f in range(n_flows):
        links = indices[indptr[f]:indptr[f + 1]]
        assert saturated[links].any(), (f, rates[f])
    assert np.all(rates > 0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_max_min_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n_links = int(rng.integers(1, 6))
    n_flows = int(rng.integers(2, 15))
    capacity, indptr, indices = _random_instance(rng, n_links, n_flows)
    rates = max_min_rates(capacity, indptr, indices)

    perm = rng.permutation(n_flows)
    rows = [indices[indptr[f]:indptr[f + 1]] for f in perm]
    p_indptr = np.zeros(n_flows + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=p_indptr[1:])
    p_rates = max_min_rates(capacity, p_indptr, np.concatenate(rows))
    np.testing.assert_allclose(p_rates, rates[perm], rtol=1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_max_min_respects_flow_ceilings(seed):
    rng = np.random.default_rng(seed)
    n_links = int(rng.integers(1, 6))
    n_flows = int(rng.integers(1, 15))
    capacity, indptr, indices = _random_instance(rng, n_links, n_flows)
    flow_cap = rng.uniform(0.1, 50.0, size=n_flows)
    rates = max_min_rates(capacity, indptr, indices, flow_cap)

    assert np.all(rates <= flow_cap * (1 + 1e-9))
    load = np.bincount(indices, weights=np.repeat(rates, np.diff(indptr)),
                       minlength=n_links)
    assert np.all(load <= capacity * (1 + 1e-6))
    # every flow pinned: either by its ceiling or by a saturated link
    saturated = load >= capacity * (1 - 1e-6)
    for f in range(n_flows):
        links = indices[indptr[f]:indptr[f + 1]]
        pinned = rates[f] >= flow_cap[f] * (1 - 1e-6) or saturated[links].any()
        assert pinned, (f, rates[f], flow_cap[f])


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(max_examples=120, deadline=None)
def test_waterfill_matches_progressive_filling(seed, shared_ceilings):
    rng = np.random.default_rng(seed)
    n_links = int(rng.integers(1, 8))
    n_flows = int(rng.integers(1, 40))
    capacity = rng.uniform(0.5, 100.0, size=n_links)
    link_of_flow = rng.integers(0, n_links, size=n_flows)
    if shared_ceilings:
        # a swarm's ceilings are ``up_bps / slots`` of a few access
        # classes: most flows on a link tie with another one, and the
        # water level often falls inside a run of equal ceilings
        classes = rng.choice([16.0, 48.0, 128.0], size=3) / rng.integers(1, 6, size=3)
        flow_cap = rng.choice(classes, size=n_flows)
        capacity = rng.choice([8.0, 32.0, 96.0, 256.0], size=n_links)
    else:
        flow_cap = rng.uniform(0.05, 60.0, size=n_flows)
    # sprinkle uncapped flows (finite link capacity keeps them bounded)
    flow_cap[rng.random(n_flows) < 0.2] = np.inf

    fast = single_link_waterfill(capacity, link_of_flow, flow_cap)

    # to the bit what the lexsort-ordered water-filling returned, ties in
    # the ceilings included
    assert np.array_equal(
        fast, _waterfill_lexsort(capacity, link_of_flow, flow_cap)
    )
    indptr = np.arange(n_flows + 1, dtype=np.int64)
    rates = max_min_rates(capacity, indptr, link_of_flow, flow_cap)
    np.testing.assert_allclose(fast, rates, rtol=1e-9, atol=1e-12)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 3, 40, 2**20, 2**61]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_grouped_order_is_lexsort(seed, n_groups, tied):
    """Same permutation as the stable two-key lexsort: on values that tie
    (where the unstable value sort is free to leave them anywhere), on
    infinities and signed zeros, and past the width one int64 can pack
    (``2**61`` groups), where it falls back to the lexsort itself."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 70))
    group = rng.integers(0, n_groups, size=n)
    if tied:
        value = rng.choice([0.0, -0.0, 0.25, 0.5, np.inf], size=n)
    else:
        value = rng.random(n)
    order = grouped_order(group, value)
    assert np.array_equal(order, np.lexsort((value, group)))


class TestAllocatorEdges:
    def test_empty_instance(self):
        rates = max_min_rates(np.zeros(0), np.zeros(1, dtype=np.int64),
                              np.zeros(0, dtype=np.int64))
        assert rates.size == 0
        assert single_link_waterfill(
            np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0)
        ).size == 0

    def test_single_bottleneck_equal_split(self):
        capacity = np.array([30.0])
        indptr = np.array([0, 1, 2, 3], dtype=np.int64)
        indices = np.zeros(3, dtype=np.int64)
        np.testing.assert_allclose(
            max_min_rates(capacity, indptr, indices), [10.0, 10.0, 10.0]
        )

    def test_waterfill_ceiling_then_share(self):
        # one slow flow pinned at its ceiling, the rest split the leftover
        rates = single_link_waterfill(
            np.array([10.0]),
            np.zeros(3, dtype=np.int64),
            np.array([1.0, np.inf, np.inf]),
        )
        np.testing.assert_allclose(rates, [1.0, 4.5, 4.5])

    def test_unbounded_raises(self):
        with pytest.raises(SimulationError):
            single_link_waterfill(
                np.array([np.inf]),
                np.zeros(1, dtype=np.int64),
                np.array([np.inf]),
            )

    def test_infinite_link_uses_ceiling(self):
        rates = single_link_waterfill(
            np.array([np.inf]),
            np.zeros(2, dtype=np.int64),
            np.array([3.0, 7.0]),
        )
        np.testing.assert_allclose(rates, [3.0, 7.0])
