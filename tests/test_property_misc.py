"""Property tests: hostcache, cost model, bitfield."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.gnutella import HostCache
from repro.underlay import CostModel, CostParams
from tests.bittorrent_reference import Bitfield


@given(
    st.lists(st.integers(min_value=0, max_value=100), max_size=100),
    st.integers(min_value=1, max_value=20),
)
def test_hostcache_never_exceeds_capacity_and_keeps_recency(ops, capacity):
    hc = HostCache(capacity=capacity)
    for p in ops:
        hc.add_all((p,))
    assert len(hc) <= capacity
    snap = hc.snapshot()
    assert len(snap) == len(set(snap))
    if ops:
        assert snap[0] == ops[-1]  # most recent first


@given(
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e4),
)
def test_transit_cost_monotone_in_traffic(t1, t2):
    model = CostModel(CostParams())
    lo, hi = sorted((t1, t2))
    assert model.transit_monthly_cost(lo) <= model.transit_monthly_cost(hi)


@given(st.floats(min_value=0.1, max_value=1e5))
def test_peering_beats_transit_iff_above_crossover(traffic):
    model = CostModel(CostParams())
    cheaper_peering = model.peering_monthly_cost() < model.transit_monthly_cost(traffic)
    assert cheaper_peering == (traffic > model.crossover_mbps())


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=50)
)
def test_billable_rate_between_min_and_max(samples):
    model = CostModel()
    b = model.billable_mbps(samples)
    assert min(samples) - 1e-9 <= b <= max(samples) + 1e-9


@given(st.sets(st.integers(min_value=0, max_value=63), max_size=64))
def test_bitfield_roundtrip(pieces):
    bf = Bitfield(64)
    for p in pieces:
        bf.add(p)
    assert bf.have() == set(pieces)
    assert bf.missing() == set(range(64)) - set(pieces)
    assert bf.complete == (len(pieces) == 64)

