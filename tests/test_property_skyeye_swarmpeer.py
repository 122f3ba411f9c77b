"""Property tests: SkyEye aggregation correctness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import SkyEyeOverlay
from repro.underlay import PeerResources

resources = st.builds(
    PeerResources,
    bandwidth_down_kbps=st.floats(min_value=0, max_value=1e5),
    bandwidth_up_kbps=st.floats(min_value=0, max_value=1e5),
    cpu_ops=st.floats(min_value=0, max_value=10),
    storage_gb=st.floats(min_value=0, max_value=1000),
    memory_mb=st.floats(min_value=0, max_value=1e4),
    avg_online_hours=st.floats(min_value=0, max_value=24),
)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=200), resources,
        min_size=1, max_size=40,
    ),
    st.integers(min_value=2, max_value=6),
)
def test_skyeye_root_view_matches_brute_force(reports, branching):
    peers = sorted(reports)
    sky = SkyEyeOverlay(peers, branching=branching, top_k=5)
    for p, res in reports.items():
        sky.report(p, res)
    view = sky.run_aggregation_round()
    # count and sums match exact aggregation
    assert view.count == len(reports)
    expected_up = sum(r.bandwidth_up_kbps for r in reports.values())
    assert np.isclose(view.sums["bandwidth_up_kbps"], expected_up)
    expected_max = max(r.storage_gb for r in reports.values())
    assert np.isclose(view.maxima["storage_gb"], expected_max)
    # top-k matches brute force on capacity score (ties by peer id may
    # reorder equal scores; compare score multisets)
    brute = sorted(
        (reports[p].capacity_score() for p in peers), reverse=True
    )[:5]
    got = sorted(
        (reports[p].capacity_score() for p in sky.top_capacity_peers(5)),
        reverse=True,
    )
    assert np.allclose(got, brute[: len(got)])


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=100), resources,
        min_size=2, max_size=25,
    ),
)
def test_skyeye_aggregation_idempotent(reports):
    peers = sorted(reports)
    sky = SkyEyeOverlay(peers, branching=3)
    for p, res in reports.items():
        sky.report(p, res)
    v1 = sky.run_aggregation_round()
    v2 = sky.run_aggregation_round()
    assert v1.count == v2.count
    assert np.isclose(
        v1.sums["bandwidth_up_kbps"], v2.sums["bandwidth_up_kbps"]
    )
