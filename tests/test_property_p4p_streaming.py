"""Property tests: P4P weighting and streaming-swarm invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collection import P4PService
from repro.overlay.streaming import SchedulerPolicy, StreamConfig, StreamingSwarm
from repro.underlay import Underlay, UnderlayConfig

_UNDERLAY = Underlay.generate(UnderlayConfig(n_hosts=40, seed=55))
_P4P = P4PService(_UNDERLAY)
_IDS = _UNDERLAY.host_ids()


@given(
    st.lists(st.sampled_from(_IDS), min_size=1, max_size=25),
    st.floats(min_value=0.1, max_value=10.0),
)
# exp(-80 / 0.1015625) underflowed: the far candidate weighed exactly 0
@example(cands=[1, 25, 25], softness=0.1015625)
def test_p4p_weights_form_distribution(cands, softness):
    q = _IDS[0]
    cands = [c for c in cands if c != q]
    if not cands:
        return
    w = _P4P.selection_weights(q, cands, softness=softness)
    assert w.shape == (len(cands),)
    assert (w > 0).all()
    assert w.sum() == pytest.approx(1.0)


def test_p4p_pick_peers_takes_every_candidate_when_far_ones_underflow():
    """k = len(candidates) must not fail on a candidate whose weight
    would underflow: numpy refuses to draw more peers than nonzero
    weights."""
    q, cands = _IDS[0], [1, 25, 25]
    w = _P4P.selection_weights(q, cands, softness=0.1015625)
    assert (w > 0).all() and w[1] == w[2]
    picked = _P4P.pick_peers(q, cands, len(cands), softness=0.1015625, rng=3)
    assert sorted(picked) == sorted(cands)


@given(st.lists(st.sampled_from(_IDS), min_size=2, max_size=25, unique=True))
def test_p4p_weights_monotone_in_pdistance(cands):
    q = _IDS[0]
    cands = [c for c in cands if c != q]
    if len(cands) < 2:
        return
    w = _P4P.selection_weights(q, cands, softness=1.0)
    my = _P4P.my_pid(q)
    d = np.array([_P4P._pdistance[my, _P4P.my_pid(c)] for c in cands])
    # strictly cheaper p-distance never gets a smaller weight
    for i in range(len(cands)):
        for j in range(len(cands)):
            if d[i] < d[j]:
                assert w[i] >= w[j] - 1e-12


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=20, max_value=60),
    st.integers(min_value=0, max_value=1000),
)
def test_streaming_conservation(copies, intervals, seed):
    src = max(
        _UNDERLAY.hosts, key=lambda h: h.resources.bandwidth_up_kbps
    ).host_id
    viewers = [i for i in _IDS if i != src][:25]
    swarm = StreamingSwarm(
        _UNDERLAY, src, viewers,
        config=StreamConfig(bitrate_kbps=800.0, source_copies=copies),
        policy=SchedulerPolicy.BANDWIDTH_AWARE, rng=seed,
    )
    rep = swarm.run(intervals)
    # the source never exceeds its copy budget
    assert swarm.source_chunks_served <= copies * intervals
    # every held chunk was produced; playback counters are consistent
    for p in swarm.peers.values():
        assert all(0 <= c <= swarm.live_edge for c in p.chunks)
        if p.started:
            assert p.played + p.missed == p.playhead + 1
        assert 0.0 <= p.continuity <= 1.0
    assert rep.chunks_produced == intervals
