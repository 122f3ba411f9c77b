"""Unit tests for the SkyEye information management overlay."""

import numpy as np
import pytest

from repro.collection import SkyEyeOverlay
from repro.errors import CollectionError
from repro.underlay import PeerResources


def _res(up: float, hours: float = 4.0) -> PeerResources:
    return PeerResources(10 * up, up, 1.0, 10.0, 512.0, hours)


def test_tree_structure():
    # 13 slots at branching 3: the root, 3 children, 9 grandchildren
    assert SkyEyeOverlay([0]).depth() == 0
    assert SkyEyeOverlay(list(range(4)), branching=3).depth() == 1
    assert SkyEyeOverlay(list(range(5)), branching=3).depth() == 2
    sky = SkyEyeOverlay(list(range(13)), branching=3)
    assert sky.depth() == 2
    for p in range(13):
        sky.report(p, _res(up=10.0 * (p + 1)))
    view = sky.run_aggregation_round()
    # every report reaches the root over one tree edge per non-root peer
    assert view.count == 13
    assert sky.overhead.messages == 12
    assert view.maxima["bandwidth_up_kbps"] == pytest.approx(130.0)


def test_depth_logarithmic():
    sky = SkyEyeOverlay(list(range(1000)), branching=4)
    assert sky.depth() <= 5


def test_aggregation_counts_and_means():
    peers = list(range(10))
    sky = SkyEyeOverlay(peers, branching=2)
    for p in peers:
        sky.report(p, _res(up=100.0 * (p + 1)))
    view = sky.run_aggregation_round()
    assert view.count == 10
    expected_mean = 100.0 * np.mean(range(1, 11))
    assert view.mean("bandwidth_up_kbps") == pytest.approx(expected_mean)
    assert view.maxima["bandwidth_up_kbps"] == pytest.approx(1000.0)


def test_top_capacity_identifies_strongest():
    peers = list(range(30))
    sky = SkyEyeOverlay(peers, branching=4, top_k=5)
    for p in peers:
        sky.report(p, _res(up=10.0 * (p + 1)))
    sky.run_aggregation_round()
    assert sky.top_capacity_peers(3) == [29, 28, 27]


def test_partial_reports_aggregate_partially():
    peers = list(range(8))
    sky = SkyEyeOverlay(peers, branching=2)
    for p in peers[:5]:
        sky.report(p, _res(up=100.0))
    view = sky.run_aggregation_round()
    assert view.count == 5


def test_message_overhead_is_n_minus_one_per_round():
    sky = SkyEyeOverlay(list(range(25)), branching=3)
    for p in range(25):
        sky.report(p, _res(100.0))
    sky.run_aggregation_round()
    assert sky.overhead.messages == 24
    sky.run_aggregation_round()
    assert sky.overhead.messages == 48


def test_query_before_aggregation_rejected():
    sky = SkyEyeOverlay([1, 2, 3])
    with pytest.raises(CollectionError):
        _ = sky.root_view


def test_unknown_peer_rejected():
    sky = SkyEyeOverlay([1, 2, 3])
    with pytest.raises(CollectionError):
        sky.report(99, _res(1.0))


def test_duplicate_peers_rejected():
    with pytest.raises(CollectionError):
        SkyEyeOverlay([1, 1, 2])


def test_unknown_attribute_rejected():
    sky = SkyEyeOverlay([1, 2])
    sky.report(1, _res(10.0))
    sky.run_aggregation_round()
    with pytest.raises(CollectionError):
        sky.root_view.mean("nonexistent")


def test_updated_report_replaces_old():
    sky = SkyEyeOverlay([1, 2], branching=2)
    sky.report(1, _res(100.0))
    sky.report(1, _res(500.0))
    sky.report(2, _res(100.0))
    view = sky.run_aggregation_round()
    assert view.maxima["bandwidth_up_kbps"] == pytest.approx(500.0)
    assert view.count == 2
