"""Unit tests for the Gnutella hostcache and the list-building bootstrap
fill its oracle uses."""

import pytest

from repro.errors import OverlayError
from repro.overlay.gnutella import HostCache
from tests.gnutella_reference import fill_random


def test_add_and_contains():
    hc = HostCache(capacity=5)
    hc.add_all((1,))
    hc.add_all((2,))
    assert 1 in hc and 2 in hc
    assert len(hc) == 2


def test_eviction_of_oldest():
    hc = HostCache(capacity=3)
    for p in (1, 2, 3, 4):
        hc.add_all((p,))
    assert 1 not in hc
    assert set(hc.snapshot()) == {2, 3, 4}


def test_readd_moves_to_back():
    hc = HostCache(capacity=3)
    for p in (1, 2, 3):
        hc.add_all((p,))
    hc.add_all((1,))  # refresh
    hc.add_all((4,))  # evicts 2, the now-oldest
    assert 1 in hc and 2 not in hc


def test_snapshot_most_recent_first_with_limit():
    hc = HostCache(capacity=10)
    for p in range(6):
        hc.add_all((p,))
    assert hc.snapshot() == [5, 4, 3, 2, 1, 0]
    assert hc.snapshot(limit=2) == [5, 4]


def test_fill_random_distinct_subset():
    hc = HostCache(capacity=100)
    fill_random(hc, list(range(1000)), 50, rng=1)
    snap = hc.snapshot()
    assert len(snap) == 50
    assert len(set(snap)) == 50


def test_fill_random_respects_capacity():
    hc = HostCache(capacity=10)
    fill_random(hc, list(range(100)), 50, rng=2)
    assert len(hc) == 10


def test_remove():
    hc = HostCache()
    hc.add_all((7,))
    hc.remove(7)
    hc.remove(8)  # absent: no error
    assert 7 not in hc


def test_zero_capacity_rejected():
    with pytest.raises(OverlayError):
        HostCache(capacity=0)
