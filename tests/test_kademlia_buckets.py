"""Unit tests for k-buckets and the routing table."""

import pytest

from repro.errors import OverlayError
from repro.overlay.kademlia import Contact, KBucket, RoutingTable, xor_distance


def c(nid, hid=None, rtt=float("inf")):
    return Contact(node_id=nid, host_id=hid if hid is not None else nid, rtt_ms=rtt)


class TestKBucketLRU:
    def test_insert_until_full_then_drop(self):
        b = KBucket(k=3)
        assert all(b.update(c(i)) for i in range(3))
        assert not b.update(c(99))
        assert 99 not in b
        assert len(b) == 3

    def test_refresh_moves_to_tail(self):
        b = KBucket(k=3)
        for i in range(3):
            b.update(c(i))
        b.update(c(0))
        assert [x.node_id for x in b.contacts()] == [1, 2, 0]

    def test_remove(self):
        b = KBucket(k=3)
        b.update(c(1))
        b.remove(1)
        assert 1 not in b
        b.remove(2)  # absent is fine

    def test_get(self):
        b = KBucket(k=2)
        b.update(c(5, rtt=12.0))
        assert b.get(5).rtt_ms == 12.0
        assert b.get(6) is None

    def test_invalid_k(self):
        with pytest.raises(OverlayError):
            KBucket(k=0)


class TestKBucketProximity:
    def test_full_bucket_prefers_lower_rtt(self):
        b = KBucket(k=2, proximity=True)
        b.update(c(1, rtt=100.0))
        b.update(c(2, rtt=200.0))
        assert b.update(c(3, rtt=50.0))  # evicts the 200ms contact
        assert 2 not in b and 3 in b

    def test_full_bucket_rejects_higher_rtt(self):
        b = KBucket(k=2, proximity=True)
        b.update(c(1, rtt=10.0))
        b.update(c(2, rtt=20.0))
        assert not b.update(c(3, rtt=500.0))

    def test_refresh_keeps_best_rtt(self):
        b = KBucket(k=2, proximity=True)
        b.update(c(1, rtt=10.0))
        b.update(c(1, rtt=50.0))  # worse later measurement
        assert b.get(1).rtt_ms == 10.0


class TestRoutingTable:
    def test_ignores_self(self):
        rt = RoutingTable(own_id=42)
        assert not rt.update(c(42))
        assert rt.size() == 0

    def test_update_places_in_correct_bucket(self):
        rt = RoutingTable(own_id=0, k=4)
        rt.update(c(0b1000))
        assert rt.buckets[3].get(0b1000) is not None

    def test_closest_returns_sorted_by_xor(self):
        rt = RoutingTable(own_id=0, k=20)
        ids = [1, 2, 3, 8, 9, 300, 5000]
        for i in ids:
            rt.update(c(i))
        target = 7
        got = [x.node_id for x in rt.closest(target, 4)]
        expected = sorted(ids, key=lambda i: xor_distance(i, target))[:4]
        assert got == expected

    def test_remove_and_get(self):
        rt = RoutingTable(own_id=0)
        rt.update(c(9))
        assert rt.get(9) is not None
        rt.remove(9)
        assert rt.get(9) is None
        assert rt.get(0) is None  # self lookup

    def test_reads_allocate_no_bucket(self):
        rt = RoutingTable(own_id=0, k=4)
        assert rt.get(9) is None
        assert rt.closest(7, 3) == []
        rt.remove(9)
        assert rt.size() == 0 and rt.nonempty_buckets() == []
        assert rt.buckets == {}  # only a write allocates
        rt.update(c(9))
        assert list(rt.buckets) == [3]

    def test_nonempty_buckets(self):
        rt = RoutingTable(own_id=0, k=2)
        rt.update(c(1))        # bucket 0
        rt.update(c(0b100))    # bucket 2
        assert rt.nonempty_buckets() == [0, 2]

    def test_all_contacts_collects_everything(self):
        rt = RoutingTable(own_id=0, k=8)
        for i in range(1, 30):
            rt.update(c(i))
        assert rt.size() == len(rt.all_contacts())
