"""Unit tests for k-buckets and the routing table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OverlayError
from repro.overlay.kademlia import Contact, KBucket, RoutingTable, xor_distance
from tests.kbucket_reference import ReferenceKBucket


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


#: few ids and few RTT values, so refreshes, full buckets and equal worst
#: RTTs are common rather than rare
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.integers(0, 9),
            st.one_of(st.just(float("inf")), st.sampled_from([5.0, 20.0, 80.0])),
        ),
        st.tuples(st.just("remove"), st.integers(0, 9), st.none()),
        st.tuples(st.just("get"), st.integers(0, 9), st.none()),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 4), proximity=st.booleans(), ops=_ops)
def test_kbucket_matches_list_reference(k, proximity, ops):
    """The list-backed bucket against the dict-backed reference: every
    return value and the contact order (LRU position, which eviction
    picks the first worst RTT among equals) agree after every step."""
    bucket = KBucket(k=k, proximity=proximity)
    ref = ReferenceKBucket(k=k, proximity=proximity)
    for name, node_id, rtt in ops:
        if name == "update":
            contact = c(node_id, rtt=rtt)
            assert bucket.update(contact) == ref.update(contact)
        elif name == "remove":
            bucket.remove(node_id)
            ref.remove(node_id)
        else:
            assert bucket.get(node_id) == ref.get(node_id)
        assert bucket.contacts() == ref.contacts() == list(bucket)
        assert len(bucket) == len(ref) <= k
        assert (node_id in bucket) == (node_id in ref)


def test_proximity_eviction_takes_the_first_of_equal_worst():
    for bucket in (KBucket(k=3, proximity=True), ReferenceKBucket(k=3, proximity=True)):
        for nid, rtt in ((1, 80.0), (2, 10.0), (3, 80.0)):
            bucket.update(c(nid, rtt=rtt))
        assert bucket.update(c(4, rtt=20.0))
        assert [x.node_id for x in bucket.contacts()] == [2, 3, 4]
        # a worse measurement of a kept contact refreshes its position only
        assert bucket.update(c(2, rtt=500.0))
        assert [(x.node_id, x.rtt_ms) for x in bucket.contacts()] == [
            (3, 80.0), (4, 20.0), (2, 10.0)
        ]
        # a better one replaces it
        assert bucket.update(c(3, rtt=1.0))
        assert bucket.get(3).rtt_ms == 1.0


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
        assert rt.size() == 0
        assert rt.buckets == {}  # only a write allocates
        rt.update(c(9))
        assert list(rt.buckets) == [3]

    def test_all_contacts_collects_everything(self):
        rt = RoutingTable(own_id=0, k=8)
        for i in range(1, 30):
            rt.update(c(i))
        assert rt.size() == len(rt.all_contacts())
