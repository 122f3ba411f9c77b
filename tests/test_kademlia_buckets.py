"""Unit tests for k-buckets and the routing table.

A bucket is written only through ``RoutingTable.update_many``; the
bucket-level tests use a table whose contacts all share one bucket.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OverlayError
from repro.overlay.kademlia import Contact, RoutingTable
from repro.overlay.kademlia.id_space import ID_BITS, validate_id
from tests.id_space_reference import xor_distance
from tests.kbucket_reference import ReferenceKBucket

#: owner id of a one-bucket table: every id below 2**8 lands in bucket 8
OWN = 1 << 8


def c(nid, hid=None, rtt=float("inf")):
    return Contact(node_id=nid, host_id=hid if hid is not None else nid, rtt_ms=rtt)


def one_bucket(k, proximity=False):
    return RoutingTable(OWN, k=k, proximity=proximity)


class TestKBucketLRU:
    def test_insert_until_full_then_drop(self):
        t = one_bucket(3)
        assert t.update_many([c(i) for i in range(3)]) == [True] * 3
        assert t.update_many([c(99)]) == [False]
        b = t.buckets[8]
        assert 99 not in b
        assert len(b) == 3

    def test_refresh_moves_to_tail(self):
        t = one_bucket(3)
        t.update_many([c(i) for i in range(3)])
        t.update_many([c(0)])
        assert [x.node_id for x in t.buckets[8].contacts()] == [1, 2, 0]

    def test_remove(self):
        t = one_bucket(3)
        t.update_many([c(1)])
        t.remove(1)
        assert 1 not in t.buckets[8]
        t.remove(2)  # absent is fine

    def test_get(self):
        t = one_bucket(2)
        t.update_many([c(5, rtt=12.0)])
        assert t.buckets[8].get(5).rtt_ms == 12.0
        assert t.buckets[8].get(6) is None

    def test_invalid_k(self):
        with pytest.raises(OverlayError):
            RoutingTable(OWN, k=0)


class TestKBucketProximity:
    def test_full_bucket_prefers_lower_rtt(self):
        t = one_bucket(2, proximity=True)
        t.update_many([c(1, rtt=100.0), c(2, rtt=200.0)])
        assert t.update_many([c(3, rtt=50.0)]) == [True]  # evicts the 200ms contact
        assert 2 not in t.buckets[8] and 3 in t.buckets[8]

    def test_full_bucket_rejects_higher_rtt(self):
        t = one_bucket(2, proximity=True)
        t.update_many([c(1, rtt=10.0), c(2, rtt=20.0)])
        assert t.update_many([c(3, rtt=500.0)]) == [False]

    def test_refresh_keeps_best_rtt(self):
        t = one_bucket(2, proximity=True)
        t.update_many([c(1, rtt=10.0)])
        t.update_many([c(1, rtt=50.0)])  # worse later measurement
        assert t.buckets[8].get(1).rtt_ms == 10.0


#: few ids and few RTT values, so refreshes, full buckets and equal worst
#: RTTs are common rather than rare
_RTTS = st.one_of(st.just(float("inf")), st.sampled_from([5.0, 20.0, 80.0]))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 9), _RTTS),
        st.tuples(st.just("remove"), st.integers(0, 9), st.none()),
        st.tuples(st.just("get"), st.integers(0, 9), st.none()),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 4), proximity=st.booleans(), ops=_ops)
def test_kbucket_matches_list_reference(k, proximity, ops):
    """One bucket of the table against the list-backed reference: every
    return value and the contact order (LRU position, which eviction
    picks the first worst RTT among equals) agree after every step."""
    table = one_bucket(k, proximity)
    ref = ReferenceKBucket(k=k, proximity=proximity)
    for name, node_id, rtt in ops:
        if name == "update":
            contact = c(node_id, rtt=rtt)
            assert table.update_many([contact]) == [ref.update(contact)]
        elif name == "remove":
            table.remove(node_id)
            ref.remove(node_id)
        else:
            assert table.get(node_id) == ref.get(node_id)
        bucket = table.buckets.get(8)
        got = [] if bucket is None else bucket.contacts()
        assert got == ref.contacts()
        assert len(got) == len(ref) <= k
        assert (bucket is not None and node_id in bucket) == (node_id in ref)


def test_proximity_eviction_takes_the_first_of_equal_worst():
    table, ref = one_bucket(3, proximity=True), ReferenceKBucket(k=3, proximity=True)

    def update(contacts):
        got = table.update_many(contacts)
        assert got == [ref.update(x) for x in contacts]
        return got

    def order():
        got = [(x.node_id, x.rtt_ms) for x in table.buckets[8].contacts()]
        assert got == [(x.node_id, x.rtt_ms) for x in ref.contacts()]
        return got

    update([c(nid, rtt=rtt) for nid, rtt in ((1, 80.0), (2, 10.0), (3, 80.0))])
    assert update([c(4, rtt=20.0)]) == [True]
    assert order() == [(2, 10.0), (3, 80.0), (4, 20.0)]
    # a worse measurement of a kept contact refreshes its position only
    assert update([c(2, rtt=500.0)]) == [True]
    assert order() == [(3, 80.0), (4, 20.0), (2, 10.0)]
    # a better one replaces it
    assert update([c(3, rtt=1.0)]) == [True]
    assert table.get(3).rtt_ms == 1.0


# -- update_many against sequential reference updates -----------------------------
#: a bool, a negative, the first id past the 160-bit space and a float
#: equal to a valid id: only ``True`` (an int, id 1) is accepted
HOSTILE_IDS = [True, -1, 2**ID_BITS, 12.0]


def _reference_update(model, own_id, k, proximity, contact):
    """One contact, the way a table of ``ReferenceKBucket``s takes it."""
    node_id = validate_id(contact.node_id)
    b = (node_id ^ own_id).bit_length() - 1
    if b < 0:
        return False
    bucket = model.setdefault(b, ReferenceKBucket(k=k, proximity=proximity))
    return bucket.update(contact)


@settings(max_examples=300, deadline=None)
@given(
    own_id=st.integers(0, 63),
    k=st.integers(1, 4),
    proximity=st.booleans(),
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("batch"),
                st.lists(
                    st.tuples(
                        st.one_of(
                            st.integers(0, 63), st.integers(0, 63),
                            st.sampled_from(HOSTILE_IDS),
                        ),
                        _RTTS,
                    ),
                    max_size=10,
                ),
            ),
            st.tuples(st.just("remove"), st.integers(0, 63)),
        ),
        max_size=30,
    ),
)
def test_update_many_matches_sequential_reference(own_id, k, proximity, ops):
    """A 6-bit id space: buckets fill, replies repeat ids, RTTs tie.  A
    batch returns what one reference update per contact returns, and
    ``all_contacts()`` lists the reference buckets' contacts in the same
    order; a batch holding a bad id raises having written exactly the
    contacts before it, as sequential updates do."""
    table = RoutingTable(own_id, k=k, proximity=proximity)
    model: dict[int, ReferenceKBucket] = {}
    for op in ops:
        if op[0] == "batch":
            contacts = [c(node_id, hid=7, rtt=rtt) for node_id, rtt in op[1]]
            want, ref_error = [], None
            for contact in contacts:
                try:
                    want.append(
                        _reference_update(model, own_id, k, proximity, contact)
                    )
                except OverlayError as exc:
                    ref_error = exc
                    break
            if ref_error is None:
                assert table.update_many(contacts) == want
            else:
                with pytest.raises(OverlayError):
                    table.update_many(contacts)
        else:
            table.remove(op[1])
            b = (op[1] ^ own_id).bit_length() - 1
            if b in model:
                model[b].remove(op[1])
        assert table.all_contacts() == [
            x for b in sorted(model) for x in model[b].contacts()
        ]
        assert all(len(bucket) <= k for bucket in table.buckets.values())


class TestRoutingTable:
    def test_ignores_self(self):
        rt = RoutingTable(own_id=42)
        assert rt.update_many([c(42)]) == [False]
        assert not rt.update(c(42))  # the single-contact form
        assert rt.size() == 0

    def test_update_places_in_correct_bucket(self):
        rt = RoutingTable(own_id=0, k=4)
        rt.update_many([c(0b1000)])
        assert rt.buckets[3].get(0b1000) is not None

    def test_closest_returns_sorted_by_xor(self):
        rt = RoutingTable(own_id=0, k=20)
        ids = [1, 2, 3, 8, 9, 300, 5000]
        rt.update_many([c(i) for i in ids])
        target = 7
        got = [x.node_id for x in rt.closest(target, 4)]
        expected = sorted(ids, key=lambda i: xor_distance(i, target))[:4]
        assert got == expected

    def test_remove_and_get(self):
        rt = RoutingTable(own_id=0)
        rt.update_many([c(9)])
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
        rt.update_many([c(9)])
        assert list(rt.buckets) == [3]

    def test_all_contacts_collects_everything(self):
        rt = RoutingTable(own_id=0, k=8)
        rt.update_many([c(i) for i in range(1, 30)])
        assert rt.size() == len(rt.all_contacts())
