"""Property tests: the XOR metric and id-space invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.kademlia import ID_SPACE
from tests.id_space_reference import (
    bucket_index,
    sort_by_distance,
    xor_distance,
)

ids = st.integers(min_value=0, max_value=ID_SPACE - 1)


@given(ids, ids)
def test_symmetry(a, b):
    assert xor_distance(a, b) == xor_distance(b, a)


@given(ids)
def test_identity(a):
    assert xor_distance(a, a) == 0


@given(ids, ids)
def test_zero_iff_equal(a, b):
    assert (xor_distance(a, b) == 0) == (a == b)


@given(ids, ids, ids)
def test_triangle_inequality(a, b, c):
    # XOR satisfies d(a,c) <= d(a,b) + d(b,c)
    assert xor_distance(a, c) <= xor_distance(a, b) + xor_distance(b, c)


@given(ids, ids, ids)
def test_unidirectionality(a, b, target):
    # distinct points have distinct distances to any target
    if a != b:
        assert xor_distance(a, target) != xor_distance(b, target)


@given(ids, ids)
def test_bucket_index_bounds_distance(a, b):
    if a == b:
        return
    i = bucket_index(a, b)
    d = xor_distance(a, b)
    assert 2**i <= d < 2 ** (i + 1)


@given(st.lists(ids, min_size=1, max_size=20, unique=True), ids)
def test_sort_by_distance_is_sorted_permutation(lst, target):
    out = sort_by_distance(lst, target)
    assert sorted(out) == sorted(lst)
    dists = [xor_distance(x, target) for x in out]
    assert dists == sorted(dists)
