"""Unit tests for the Kademlia id space."""

import pytest

from repro.errors import OverlayError
from repro.overlay.kademlia import ID_SPACE, key_for, random_id
from tests.id_space_reference import (
    bucket_index,
    sort_by_distance,
    xor_distance,
)


def test_xor_distance_basics():
    assert xor_distance(0b1010, 0b1010) == 0
    assert xor_distance(0b1010, 0b0010) == 0b1000
    assert xor_distance(5, 9) == xor_distance(9, 5)


def test_out_of_range_rejected():
    with pytest.raises(OverlayError):
        xor_distance(-1, 0)
    with pytest.raises(OverlayError):
        xor_distance(ID_SPACE, 0)
    with pytest.raises(OverlayError):
        xor_distance("abc", 0)  # type: ignore[arg-type]


def test_bucket_index_is_highest_differing_bit():
    assert bucket_index(0, 1) == 0
    assert bucket_index(0, 0b1000) == 3
    assert bucket_index(0b1111, 0b0111) == 3


def test_bucket_index_same_id_rejected():
    with pytest.raises(OverlayError):
        bucket_index(42, 42)


def test_random_id_in_range_and_deterministic():
    a = random_id(rng=5)
    b = random_id(rng=5)
    assert a == b
    assert 0 <= a < ID_SPACE


def test_key_for_is_stable_160bit():
    k1 = key_for("hello")
    k2 = key_for("hello")
    assert k1 == k2
    assert 0 <= k1 < ID_SPACE
    assert key_for("hello") != key_for("world")


def test_sort_by_distance():
    ids = [0b100, 0b001, 0b111]
    assert sort_by_distance(ids, 0b000) == [0b001, 0b100, 0b111]
    assert sort_by_distance(ids, 0b111) == [0b111, 0b100, 0b001]
