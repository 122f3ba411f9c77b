"""The validating XOR-metric helpers, kept as test oracles.

``src/`` computes a distance as plain ``a ^ b`` and a bucket index as
``(own_id ^ x).bit_length() - 1`` between ids it has already checked
(``repro.overlay.kademlia.id_space.validate_id``).  These are the
obvious, checking formulations the property and equivalence tests hold
that inline arithmetic to.
"""

from __future__ import annotations

from repro.errors import OverlayError
from repro.overlay.kademlia.id_space import validate_id


def xor_distance(a: int, b: int) -> int:
    """XOR distance between two ids."""
    return validate_id(a) ^ validate_id(b)


def bucket_index(own_id: int, other_id: int) -> int:
    """Index of the k-bucket that ``other_id`` falls into relative to
    ``own_id``: the position of the highest differing bit (0..159).
    Raises for identical ids (a node does not bucket itself)."""
    d = xor_distance(own_id, other_id)
    if d == 0:
        raise OverlayError("cannot bucket an identical id")
    return d.bit_length() - 1


def sort_by_distance(ids: list[int], target: int) -> list[int]:
    """Ids sorted by XOR distance to ``target`` (ties impossible for
    distinct ids)."""
    return sorted(ids, key=lambda i: xor_distance(i, target))
