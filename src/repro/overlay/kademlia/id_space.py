"""Kademlia identifier space: 160-bit ids under the XOR metric.

The XOR metric is a genuine metric (symmetric, zero iff equal, triangle
inequality holds with equality-or-better) and is unidirectional: for any
target there is exactly one closest id.  Between ids that passed
:func:`validate_id` a distance is plain ``a ^ b``; the property tests
check these invariants on the validating reference helpers in
``tests/id_space_reference.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import OverlayError
from repro.rng import SeedLike, ensure_rng

ID_BITS = 160
ID_SPACE = 1 << ID_BITS


def validate_id(node_id: int) -> int:
    """Return the id unchanged after checking type and 160-bit range."""
    if not isinstance(node_id, int):
        raise OverlayError(f"node id must be int, got {type(node_id).__name__}")
    if not (0 <= node_id < ID_SPACE):
        raise OverlayError(f"node id out of range: {node_id}")
    return node_id


def random_id(rng: SeedLike = None) -> int:
    """Uniform random 160-bit id."""
    rng = ensure_rng(rng)
    # draw 160 bits as 20 bytes
    data = rng.integers(0, 256, size=ID_BITS // 8, dtype=np.uint8).tobytes()
    return int.from_bytes(data, "big")


def key_for(content: object) -> int:
    """Hash any hashable/printable content id into the key space (SHA-1,
    Kademlia's original choice — 160 bits exactly)."""
    digest = hashlib.sha1(repr(content).encode()).digest()
    return int.from_bytes(digest, "big")
