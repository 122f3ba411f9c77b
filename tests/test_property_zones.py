"""Property tests: quadtree invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.geo import Rect, ZoneTree
from repro.overlay.geo.zones import ZONE_MAX_DEPTH
from repro.underlay.geometry import Position

coords = st.floats(min_value=0.0, max_value=99.999, allow_nan=False)
points = st.lists(st.tuples(coords, coords), min_size=0, max_size=60)


def _build(pts):
    tree = ZoneTree(Rect(0, 0, 100, 100), capacity=4)
    for i, (x, y) in enumerate(pts):
        tree.insert(i, Position(x, y))
    return tree


@given(points)
def test_every_peer_in_exactly_one_leaf(pts):
    tree = _build(pts)
    seen = []
    for leaf in tree.leaves():
        for pid, pos in leaf.members.items():
            assert leaf.rect.contains(pos)
            seen.append(pid)
    assert sorted(seen) == list(range(len(pts)))


@given(points)
def test_leaf_capacity_respected(pts):
    tree = _build(pts)
    for leaf in tree.leaves():
        assert len(leaf.members) <= 4 or leaf.depth == ZONE_MAX_DEPTH


@given(points, coords, coords, coords, coords)
def test_area_query_matches_brute_force(pts, x0, y0, x1, y1):
    if x1 <= x0 or y1 <= y0:
        return
    tree = _build(pts)
    area = Rect(x0, y0, x1, y1)
    found, _visited = tree.search_area(area)
    brute = sorted(
        i for i, (x, y) in enumerate(pts) if area.contains(Position(x, y))
    )
    assert found == brute


@given(points, coords, coords, st.integers(min_value=1, max_value=8))
def test_nearest_matches_brute_force(pts, qx, qy, k):
    if not pts:
        return
    tree = _build(pts)
    q = Position(qx, qy)
    got, _visited = tree.nearest(q, k=k)
    dists = sorted(
        (Position(x, y).distance_to(q), i) for i, (x, y) in enumerate(pts)
    )
    expected = [i for _d, i in dists[:k]]
    # ties can reorder equal-distance peers; compare distances not ids
    got_d = [Position(*pts[i]).distance_to(q) for i in got]
    exp_d = [d for d, _i in dists[:k]]
    assert np.allclose(got_d, exp_d)

