"""Unit tests for zones, the Globase overlay and POI search."""

import numpy as np
import pytest

from repro.collection import GPSService, IPToLocationMapping
from repro.errors import OverlayError
from repro.overlay.geo import (
    GlobaseOverlay,
    POIDirectory,
    PointOfInterest,
    Rect,
    ZoneTree,
    emergency_dispatch,
)
from repro.overlay.geo.zones import ZONE_MAX_DEPTH
from repro.underlay.geometry import Position


class TestRect:
    def test_contains_half_open(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains(Position(0, 0))
        assert not r.contains(Position(10, 10))

    def test_quadrants_partition(self):
        r = Rect(0, 0, 10, 10)
        quads = r.quadrants()
        assert len(quads) == 4
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = Position(*rng.uniform(0, 10, 2))
            assert sum(q.contains(p) for q in quads) == 1

    def test_intersects(self):
        a = Rect(0, 0, 5, 5)
        assert a.intersects(Rect(4, 4, 10, 10))
        assert not a.intersects(Rect(5, 5, 10, 10))  # touching edges only

    def test_min_distance(self):
        r = Rect(0, 0, 10, 10)
        assert r.min_distance_to(Position(5, 5)) == 0.0
        assert r.min_distance_to(Position(13, 14)) == pytest.approx(5.0)

    def test_degenerate_rejected(self):
        with pytest.raises(OverlayError):
            Rect(0, 0, 0, 10)


class TestZoneTree:
    def test_insert_and_split(self):
        tree = ZoneTree(Rect(0, 0, 100, 100), capacity=2)
        rng = np.random.default_rng(2)
        for i in range(20):
            tree.insert(i, Position(*rng.uniform(0, 100, 2)))
        assert len(tree) == 20
        for leaf in tree.leaves():
            assert len(leaf.members) <= 2 or leaf.depth == ZONE_MAX_DEPTH

    def test_duplicate_and_missing_peers(self):
        tree = ZoneTree(Rect(0, 0, 10, 10), capacity=4)
        tree.insert(1, Position(1, 1))
        with pytest.raises(OverlayError):
            tree.insert(1, Position(2, 2))
        assert 1 in tree and 99 not in tree
        assert len(tree) == 1

    def test_out_of_world_rejected(self):
        tree = ZoneTree(Rect(0, 0, 10, 10), capacity=4)
        with pytest.raises(OverlayError):
            tree.insert(1, Position(50, 50))

    def test_search_area_exact(self):
        tree = ZoneTree(Rect(0, 0, 100, 100), capacity=3)
        pts = {i: Position(float(i), float(i)) for i in range(50)}
        for i, p in pts.items():
            tree.insert(i, p)
        found, visited = tree.search_area(Rect(10, 10, 20, 20))
        assert found == list(range(10, 20))
        assert visited > 0

    def test_nearest_matches_brute_force(self):
        tree = ZoneTree(Rect(0, 0, 100, 100), capacity=4)
        rng = np.random.default_rng(3)
        pts = {i: Position(*rng.uniform(0, 100, 2)) for i in range(60)}
        for i, p in pts.items():
            tree.insert(i, p)
        q = Position(33.0, 57.0)
        got, _v = tree.nearest(q, k=5)
        brute = sorted(pts, key=lambda i: pts[i].distance_to(q))[:5]
        assert got == brute


class TestGlobase:
    def test_join_all_with_true_positions(self, small_underlay):
        g = GlobaseOverlay(small_underlay)
        assert g.join_all() == len(small_underlay.hosts)
        assert g.zone_count() >= 1
        assert g.stats.joins == len(small_underlay.hosts)

    def test_gps_unavailable_peers_cannot_join(self, small_underlay):
        gps = GPSService(small_underlay, availability=0.5, seed=4)
        g = GlobaseOverlay(small_underlay, position_source=gps.position_of)
        joined = g.join_all()
        assert 0 < joined < len(small_underlay.hosts)

    def test_area_recall_perfect_with_gps(self, small_underlay):
        gps = GPSService(small_underlay, availability=1.0, error_m=10.0)
        g = GlobaseOverlay(small_underlay, position_source=gps.position_of)
        g.join_all()
        area = Rect(0.0, 0.0, 5000.0, 5000.0)
        assert g.recall_of_area_query(area) == 1.0

    def test_coarse_mapping_degrades_recall(self, small_underlay):
        ipl = IPToLocationMapping(small_underlay, error_km=500.0, seed=6)
        g = GlobaseOverlay(small_underlay, position_source=ipl.lookup)
        g.join_all()
        area = Rect(1500.0, 1500.0, 3000.0, 3000.0)
        gps = GPSService(small_underlay, availability=1.0, error_m=10.0)
        g2 = GlobaseOverlay(small_underlay, position_source=gps.position_of)
        g2.join_all()
        assert g.recall_of_area_query(area) <= g2.recall_of_area_query(area)


class TestPOI:
    @pytest.fixture()
    def directory(self, small_underlay):
        g = GlobaseOverlay(small_underlay)
        g.join_all()
        d = POIDirectory(g)
        for h in small_underlay.hosts[:10]:
            d.register(PointOfInterest(h.host_id, "restaurant", f"r{h.host_id}"))
        for h in small_underlay.hosts[10:14]:
            d.register(PointOfInterest(h.host_id, "emergency"))
        return small_underlay, d

    def test_register_requires_membership(self, small_underlay):
        g = GlobaseOverlay(small_underlay)
        d = POIDirectory(g)
        with pytest.raises(OverlayError):
            d.register(PointOfInterest(small_underlay.host_ids()[0], "cafe"))

    def test_find_nearest_is_truly_nearest(self, directory):
        u, d = directory
        query_pos = Position(2500.0, 2500.0)
        got = d.find_nearest(query_pos, "restaurant", k=3, search_k=40)
        assert len(got) == 3
        rest_hosts = [h for h in u.hosts[:10]]
        brute = sorted(
            rest_hosts, key=lambda h: h.position.distance_to(query_pos)
        )[:3]
        assert {p.host_id for p in got} == {h.host_id for h in brute}

    def test_emergency_dispatch(self, directory):
        _u, d = directory
        got = emergency_dispatch(d, Position(2000.0, 2000.0), k=2)
        assert len(got) == 2
        assert all(p.category == "emergency" for p in got)
