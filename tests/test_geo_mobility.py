"""Geolocation × mobility (§6): stale positions degrade location search,
re-building at fresh positions restores it — the geo overlay's version
of the refresh trade-off."""

import numpy as np
import pytest

from repro.overlay.geo import GlobaseOverlay, Rect
from repro.underlay import Underlay, UnderlayConfig
from repro.underlay.geometry import Position


@pytest.fixture()
def overlay():
    u = Underlay.generate(UnderlayConfig(n_hosts=150, seed=91))
    g = GlobaseOverlay(u, zone_capacity=8)
    g.join_all()
    return u, g


def _move(pos: Position, dx: float, dy: float) -> Position:
    return Position(pos.x + dx, pos.y + dy)


def test_stale_positions_degrade_area_recall(overlay):
    u, g = overlay
    rng = np.random.default_rng(3)
    area = Rect(500.0, 500.0, 3500.0, 3500.0)

    # 40% of the peers move ~600 km but do NOT re-join: the overlay still
    # believes their old position
    movers = list(g.believed)[: int(0.4 * len(g.believed))]
    true_positions = {
        hid: _move(
            u.host(hid).position,
            float(rng.normal(0, 600.0)),
            float(rng.normal(0, 600.0)),
        )
        for hid in movers
    }

    def truly_inside(hid):
        pos = true_positions.get(hid, u.host(hid).position)
        return area.contains(pos)

    truly = {hid for hid in g.believed if truly_inside(hid)}
    found = set(g.peers_in_area(area))
    stale_recall = len(found & truly) / len(truly)
    assert stale_recall < 0.95  # movement broke some answers

    # the §6 remedy: the overlay is rebuilt from fresh positions (there
    # is no graceful leave, so a refresh is a re-join of everyone)
    fresh = GlobaseOverlay(
        u, zone_capacity=8,
        position_source=lambda hid: true_positions.get(hid, u.host(hid).position),
    )
    fresh.join_all(list(g.believed))
    found2 = set(fresh.peers_in_area(area))
    fresh_recall = len(found2 & truly) / len(truly)
    assert fresh_recall == 1.0
    assert fresh_recall > stale_recall
