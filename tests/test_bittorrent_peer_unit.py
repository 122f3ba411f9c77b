"""Unit tests for the reference swarm's SwarmPeer choking and piece
selection (isolated from the full swarm loop)."""

import numpy as np
import pytest

from repro.errors import OverlayError
from repro.overlay.bittorrent import SwarmConfig, Torrent
from tests.bittorrent_reference import SwarmPeer


@pytest.fixture()
def hosts(small_underlay):
    return small_underlay.hosts


def _peer(host, torrent, *, is_seed=False, cost_aware=False, rng=1):
    return SwarmPeer(
        host, torrent, SwarmConfig(cost_aware=cost_aware),
        is_seed=is_seed, rng=rng,
    )


def test_config_validation():
    with pytest.raises(OverlayError):
        SwarmConfig(regular_slots=0)
    with pytest.raises(OverlayError):
        SwarmConfig(rechoke_interval_s=0)


def test_rechoke_prefers_best_uploaders(hosts):
    torrent = Torrent(0, n_pieces=8)
    me = _peer(hosts[0], torrent)
    others = {h.host_id: _peer(h, torrent, is_seed=True) for h in hosts[1:7]}
    # received most from hosts[1] and hosts[2]
    me.recv_from[hosts[1].host_id] = 5000.0
    me.recv_from[hosts[2].host_id] = 4000.0
    me.rechoke(others)
    assert hosts[1].host_id in me.unchoked
    assert hosts[2].host_id in me.unchoked
    assert len(me.unchoked) <= 4 + 1  # regular + optimistic


def test_rechoke_empty_interest_clears_unchoked(hosts):
    torrent = Torrent(0, n_pieces=4)
    me = _peer(hosts[0], torrent)
    me.unchoked = {1, 2}
    me.rechoke({})
    assert me.unchoked == set()


def test_rechoke_resets_rate_counters(hosts):
    torrent = Torrent(0, n_pieces=4)
    me = _peer(hosts[0], torrent)
    others = {hosts[1].host_id: _peer(hosts[1], torrent, is_seed=True)}
    me.recv_from[hosts[1].host_id] = 100.0
    me.rechoke(others)
    assert me.recv_from == {}


def test_cost_aware_prefers_same_as(hosts):
    torrent = Torrent(0, n_pieces=8)
    me_host = hosts[0]
    same = next(h for h in hosts[1:] if h.asn == me_host.asn)
    diff = [h for h in hosts[1:] if h.asn != me_host.asn][:6]
    me = _peer(me_host, torrent, cost_aware=True)
    others = {h.host_id: _peer(h, torrent, is_seed=True) for h in [same] + diff}
    # identical rates: the same-AS peer must win a regular slot
    me.rechoke(others)
    assert same.host_id in me.unchoked


def test_pick_piece_rarest_first(hosts):
    torrent = Torrent(0, n_pieces=4)
    me = _peer(hosts[0], torrent, rng=3)
    uploader = _peer(hosts[1], torrent, is_seed=True)
    availability = np.array([5.0, 1.0, 5.0, 5.0])  # piece 1 is rarest
    assert me.pick_piece(uploader, availability, in_flight=set()) == 1


def test_pick_piece_skips_in_flight_and_owned(hosts):
    torrent = Torrent(0, n_pieces=3)
    me = _peer(hosts[0], torrent, rng=3)
    me.bitfield.add(0)
    uploader = _peer(hosts[1], torrent, is_seed=True)
    availability = np.array([1.0, 1.0, 9.0])
    pick = me.pick_piece(uploader, availability, in_flight={1})
    assert pick == 2  # 0 owned, 1 in flight


def test_pick_piece_none_when_nothing_useful(hosts):
    torrent = Torrent(0, n_pieces=2)
    me = _peer(hosts[0], torrent, is_seed=True)  # has everything
    uploader = _peer(hosts[1], torrent, is_seed=True)
    assert me.pick_piece(uploader, np.ones(2), set()) is None


def test_interest(hosts):
    torrent = Torrent(0, n_pieces=2)
    leecher = _peer(hosts[0], torrent)
    seed = _peer(hosts[1], torrent, is_seed=True)
    assert leecher.interested_in(seed)
    assert not seed.interested_in(leecher)


def test_capacity_properties(hosts):
    torrent = Torrent(0, n_pieces=2)
    p = _peer(hosts[0], torrent)
    assert p.up_bps == pytest.approx(
        hosts[0].resources.bandwidth_up_kbps * 1000.0 / 8.0
    )
    assert p.down_bps > 0
