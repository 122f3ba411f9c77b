"""Distributional equivalence: flow-level swarm vs the time-stepped twin.

Same underlay, torrent, tracker policy and seeds — the flow plane
(:class:`FlowSwarmSimulation`) must reproduce the reference
(the time-stepped :class:`SwarmSimulation`) up to the fluid abstraction:

- everyone who completes in the reference completes on the flow plane;
- traffic-class byte fractions (intra-AS / transit) agree within a few
  points — these drive the ISP-cost conclusions of locality sweeps;
- completion times agree within a documented band.  The flow plane is
  *systematically faster* (ratio < 1): it has no piece-rarity friction —
  any uploader with data serves any interested peer, while the reference
  wastes unchoke slots on blocked piece picks and queues endgame pieces
  on the seeds' uplinks.  What the band asserts is that the fluid model
  stays within a bounded constant of the exact one, not that the gap is
  zero.

Both populations seed from the fastest-uplink hosts: initial seeds gate
content injection, and seeding from an arbitrary (possibly dial-up) host
would measure the seed's access link in both planes rather than the
swarm dynamics being compared.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.bittorrent import (
    FlowPlaneConfig,
    FlowSwarmSimulation,
    SwarmConfig,
    SwarmSimulation,
    Torrent,
    Tracker,
    TrackerPolicy,
)
from repro.underlay import Underlay, UnderlayConfig

MEDIAN_RATIO_BAND = (0.15, 1.25)
MEAN_RATIO_BAND = (0.30, 1.10)
FRACTION_TOL = 0.08


def _swarm_setup(seed: int, *, n_hosts: int = 60, n_seeds: int = 3):
    underlay = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=seed))
    ids = underlay.host_ids()
    seeds = sorted(
        ids, key=lambda h: -underlay.host(h).resources.bandwidth_up_kbps
    )[:n_seeds]
    leechers = [h for h in ids if h not in seeds]
    torrent = Torrent(0, n_pieces=64, piece_size_bytes=262144)
    return underlay, torrent, seeds, leechers


def _run_pair(seed: int):
    underlay, torrent, seeds, leechers = _swarm_setup(seed)
    ref = SwarmSimulation(
        underlay, torrent, Tracker(underlay, rng=seed), rng=seed
    )
    ref.populate(leechers, seeds)
    ref_report = ref.run(max_time_s=4000.0)

    flow = FlowSwarmSimulation(
        underlay, torrent, Tracker(underlay, rng=seed), rng=seed
    )
    flow.populate(leechers, seeds)
    flow_report = flow.run(max_time_s=4000.0)
    return ref_report, flow_report


@pytest.mark.parametrize("seed", [7, 21, 99])
def test_flow_plane_matches_reference(seed):
    ref, flow = _run_pair(seed)

    assert flow.completed == ref.completed == flow.total_leechers

    med_ratio = flow.median_download_time_s / ref.median_download_time_s
    mean_ratio = flow.mean_download_time_s / ref.mean_download_time_s
    assert MEDIAN_RATIO_BAND[0] <= med_ratio <= MEDIAN_RATIO_BAND[1], (
        f"median ratio {med_ratio:.2f} outside {MEDIAN_RATIO_BAND}"
    )
    assert MEAN_RATIO_BAND[0] <= mean_ratio <= MEAN_RATIO_BAND[1], (
        f"mean ratio {mean_ratio:.2f} outside {MEAN_RATIO_BAND}"
    )

    assert flow.intra_as_fraction == pytest.approx(
        ref.intra_as_fraction, abs=FRACTION_TOL
    )
    assert flow.transit_fraction == pytest.approx(
        ref.transit_fraction, abs=FRACTION_TOL
    )
    # both planes move the full torrent to every leecher
    expected = flow.total_leechers * 64 * 262144
    assert flow.total_bytes == pytest.approx(expected, rel=0.05)


def test_flow_plane_deterministic():
    reports = []
    for _ in range(2):
        underlay, torrent, seeds, leechers = _swarm_setup(5, n_hosts=40)
        swarm = FlowSwarmSimulation(
            underlay, torrent, Tracker(underlay, rng=5), rng=5
        )
        swarm.populate(leechers, seeds)
        reports.append(swarm.run(max_time_s=4000.0))
    a, b = reports
    assert a.median_download_time_s == b.median_download_time_s
    assert a.intra_as_bytes == b.intra_as_bytes
    assert a.transit_bytes == b.transit_bytes


def test_flow_plane_biased_tracker_shifts_traffic():
    underlay, torrent, seeds, leechers = _swarm_setup(13, n_hosts=60)

    def run(policy_kwargs):
        tracker = Tracker(underlay, peer_list_size=20, rng=13, **policy_kwargs)
        swarm = FlowSwarmSimulation(underlay, torrent, tracker, rng=13)
        swarm.populate(leechers, seeds)
        return swarm.run(max_time_s=4000.0)

    random_rep = run({})
    biased_rep = run(
        {"policy": TrackerPolicy.BIASED, "external_quota": 2}
    )
    assert biased_rep.intra_as_fraction > random_rep.intra_as_fraction
    assert biased_rep.transit_fraction < random_rep.transit_fraction


def test_flow_plane_billing_consistent():
    underlay, torrent, seeds, leechers = _swarm_setup(7, n_hosts=40)
    swarm = FlowSwarmSimulation(
        underlay, torrent, Tracker(underlay, rng=7), rng=7
    )
    swarm.populate(leechers, seeds)
    report = swarm.run(max_time_s=4000.0)
    # every transit byte is charged to >= 1 paying AS, and the ledger's
    # lifetime totals agree with the running per-AS tallies
    paid = sum(swarm.paid_transit.values())
    assert paid >= report.transit_bytes * (1 - 1e-9)
    for asn, total in swarm.billing.total_bytes.items():
        assert total == pytest.approx(swarm.paid_transit[asn])


def test_work_conserving_at_least_as_fast():
    underlay, torrent, seeds, leechers = _swarm_setup(21, n_hosts=40)

    def run(flow_config):
        swarm = FlowSwarmSimulation(
            underlay, torrent, Tracker(underlay, rng=21), rng=21,
            flow_config=flow_config,
        )
        swarm.populate(leechers, seeds)
        return swarm.run(max_time_s=4000.0)

    default = run(FlowPlaneConfig())
    conserving = run(FlowPlaneConfig(work_conserving=True))
    assert conserving.completed == default.completed
    # redistribution of unclaimed slot shares can only help
    assert (
        conserving.mean_download_time_s
        <= default.mean_download_time_s * 1.05
    )


def test_arrival_span_staggers_joins():
    underlay, torrent, seeds, leechers = _swarm_setup(9, n_hosts=40)
    swarm = FlowSwarmSimulation(
        underlay, torrent, Tracker(underlay, rng=9), rng=9
    )
    swarm.populate(leechers, seeds, arrival_span_s=200.0)
    report = swarm.run(max_time_s=4000.0)
    assert report.completed == report.total_leechers
    joins = [
        p.join_time for p in swarm.peers.values() if not p.is_initial_seed
    ]
    assert max(joins) > 100.0


def test_download_times_by_as_partitions_leechers():
    underlay, torrent, seeds, leechers = _swarm_setup(11, n_hosts=40)
    swarm = FlowSwarmSimulation(
        underlay, torrent, Tracker(underlay, rng=11), rng=11
    )
    swarm.populate(leechers, seeds)
    report = swarm.run(max_time_s=4000.0)
    by_as = swarm.download_times_by_as()
    assert sum(ts.size for ts in by_as.values()) == report.completed
    assert all(np.all(ts > 0) for ts in by_as.values())


# -- the flow plane, pinned bit for bit ---------------------------------------
def _pin_arms():
    planes = {
        "default": FlowPlaneConfig(),
        "trunks": FlowPlaneConfig(transit_capacity_mbps=4.0),
        "conserving": FlowPlaneConfig(work_conserving=True),
    }
    return {
        f"{policy.value}-{'cat' if cost_aware else 'tft'}-{plane}-span{span:g}": (
            policy, cost_aware, flow_config, span
        )
        for policy in (TrackerPolicy.RANDOM, TrackerPolicy.BIASED)
        for cost_aware in (False, True)
        for plane, flow_config in planes.items()
        for span in (0.0, 60.0)
    }


PIN_ARMS = _pin_arms()

#: Recorded on commit 944e555, the last one whose epoch loop re-derived
#: bindings, parking order and teardown from scratch on every completion
#: and whose tracker scanned the swarm per announce.  Everything that
#: replaces that code must reproduce these to the bit.
PIN_DIGESTS: dict[str, str] = {
    "random-tft-default-span0": "b1d99b41550f079ab8d4",
    "random-tft-default-span60": "0b28877cd08e4a5a80ea",
    "random-tft-trunks-span0": "d3e8d5605e56d8ac6e1c",
    "random-tft-trunks-span60": "4ce2c34fe6c37aff380b",
    "random-tft-conserving-span0": "b9c84808c431e991b12a",
    "random-tft-conserving-span60": "14b9b8268bcfecb47fd3",
    "random-cat-default-span0": "54843b69982c1a179f10",
    "random-cat-default-span60": "3ac414deb901e52d03af",
    "random-cat-trunks-span0": "0191ec3dc4a79200623a",
    "random-cat-trunks-span60": "5790a9516f55586f314b",
    "random-cat-conserving-span0": "c2a0eac2a06853d9f4d4",
    "random-cat-conserving-span60": "b116d708c720f830ced0",
    "biased-tft-default-span0": "5562cc2bf05bf763fa71",
    "biased-tft-default-span60": "c9ee084491df47cedaf6",
    "biased-tft-trunks-span0": "af040272805398193578",
    "biased-tft-trunks-span60": "dbee9f968ce66ef6f53c",
    "biased-tft-conserving-span0": "f7ee24ae4c53408c73e9",
    "biased-tft-conserving-span60": "a517977bab07ce215402",
    "biased-cat-default-span0": "2a538286b3f265cecf68",
    "biased-cat-default-span60": "c5b30a58aed8d6e88f6b",
    "biased-cat-trunks-span0": "40c96871cad959ed9621",
    "biased-cat-trunks-span60": "ecc2353f73600145f9f3",
    "biased-cat-conserving-span0": "93420fb63c3acc105600",
    "biased-cat-conserving-span60": "b5b955817f67e77500c4",
}


def _plane_digest(arm: str, setup) -> str:
    """SHA-256 over everything a 120-peer run decides: who finished when,
    how many epochs it took, the bytes per class, the transit paid, and
    where both RNG streams ended up."""
    policy, cost_aware, flow_config, span = PIN_ARMS[arm]
    underlay, torrent, seeds, leechers = setup
    tracker_rng = np.random.default_rng(5)
    swarm_rng = np.random.default_rng(6)
    tracker = Tracker(
        underlay, policy=policy, peer_list_size=20, external_quota=3,
        rng=tracker_rng,
    )
    swarm = FlowSwarmSimulation(
        underlay, torrent, tracker,
        config=SwarmConfig(cost_aware=cost_aware),
        flow_config=flow_config, rng=swarm_rng,
    )
    swarm.populate(leechers, seeds, arrival_span_s=span)
    swarm.run(max_time_s=7200.0)
    decided = {
        "finish": [(hid, repr(p.finish_time)) for hid, p in swarm.peers.items()],
        "reallocs": swarm.reallocs_total,
        "events": swarm.engine.events_processed,
        "bytes": [
            repr(swarm.intra_as_bytes),
            repr(swarm.peering_bytes),
            repr(swarm.transit_bytes),
        ],
        "paid": sorted((a, repr(b)) for a, b in swarm.paid_transit.items()),
        "swarm_rng": swarm_rng.bit_generator.state,
        "tracker_rng": tracker_rng.bit_generator.state,
    }
    return hashlib.sha256(
        json.dumps(decided, sort_keys=True).encode()
    ).hexdigest()[:20]


@pytest.fixture(scope="module")
def pin_setup():
    underlay, _, seeds, leechers = _swarm_setup(17, n_hosts=120)
    # few pieces, so the piece-granularity parking cut is live all run
    return underlay, Torrent(0, n_pieces=16, piece_size_bytes=262144), seeds, leechers


@pytest.mark.parametrize("arm", sorted(PIN_ARMS))
def test_flow_plane_pinned_bit_for_bit(arm, pin_setup):
    assert _plane_digest(arm, pin_setup) == PIN_DIGESTS[arm]


# -- parking: the replaced per-epoch code, kept as the oracle ------------------
def _parking_lexsort(table, bound_keys, bytes_col, complete, torrent, rng):
    """Piece-granularity parking as ``_apply_parking`` ran it on every
    epoch up to commit 944e555: bindings are packed ``(up, down)`` keys
    joined against the table, and one stable four-key lexsort ranks every
    affected row.  Returns the parked mask and the new binding keys."""
    f_up, f_down, f_alive, f_bytes = table
    parked = np.zeros(f_up.size, dtype=bool)
    alive = np.flatnonzero(f_alive)
    if alive.size == 0:
        return parked, bound_keys
    k = np.bincount(f_down[alive], minlength=bytes_col.size)
    m = np.ceil(
        (float(torrent.total_bytes) - bytes_col) / float(torrent.piece_size_bytes)
    )
    down_a = f_down[alive]
    sub = alive[(~complete[down_a]) & (k[down_a] > m[down_a])]
    if sub.size == 0:
        return parked, np.zeros(0, dtype=np.int64)
    bound = np.isin((f_up[sub] << 32) | f_down[sub], bound_keys)
    order = np.lexsort((
        rng.random(sub.size), f_bytes[sub] <= 0.0, ~bound, f_down[sub],
    ))
    srows = sub[order]
    d_sorted = f_down[srows]
    change = np.r_[True, d_sorted[1:] != d_sorted[:-1]]
    pos = np.arange(srows.size) - np.flatnonzero(change)[np.cumsum(change) - 1]
    keep = pos < m[d_sorted]
    parked[srows[~keep]] = True
    kept = srows[keep]
    return parked, (f_up[kept] << 32) | f_down[kept]


class _CoarseRng(np.random.Generator):
    """Uniform draws land on four values, so random keys tie."""

    def random(self, size=None):
        return np.floor(super().random(size) * 4.0) / 4.0


def _table_of(swarm):
    return swarm._f_up, swarm._f_down, swarm._f_alive, swarm._f_bytes


@pytest.fixture(scope="module")
def mesh_setup():
    # 14 peers and a 35-entry peer list: everyone neighbors everyone
    underlay, _, seeds, leechers = _swarm_setup(3, n_hosts=14, n_seeds=2)
    return underlay, Torrent(0, n_pieces=6, piece_size_bytes=1000), seeds, leechers


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tied=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_parking_matches_lexsort_oracle(mesh_setup, seed, tied):
    """Drawn flow tables — who uploads to whom, which rows are alive,
    bytes moved per row, prior bindings, pieces left per downloader —
    parked through the bound column and through the oracle: the same
    rows parked, the same rows bound, the same number of draws taken
    from the swarm RNG, with random keys that tie (``tied``) or not.
    Then a real rechoke renumbers the rows: the bindings must follow
    their ``(up, down)`` pair into the new table, and the next parking
    must agree again."""
    underlay, torrent, seeds, leechers = mesh_setup
    make_rng = _CoarseRng if tied else np.random.Generator
    swarm_rng = make_rng(np.random.PCG64(seed))
    oracle_rng = make_rng(np.random.PCG64(seed))
    swarm = FlowSwarmSimulation(
        underlay, torrent, Tracker(underlay, rng=seed), rng=swarm_rng
    )
    for h in seeds:
        swarm.add_peer(h, is_seed=True)
    for h in leechers:
        swarm.add_peer(h)
    oracle_rng.bit_generator.state = swarm_rng.bit_generator.state
    n = len(swarm.peers)

    draw = np.random.default_rng(seed)
    total = float(torrent.total_bytes)
    have = draw.choice([0.0, 400.0, 1000.0, 3500.0, 5001.0, total], size=n)
    have[: len(seeds)] = total
    swarm._bytes[:n] = have
    swarm._complete_col[:n] = have >= total
    for peer in swarm.peers.values():
        peer.complete = bool(swarm._complete_col[peer.row])
    # sparse tables leave no downloader over its cap (bindings cleared),
    # all-dead ones skip parking altogether (bindings left alone)
    pairs = np.flatnonzero(draw.random(n * n) < draw.choice([0.04, 0.2, 0.45, 0.8]))
    pairs = draw.permutation(pairs[pairs // n != pairs % n])
    nf = pairs.size
    swarm._f_up, swarm._f_down = pairs // n, pairs % n
    swarm._f_pair = np.zeros(nf, dtype=np.int64)
    swarm._f_rate = np.zeros(nf)
    swarm._f_alive = draw.random(nf) < draw.choice([0.0, 0.5, 0.85, 1.0])
    swarm._f_bytes = draw.choice([0.0, 0.0, 250.0], size=nf)
    swarm._f_parked = np.zeros(nf, dtype=bool)
    swarm._f_bound = draw.random(nf) < 0.4
    keys = (swarm._f_up << 32) | swarm._f_down
    bound_keys = keys[swarm._f_bound]

    def park_both(bound_keys):
        parked, bound_keys = _parking_lexsort(
            _table_of(swarm), bound_keys, swarm._bytes[:n],
            swarm._complete_col[:n], torrent, oracle_rng,
        )
        swarm._apply_parking()
        keys = (swarm._f_up << 32) | swarm._f_down
        assert np.array_equal(swarm._f_parked, parked)
        assert np.array_equal(swarm._f_bound, np.isin(keys, bound_keys))
        assert swarm_rng.bit_generator.state == oracle_rng.bit_generator.state
        return bound_keys

    bound_keys = park_both(bound_keys)
    swarm._f_bytes[:] = draw.choice([0.0, 250.0], size=nf)
    bound_keys = park_both(bound_keys)  # nobody's pieces-left moved

    swarm._rechoke_and_rebuild()
    keys = (swarm._f_up << 32) | swarm._f_down
    assert np.array_equal(swarm._f_bound, np.isin(keys, bound_keys))
    park_both(bound_keys)
