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

import numpy as np
import pytest

from repro.overlay.bittorrent import (
    FlowPlaneConfig,
    FlowSwarmSimulation,
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
