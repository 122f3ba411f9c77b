"""Unit tests for gMeasure group-based measurement."""

import numpy as np
import pytest

from repro.collection import GroupMeasurement, PingService
from repro.core import UnderlayAwarenessFramework
from repro.errors import CollectionError
from repro.underlay import Underlay, UnderlayConfig


def _median_relative_error(underlay, gm):
    """Median relative RTT error of ``gm`` over every pair of hosts."""
    true = underlay.rtt_matrix()
    est = gm.estimated_matrix(underlay.host_ids())
    iu = np.triu_indices(len(true), 1)
    mask = true[iu] > 0
    return float(np.median(np.abs(est[iu] - true[iu])[mask] / true[iu][mask]))


@pytest.fixture(scope="module")
def gm(dense_underlay):
    g = GroupMeasurement(dense_underlay, rng=1)
    g.build()
    return g


def test_build_elects_one_rep_per_group(dense_underlay, gm):
    groups = {h.asn for h in dense_underlay.hosts}
    assert set(gm._rep_of_group) == groups
    for g, rep in gm._rep_of_group.items():
        assert dense_underlay.asn_of(rep) == g


def test_estimate_symmetric_and_nonnegative(dense_underlay, gm):
    ids = dense_underlay.host_ids()
    for a, b in zip(ids[:10], ids[10:20]):
        assert gm.estimate(a, b) == gm.estimate(b, a)
        assert gm.estimate(a, b) >= 0.0
    assert gm.estimate(ids[0], ids[0]) == 0.0


def test_calibration_deflates(dense_underlay):
    raw = GroupMeasurement(dense_underlay, calibration_pairs=0, rng=2)
    raw.build()
    cal = GroupMeasurement(dense_underlay, calibration_pairs=20, rng=2)
    cal.build()
    assert raw.beta == 1.0
    assert cal.beta < 1.0  # relay composition overestimates
    assert _median_relative_error(dense_underlay, cal) < _median_relative_error(
        dense_underlay, raw
    )


def test_accuracy_between_fullmesh_and_nothing(dense_underlay, gm):
    # gMeasure should land well under 50% median error on its own hosts
    assert _median_relative_error(dense_underlay, gm) < 0.45


def test_probe_cost_subquadratic(dense_underlay, gm):
    n = len(dense_underlay.hosts)
    full_mesh = n * (n - 1) // 2
    assert gm.ping.overhead.queries < 0.5 * full_mesh


def test_probe_noise_and_election_draw_from_different_streams(dense_underlay):
    # one int seed must not hand the ping service a copy of the stream
    # that elects representatives
    gm = GroupMeasurement(dense_underlay, rng=2)
    assert gm.ping._rng.bit_generator.state != gm._rng.bit_generator.state


def test_overhead_reports_the_probes_it_paid_for():
    underlay = Underlay.generate(UnderlayConfig(n_hosts=60, seed=18))
    gm = GroupMeasurement(underlay, rng=2)
    gm.build()
    fw = UnderlayAwarenessFramework(underlay)
    fw.use_coordinates(gm.estimate, source=gm)
    probes = gm.ping.overhead
    assert probes.bytes_on_wire > 0
    assert gm.overhead.queries == 1
    assert gm.overhead.messages == probes.messages
    assert gm.overhead.bytes_on_wire == probes.bytes_on_wire
    assert fw.total_overhead_bytes() == probes.bytes_on_wire


def test_shared_ping_charges_only_this_build(dense_underlay):
    ids = dense_underlay.host_ids()
    ping = PingService(dense_underlay, rng=5)
    ping.measure_rtt(ids[0], ids[1], probes=3)
    before = ping.overhead.bytes_on_wire
    gm = GroupMeasurement(dense_underlay, ping=ping, rng=5)
    gm.build(host_ids=ids[:30])
    assert gm.overhead.bytes_on_wire == ping.overhead.bytes_on_wire - before
    gm.build(host_ids=ids[:30])
    assert gm.overhead.queries == 2
    assert gm.overhead.bytes_on_wire == ping.overhead.bytes_on_wire - before


def test_estimate_before_build_rejected(dense_underlay):
    g = GroupMeasurement(dense_underlay, rng=3)
    ids = dense_underlay.host_ids()
    with pytest.raises(CollectionError):
        g.estimate(ids[0], ids[1])


def test_unknown_host_rejected(gm):
    with pytest.raises(CollectionError):
        gm.estimate(10_000, 10_001)


def test_validation(dense_underlay):
    with pytest.raises(CollectionError):
        GroupMeasurement(dense_underlay, probes=0)
    with pytest.raises(CollectionError):
        GroupMeasurement(dense_underlay, calibration_pairs=-1)
    g = GroupMeasurement(dense_underlay, rng=1)
    with pytest.raises(CollectionError):
        g.build(host_ids=[dense_underlay.host_ids()[0]])


def test_subset_build(dense_underlay):
    ids = dense_underlay.host_ids()[:30]
    g = GroupMeasurement(dense_underlay, rng=4)
    g.build(host_ids=ids)
    assert g.estimate(ids[0], ids[1]) > 0
    with pytest.raises(CollectionError):
        g.estimate(ids[0], dense_underlay.host_ids()[-1])
