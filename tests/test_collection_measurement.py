"""Unit tests for ping explicit measurement."""

import numpy as np
import pytest

from repro.collection import PING_BYTES, PingService
from repro.errors import CollectionError


def test_ping_close_to_truth(small_underlay):
    u = small_underlay
    ids = u.host_ids()
    ping = PingService(u, noise_std_ms=1.0, rng=1)
    true_rtt = 2.0 * u.one_way_delay(ids[0], ids[5])
    measured = ping.measure_rtt(ids[0], ids[5], probes=20)
    assert measured == pytest.approx(true_rtt, abs=2.0)


def test_more_probes_reduce_error(small_underlay):
    u = small_underlay
    ids = u.host_ids()
    true_rtt = 2.0 * u.one_way_delay(ids[0], ids[3])
    errs1, errs8 = [], []
    for seed in range(15):
        p = PingService(u, noise_std_ms=5.0, rng=seed)
        errs1.append(abs(p.measure_rtt(ids[0], ids[3], probes=1) - true_rtt))
        p = PingService(u, noise_std_ms=5.0, rng=seed + 100)
        errs8.append(abs(p.measure_rtt(ids[0], ids[3], probes=16) - true_rtt))
    assert np.mean(errs8) < np.mean(errs1)


def test_ping_overhead_proportional_to_probes(small_underlay):
    ping = PingService(small_underlay, rng=1)
    ids = small_underlay.host_ids()
    ping.measure_rtt(ids[0], ids[1], probes=3)
    assert ping.overhead.messages == 6
    assert ping.overhead.bytes_on_wire == 6 * PING_BYTES


def test_measure_matrix_symmetric_zero_diag(small_underlay):
    ping = PingService(small_underlay, rng=2)
    ids = small_underlay.host_ids()[:6]
    mat = ping.measure_matrix(ids)
    assert np.allclose(mat, mat.T)
    assert np.allclose(np.diag(mat), 0.0)
    assert ping.overhead.queries == 15  # C(6,2)


def test_zero_probes_rejected(small_underlay):
    ping = PingService(small_underlay, rng=1)
    ids = small_underlay.host_ids()
    with pytest.raises(CollectionError):
        ping.measure_rtt(ids[0], ids[1], probes=0)

