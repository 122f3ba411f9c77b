"""Unit tests for the Underlay facade."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.sim import Simulation
from repro.underlay import Underlay, UnderlayConfig


def test_generate_is_deterministic():
    a = Underlay.generate(UnderlayConfig(n_hosts=20, seed=5))
    b = Underlay.generate(UnderlayConfig(n_hosts=20, seed=5))
    assert np.allclose(a.latency_matrix, b.latency_matrix)
    assert [h.asn for h in a.hosts] == [h.asn for h in b.hosts]


def test_host_lookup(small_underlay):
    u = small_underlay
    h = u.hosts[5]
    assert u.host(h.host_id) is h
    with pytest.raises(TopologyError):
        u.host(99_999)


def test_asn_of_and_hosts_in_as(small_underlay):
    u = small_underlay
    h = u.hosts[0]
    assert u.asn_of(h.host_id) == h.asn
    assert h in u.hosts_in_as(h.asn)


def test_latency_provider_protocol(small_underlay):
    u = small_underlay
    ids = u.host_ids()
    d = u.one_way_delay(ids[0], ids[1])
    assert d > 0
    assert d == pytest.approx(u.latency_matrix[0, 1])


def test_one_way_delay_endpoint_forms_read_the_matrix_exactly(small_underlay):
    """Bare ids, ``("svc", id)`` endpoints and numpy ints all return the
    Python float stored at ``latency_matrix[i, j]``, bit for bit."""
    u = small_underlay
    ids = u.host_ids()
    mat = u.latency_matrix
    for i, j in ((0, 1), (1, 0), (3, 3), (0, len(ids) - 1), (7, 22)):
        want = float(mat[i, j])
        a, b = ids[i], ids[j]
        for src, dst in (
            (a, b),
            (("svc", a), b),
            (a, ("svc", b)),
            (("svc", a), ("other", b)),
            (np.int64(a), np.int32(b)),
            (("svc", np.int64(a)), np.int64(b)),
        ):
            got = u.one_way_delay(src, dst)
            assert type(got) is float
            assert got == want
            assert np.float64(got).tobytes() == mat[i, j].tobytes()


def test_as_hops(small_underlay):
    u = small_underlay
    ids = u.host_ids()
    h = u.as_hops(ids[0], ids[1])
    assert h >= 0


def test_message_bus_wiring(small_underlay):
    u = small_underlay
    sim = Simulation()
    bus, acct = u.message_bus(sim)
    got = []
    ids = u.host_ids()
    bus.register(ids[1], got.append)
    bus.send(ids[0], ids[1], "X", size_bytes=123)
    sim.run()
    assert len(got) == 1
    assert acct.summary.total_bytes == 123


def test_message_bus_without_accounting(small_underlay):
    sim = Simulation()
    bus, acct = small_underlay.message_bus(sim, with_accounting=False)
    assert acct is None
    assert bus is not None


def test_duplicate_host_ids_rejected(small_underlay):
    u = small_underlay
    with pytest.raises(TopologyError):
        Underlay(u.topology, [u.hosts[0], u.hosts[0]])


@pytest.mark.parametrize("backend", ["matrix", "stream"])
def test_unknown_host_id_raises_topology_error(backend, monkeypatch):
    """Every host-id entry point reports an unknown id the same way; the
    delay API used to leak a bare KeyError from its index lookup."""
    from repro.underlay import network

    base = Underlay.generate(UnderlayConfig(n_hosts=30, seed=3))
    if backend == "stream":
        monkeypatch.setattr(network, "STREAM_AUTO_HOST_THRESHOLD", 0)
    u = Underlay(base.topology, base.hosts)
    assert u.delay_backend == backend
    h, bad = u.host_ids()[0], 10**9
    calls = [
        lambda: u.host(bad),
        lambda: u.asn_of(bad),
        lambda: u.asns_of([h, bad]),
        lambda: u.as_hops(h, bad),
        lambda: u.one_way_delay(bad, h),
        lambda: u.one_way_delay(h, bad),
        lambda: u.one_way_delay(("svc", bad), h),
        lambda: u.one_way_delay(h, ("svc", bad)),
        lambda: u.one_way_delay_row(bad, [h]),
        lambda: u.one_way_delay_row(h, [h, bad]),
        lambda: u.one_way_delay_row(h, [("svc", h), ("svc", bad)]),
    ]
    for call in calls:
        with pytest.raises(TopologyError, match="unknown host id"):
            call()
