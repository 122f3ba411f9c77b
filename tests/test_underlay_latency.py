"""Unit tests for the latency model and the host delays of its kernel."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.underlay import (
    ASRouting,
    HostFactory,
    LatencyConfig,
    LatencyModel,
    TopologyConfig,
    Underlay,
    generate_topology,
)
from tests.test_delay_stream import reference_one_way_delay


@pytest.fixture(scope="module")
def setup():
    topo = generate_topology(TopologyConfig(seed=6))
    routing = ASRouting(topo)
    model = LatencyModel(topo, routing, LatencyConfig())
    hosts = HostFactory(topo, rng=2).create_hosts(30)
    return topo, routing, model, hosts


def test_config_validation():
    with pytest.raises(ConfigurationError):
        LatencyConfig(propagation_ms_per_km=0.0)
    with pytest.raises(ConfigurationError):
        LatencyConfig(jitter_std_frac=-0.1)


def test_matrix_properties(setup):
    _t, _r, model, hosts = setup
    mat = model.delay_kernel(hosts).full_matrix()
    n = len(hosts)
    assert mat.shape == (n, n)
    assert np.allclose(np.diag(mat), 0.0)
    assert np.allclose(mat, mat.T)
    off = mat[~np.eye(n, dtype=bool)]
    assert (off > 0).all()
    assert np.isfinite(off).all()


def test_same_as_pairs_faster_on_average(setup):
    _t, _r, model, hosts = setup
    mat = model.delay_kernel(hosts).full_matrix()
    asns = np.array([h.asn for h in hosts])
    same = asns[:, None] == asns[None, :]
    np.fill_diagonal(same, False)
    diff = ~same & ~np.eye(len(hosts), dtype=bool)
    assert mat[same].mean() < mat[diff].mean()


def test_scalar_matches_matrix_without_jitter(setup):
    topo, routing, _m, hosts = setup
    model = LatencyModel(topo, routing, LatencyConfig(jitter_std_frac=0.0))
    mat = model.delay_kernel(hosts).full_matrix()
    for i in (0, 3, 7):
        for j in (1, 5, 9):
            if i == j:
                continue
            assert reference_one_way_delay(
                model, hosts[i], hosts[j]
            ) == pytest.approx(mat[i, j], rel=1e-9)


def test_loopback_is_tiny(setup):
    _t, _r, model, hosts = setup
    assert model.delay_kernel(hosts).delay_row(0, [0])[0] == 0.0


def test_delay_includes_access_latency(setup):
    _t, _r, model, hosts = setup
    a, b = hosts[0], hosts[1]
    # jittered delay never falls below half the access-latency floor
    assert model.delay_kernel(hosts).delay_row(0, [1])[0] >= 0.5 * (
        a.access_latency_ms + b.access_latency_ms
    )


def test_more_as_hops_means_more_base_delay(setup):
    topo, routing, model, _h = setup
    stubs = topo.stub_asns()
    src = stubs[0]
    one_hop = [d for d in range(topo.n_ases) if routing.hops(src, d) == 1]
    three_hop = [d for d in range(topo.n_ases) if routing.hops(src, d) >= 3]
    if one_hop and three_hop:
        near = np.mean([model.as_pair_delay(src, d) for d in one_hop])
        far = np.mean([model.as_pair_delay(src, d) for d in three_hop])
        assert far > near


def test_rtt_is_twice_one_way(setup):
    topo, _r, _m, hosts = setup
    u = Underlay(topo, hosts)
    assert np.array_equal(u.rtt_matrix(), 2.0 * u.latency_matrix)


def test_empty_host_list(setup):
    _t, _r, model, _h = setup
    assert model.delay_kernel([]).full_matrix().shape == (0, 0)
