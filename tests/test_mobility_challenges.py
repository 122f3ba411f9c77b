"""Unit tests for mobility traces and the §6 challenge metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReproError
from repro.metrics import (
    hop_delay_correlation,
    knn_asymmetry,
    long_hop_fraction,
)
from repro.underlay import (
    MobilityConfig,
    cached_info_accuracy,
    generate_mobility,
    refresh_tradeoff,
)


class TestMobility:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MobilityConfig(mobile_fraction=1.5)
        with pytest.raises(ConfigurationError):
            MobilityConfig(mean_dwell_h=0.0)

    def test_trace_shape(self, small_underlay):
        trace = generate_mobility(
            small_underlay, MobilityConfig(mobile_fraction=0.5, mean_dwell_h=1.0),
            horizon_h=12.0, rng=1,
        )
        assert len(trace.mobile_hosts()) == round(0.5 * len(small_underlay.hosts))
        assert trace.total_moves() > 0
        for hid in trace.mobile_hosts():
            for t, asn in trace.moves[hid]:
                assert 0 <= t < 12.0
                small_underlay.topology.asys(asn)

    def test_asn_at_respects_timeline(self, small_underlay):
        trace = generate_mobility(
            small_underlay, MobilityConfig(mobile_fraction=1.0, mean_dwell_h=0.5),
            horizon_h=6.0, rng=2,
        )
        hid = trace.mobile_hosts()[0]
        assert trace.asn_at(hid, 0.0) == trace.initial_asn[hid]
        t_move, new_asn = trace.moves[hid][0]
        assert trace.asn_at(hid, t_move + 1e-9) == new_asn

    def test_static_hosts_never_move(self, small_underlay):
        trace = generate_mobility(
            small_underlay, MobilityConfig(mobile_fraction=0.2), horizon_h=24.0,
            rng=3,
        )
        static = set(trace.initial_asn) - set(trace.mobile_hosts())
        for hid in list(static)[:10]:
            assert trace.asn_at(hid, 23.9) == trace.initial_asn[hid]

    def test_in_region_roaming(self, small_underlay):
        trace = generate_mobility(
            small_underlay,
            MobilityConfig(mobile_fraction=1.0, mean_dwell_h=0.5,
                           roam_within_region=True),
            horizon_h=6.0, rng=4,
        )
        topo = small_underlay.topology
        for hid in trace.mobile_hosts()[:10]:
            region = topo.asys(trace.initial_asn[hid]).region
            for _t, asn in trace.moves[hid]:
                assert topo.asys(asn).region == region

    def test_cached_accuracy_decays(self, small_underlay):
        trace = generate_mobility(
            small_underlay, MobilityConfig(mobile_fraction=0.6, mean_dwell_h=1.0),
            horizon_h=24.0, rng=5,
        )
        rows = cached_info_accuracy(trace, [0.0, 2.0, 8.0, 20.0])
        accs = [r["accuracy"] for r in rows]
        assert accs[0] == 1.0
        assert accs[-1] < accs[0]
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_refresh_tradeoff_monotone(self, small_underlay):
        trace = generate_mobility(
            small_underlay, MobilityConfig(mobile_fraction=0.6, mean_dwell_h=1.0),
            horizon_h=24.0, rng=6,
        )
        rows = refresh_tradeoff(trace, [0.5, 2.0, 12.0])
        accs = [r["mean_accuracy"] for r in rows]
        bytes_ = [r["refresh_bytes"] for r in rows]
        # faster refresh -> better accuracy but more overhead
        assert accs[0] >= accs[-1]
        assert bytes_[0] > bytes_[-1]

    def test_validation(self, small_underlay):
        trace = generate_mobility(small_underlay, rng=1)
        with pytest.raises(ConfigurationError):
            trace.asn_at(999_999, 1.0)
        with pytest.raises(ConfigurationError):
            cached_info_accuracy(trace, [-1.0])
        with pytest.raises(ConfigurationError):
            refresh_tradeoff(trace, [0.0])
        with pytest.raises(ConfigurationError):
            generate_mobility(small_underlay, horizon_h=0.0)


class TestChallenges:
    def test_asymmetric_nearest_synthetic(self):
        # chain distances: 1's nearest is 0, 0's nearest is 1 (mutual);
        # a "satellite" c far from everyone points at 0 unreciprocated
        d = np.array(
            [
                [0.0, 1.0, 5.0],
                [1.0, 0.0, 6.0],
                [5.0, 6.0, 0.0],
            ]
        )
        assert knn_asymmetry(d, k=1) == pytest.approx(1 / 3)

    def test_asymmetry_zero_for_symmetric_pairs(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert knn_asymmetry(d, k=1) == 0.0

    def test_knn_asymmetry_bounds(self, small_underlay):
        rtt = small_underlay.rtt_matrix()
        a = knn_asymmetry(rtt, k=5)
        assert 0.0 <= a <= 1.0
        with pytest.raises(ReproError):
            knn_asymmetry(rtt, k=0)

    def test_real_matrices_are_asymmetric_in_selection(self, small_underlay):
        # the survey's claim: asymmetric node selection *occurs* in
        # latency-based systems — nonzero on realistic matrices
        rtt = small_underlay.rtt_matrix()
        assert knn_asymmetry(rtt, k=3) > 0.0

    def test_hop_delay_correlation_positive_but_imperfect(self, small_underlay):
        rho = hop_delay_correlation(small_underlay)
        assert 0.1 < rho < 0.95  # informative signal, far from perfect

    def test_long_hop_fraction(self, small_underlay):
        f = long_hop_fraction(small_underlay, delay_factor=1.5)
        assert 0.0 <= f <= 1.0
        # stricter factor can only reduce the fraction
        f2 = long_hop_fraction(small_underlay, delay_factor=3.0)
        assert f2 <= f
        with pytest.raises(ReproError):
            long_hop_fraction(small_underlay, delay_factor=0.5)
