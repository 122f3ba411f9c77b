"""ICS tests — including exact reproduction of the paper's Examples 4–5.

The worked numbers embedded in the survey's Figure 4 excerpt (from Lim et
al. [20]) are deterministic linear algebra; we assert them to the
precision the paper prints.
"""

import numpy as np
import pytest

from repro.coords import (
    ICS,
    ICSConfig,
    PAPER_EXAMPLE_HOST_A,
    PAPER_EXAMPLE_HOST_B,
    PAPER_EXAMPLE_MATRIX,
)
from repro.errors import ConfigurationError, CoordinateError


@pytest.fixture(scope="module")
def ics2():
    return ICS(PAPER_EXAMPLE_MATRIX, ICSConfig(dim=2))


class TestPaperExample4:
    def test_alpha(self, ics2):
        assert ics2.alpha == pytest.approx(0.6, abs=1e-9)

    def test_transformation_matrix(self, ics2):
        expected = np.array(
            [[-0.3, -0.3], [-0.3, -0.3], [-0.3, 0.3], [-0.3, 0.3]]
        )
        assert np.allclose(ics2.transform, expected, atol=1e-9)

    def test_beacon_coordinates(self, ics2):
        c = ics2.beacon_coords
        assert np.allclose(c[0], [-2.1, 1.5], atol=1e-9)
        assert np.allclose(c[1], [-2.1, 1.5], atol=1e-9)
        assert np.allclose(c[2], [-2.1, -1.5], atol=1e-9)
        assert np.allclose(c[3], [-2.1, -1.5], atol=1e-9)

    def test_inter_as_distance_exactly_three(self, ics2):
        assert ics2.estimate(0, 2) == pytest.approx(3.0, abs=1e-9)

    def test_n4_values(self):
        ics4 = ICS(PAPER_EXAMPLE_MATRIX, ICSConfig(dim=4))
        assert ics4.alpha == pytest.approx(0.5927, abs=5e-5)
        assert ics4.estimate(0, 1) == pytest.approx(0.8383, abs=5e-5)
        assert ics4.estimate(0, 2) == pytest.approx(3.0224, abs=5e-5)
        assert ics4.estimate(2, 3) == pytest.approx(0.8383, abs=5e-5)


class TestPaperExample5:
    def test_host_a_coordinate(self, ics2):
        xa = ics2.host_coordinate(PAPER_EXAMPLE_HOST_A)
        assert np.allclose(xa, [-3.0, 1.8], atol=1e-9)

    def test_host_a_distances(self, ics2):
        xa = ics2.host_coordinate(PAPER_EXAMPLE_HOST_A)
        c = ics2.beacon_coords
        # the paper truncates 0.9487 to "0.94"
        assert ICS.distance(c[0], xa) == pytest.approx(0.9487, abs=5e-4)
        assert ICS.distance(c[1], xa) == pytest.approx(0.9487, abs=5e-4)
        assert ICS.distance(c[2], xa) == pytest.approx(3.42, abs=5e-3)
        assert ICS.distance(c[3], xa) == pytest.approx(3.42, abs=5e-3)

    def test_host_b_coordinate_and_distances(self, ics2):
        xb = ics2.host_coordinate(PAPER_EXAMPLE_HOST_B)
        assert xb[0] == pytest.approx(-12.0, abs=1e-9)
        assert xb[1] == pytest.approx(0.0, abs=1e-9)
        for i in range(4):
            assert ICS.distance(ics2.beacon_coords[i], xb) == pytest.approx(
                10.01, abs=5e-3
            )


class TestICSGeneral:
    def test_dimension_by_variance_threshold(self):
        ics = ICS(PAPER_EXAMPLE_MATRIX, ICSConfig(variance_threshold=0.95))
        # sigma = (7, 5, 1, 1): two components carry 74/76 = 97.4% > 95%
        assert ics.dim == 2

    def test_variance_cumsum_monotone(self, ics2):
        cv = ics2.cumulative_variation
        assert np.all(np.diff(cv) >= -1e-12)
        assert cv[-1] == pytest.approx(1.0)

    def test_full_dimension_carries_exactly_all_variation(self):
        # 14 beacons of a generated underlay: np.sum(s**2) and the
        # cumulative sum's last entry differ in the last bit there, so
        # dividing by the former read 1.0000000000000002
        from repro.underlay import Underlay, UnderlayConfig

        rtt = Underlay.generate(UnderlayConfig(n_hosts=40, seed=3)).rtt_matrix()
        for nb in range(2, 15):
            cv = ICS(rtt[:nb, :nb]).cumulative_variation
            assert cv[-1] == 1.0
            assert np.all(np.diff(cv) >= 0.0)

    def test_vectorised_host_coordinates(self, ics2):
        both = np.vstack([PAPER_EXAMPLE_HOST_A, PAPER_EXAMPLE_HOST_B])
        coords = ics2.host_coordinates(both)
        assert np.allclose(coords[0], ics2.host_coordinate(PAPER_EXAMPLE_HOST_A))
        assert np.allclose(coords[1], ics2.host_coordinate(PAPER_EXAMPLE_HOST_B))

    def test_asymmetric_matrix_rejected(self):
        bad = PAPER_EXAMPLE_MATRIX.copy()
        bad[0, 1] = 9.0
        with pytest.raises(CoordinateError):
            ICS(bad)

    def test_nonsquare_rejected(self):
        with pytest.raises(CoordinateError):
            ICS(np.zeros((3, 4)))

    def test_negative_distances_rejected(self):
        bad = PAPER_EXAMPLE_MATRIX.copy()
        bad[0, 1] = bad[1, 0] = -1.0
        with pytest.raises(CoordinateError):
            ICS(bad)

    def test_wrong_measurement_length_rejected(self, ics2):
        with pytest.raises(CoordinateError):
            ics2.host_coordinate([1.0, 2.0])

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ICSConfig(dim=0)
        with pytest.raises(ConfigurationError):
            ICSConfig(variance_threshold=0.0)

    def test_embedding_on_generated_underlay(self, small_underlay):
        rtt = small_underlay.rtt_matrix()
        nb = 12
        ics = ICS(rtt[:nb, :nb], ICSConfig(variance_threshold=0.999))
        coords = ics.host_coordinates(rtt[:, :nb])
        diff = coords[:, None, :] - coords[None, :, :]
        pred = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        iu = np.triu_indices(rtt.shape[0], 1)
        rel = np.abs(pred[iu] - rtt[iu]) / rtt[iu]
        # ICS is a linear landmark method: usable but coarser than Vivaldi
        assert np.median(rel) < 0.55
