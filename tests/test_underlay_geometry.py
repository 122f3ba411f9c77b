"""Unit tests for planar geometry helpers."""

import numpy as np
import pytest

from repro.underlay.geometry import (
    Position,
    pairwise_distances,
    positions_to_array,
    scatter_around,
)


def test_distance_basic():
    assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)
    assert Position(1, 1).distance_to(Position(1, 1)) == 0.0


def test_pairwise_matches_scalar():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(6, 2))
    mat = pairwise_distances(pts)
    for i in range(6):
        for j in range(6):
            d = Position(*pts[i]).distance_to(Position(*pts[j]))
            assert mat[i, j] == pytest.approx(d)
    assert np.allclose(mat, mat.T)
    assert np.allclose(np.diag(mat), 0.0)


def test_pairwise_rejects_bad_shape():
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros((3, 3)))


def test_positions_to_array_empty():
    assert positions_to_array([]).shape == (0, 2)


def test_scatter_around_centred():
    rng = np.random.default_rng(1)
    pts = scatter_around(Position(100.0, 200.0), 10.0, 500, rng)
    arr = positions_to_array(pts)
    assert abs(arr[:, 0].mean() - 100.0) < 2.0
    assert abs(arr[:, 1].mean() - 200.0) < 2.0


def test_scatter_negative_spread_rejected():
    with pytest.raises(ValueError):
        scatter_around(Position(0, 0), -1.0, 3, np.random.default_rng(0))
