"""Unit tests for GNP landmark embedding."""

import numpy as np
import pytest

from repro.coords import GNPConfig, GNPSystem, evaluate_embedding
from repro.errors import ConfigurationError, CoordinateError


def _euclidean_matrix(n, dim, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    mat = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(mat, 0.0)
    return pts, mat


def test_config_validation():
    with pytest.raises(ConfigurationError):
        GNPConfig(dim=0)
    with pytest.raises(ConfigurationError):
        GNPConfig(restarts=0)


def test_landmark_embedding_recovers_euclidean_distances():
    _pts, mat = _euclidean_matrix(7, 3, seed=1)
    gnp = GNPSystem(mat, GNPConfig(dim=3, restarts=3), seed=2)
    rep = evaluate_embedding(gnp.estimated_matrix(), mat)
    assert rep.median_relative_error < 0.05


def test_host_coordinate_close_to_landmark_consistency():
    pts, mat = _euclidean_matrix(8, 3, seed=3)
    gnp = GNPSystem(mat[:6, :6], GNPConfig(dim=3, restarts=3), seed=4)
    # embed host 7 using its true distances to the six landmarks
    host_coord = gnp.host_coordinate(mat[7, :6])
    pred = np.linalg.norm(gnp.landmark_coords - host_coord[None, :], axis=1)
    rel = np.abs(pred - mat[7, :6]) / mat[7, :6]
    assert np.median(rel) < 0.15


def test_needs_enough_landmarks():
    _p, mat = _euclidean_matrix(3, 2, seed=5)
    with pytest.raises(CoordinateError):
        GNPSystem(mat, GNPConfig(dim=3))


def test_host_coordinate_validation():
    _p, mat = _euclidean_matrix(6, 2, seed=6)
    gnp = GNPSystem(mat, GNPConfig(dim=2), seed=1)
    with pytest.raises(CoordinateError):
        gnp.host_coordinate([1.0, 2.0])
    with pytest.raises(CoordinateError):
        gnp.host_coordinate([-1.0] * 6)

