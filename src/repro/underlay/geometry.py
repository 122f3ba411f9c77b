"""Planar geography for the synthetic Internet.

Positions live on a continental plane measured in kilometres (a UTM-like
projected coordinate system, per the survey's §3.3 note that UTM is the
usual representation for geolocation).  Distances are Euclidean; the
propagation-delay conversion lives in :mod:`repro.underlay.latency`.

All pairwise computations are vectorised NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default extent of the plane, km (roughly a continent).
DEFAULT_EXTENT_KM = 5000.0


@dataclass(frozen=True)
class Position:
    """A point on the projected plane, in kilometres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return float(np.hypot(self.x - other.x, self.y - other.y))


def positions_to_array(positions: list[Position]) -> np.ndarray:
    """Stack positions into an ``(n, 2)`` float array."""
    if not positions:
        return np.zeros((0, 2), dtype=float)
    return np.array([[p.x, p.y] for p in positions], dtype=float)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances of an ``(n, 2)`` array, vectorised.

    Returns an ``(n, n)`` symmetric matrix with zero diagonal.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"expected (n, 2) array, got shape {points.shape}")
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def scatter_around(
    center: Position, spread_km: float, n: int, rng: np.random.Generator
) -> list[Position]:
    """Draw ``n`` positions normally scattered around ``center``.

    Used to place hosts inside an ISP's service area and ISPs inside a
    geographic region.
    """
    if spread_km < 0:
        raise ValueError("spread_km must be non-negative")
    offsets = rng.normal(0.0, spread_km, size=(n, 2))
    return [Position(center.x + dx, center.y + dy) for dx, dy in offsets]
