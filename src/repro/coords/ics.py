"""ICS: the Internet Coordinate System of Lim, Hou & Choi [20].

This is the landmark ("beacon") architecture reproduced in the survey's
Figure 4, including the worked Examples 4 and 5 whose numbers our tests
assert exactly.

Procedure (paper steps S1–S5 / H1–H3):

1. Beacon nodes measure their pairwise RTTs, giving the distance matrix
   ``D`` (m×m).
2. An administrative node applies PCA to ``D``: the singular value
   decomposition yields principal directions ``u_1..u_m``.
3. The embedding dimension ``n`` is the smallest one whose cumulative
   percentage of variation exceeds a threshold.
4. Unscaled beacon coordinates are ``c_i = U_n^T d_i`` (``d_i`` = i-th
   column of ``D``).
5. A scaling factor ``α`` is fit by least squares so that embedded
   distances match measured ones; the transformation matrix is
   ``Ū_n = α·U_n`` and beacon coordinates ``c̄_i = Ū_n^T d_i``.

A joining host measures its RTT vector ``l_a`` to the beacons and computes
its own coordinate locally as ``x_a = Ū_n^T · l_a`` (step H3) — no global
coordination needed beyond fetching ``Ū_n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.coords.base import (
    CoordinateSystem,
    row_norms,
    validate_distance_matrix,
)
from repro.errors import ConfigurationError, CoordinateError


@dataclass(frozen=True)
class ICSConfig:
    """Dimension selection: fixed ``dim`` wins over the variance threshold."""

    dim: Optional[int] = None
    variance_threshold: float = 0.95

    def __post_init__(self) -> None:
        if self.dim is not None and self.dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if not (0 < self.variance_threshold <= 1):
            raise ConfigurationError("variance threshold must be in (0, 1]")


def _sign_normalize(u: np.ndarray) -> np.ndarray:
    """Resolve the SVD sign ambiguity: flip each column so its first
    non-negligible entry is negative, matching the paper's examples."""
    u = u.copy()
    for k in range(u.shape[1]):
        col = u[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] > 0:
            u[:, k] = -col
    return u


class ICS(CoordinateSystem):
    """Fitted ICS model: beacon coordinates plus the host-side transform."""

    def __init__(
        self, beacon_distances: np.ndarray, config: ICSConfig | None = None
    ) -> None:
        self.config = config or ICSConfig()
        d = validate_distance_matrix(beacon_distances, name="beacon distance matrix")
        if not np.allclose(d, d.T, atol=1e-9):
            raise CoordinateError("beacon distance matrix must be symmetric")
        self.distances = d
        self.m = d.shape[0]
        if self.m < 2:
            raise CoordinateError("need at least two beacons")
        self._fit()

    # -- fitting (steps S3–S5) -------------------------------------------------
    def _fit(self) -> None:
        u, s, _vt = np.linalg.svd(self.distances)
        self.singular_values = s
        # normalise by the cumulative sum's own last entry (``np.sum``
        # adds pairwise and can differ from it in the last bit), so the
        # full-dimension entry is exactly 1.0
        cum = np.cumsum(s**2)
        total = float(cum[-1])
        if total <= 0:
            raise CoordinateError("degenerate distance matrix (all zeros)")
        self.cumulative_variation = cum / total
        if self.config.dim is not None:
            n = min(self.config.dim, self.m)
        else:
            n = int(np.searchsorted(
                self.cumulative_variation, self.config.variance_threshold
            )) + 1
            n = min(n, self.m)
        self.dim = n
        u_n = _sign_normalize(u[:, :n])
        # Unscaled beacon coordinates: c_i = U_n^T d_i  (rows of D @ U_n).
        unscaled = self.distances @ u_n
        self.alpha = self._fit_alpha(unscaled)
        self.transform = self.alpha * u_n          # Ū_n, shape (m, n)
        self.beacon_coords = self.distances @ self.transform

    def _fit_alpha(self, unscaled_coords: np.ndarray) -> float:
        """Least-squares scaling: min_α Σ_{i<j} (α·l_ij − d_ij)²."""
        iu = np.triu_indices(self.m, k=1)
        diff = unscaled_coords[:, None, :] - unscaled_coords[None, :, :]
        l = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))[iu]
        d = self.distances[iu]
        denom = float(np.sum(l * l))
        if denom <= 0:
            return 1.0
        return float(np.sum(l * d) / denom)

    # -- host side (steps H1–H3) -------------------------------------------------
    def host_coordinate(self, rtt_to_beacons: Sequence[float]) -> np.ndarray:
        """Compute a joining host's coordinate from its beacon RTT vector."""
        la = np.asarray(list(rtt_to_beacons), dtype=float)
        if la.shape != (self.m,):
            raise CoordinateError(
                f"expected {self.m} beacon measurements, got shape {la.shape}"
            )
        if (la < 0).any() or not np.isfinite(la).all():
            raise CoordinateError("beacon RTTs must be finite and non-negative")
        return self.transform.T @ la

    def host_coordinates(self, rtt_matrix_to_beacons: np.ndarray) -> np.ndarray:
        """Vectorised: ``(n_hosts, m)`` RTTs -> ``(n_hosts, dim)`` coords."""
        la = np.asarray(rtt_matrix_to_beacons, dtype=float)
        if la.ndim != 2 or la.shape[1] != self.m:
            raise CoordinateError(
                f"expected (n_hosts, {self.m}) measurements, got {la.shape}"
            )
        return la @ self.transform

    @staticmethod
    def distance(x: np.ndarray, y: np.ndarray) -> float:
        """Predicted latency between two ICS coordinates."""
        return float(np.linalg.norm(np.asarray(x) - np.asarray(y)))

    # -- CoordinateSystem over the beacons -----------------------------------------
    def coordinates(self) -> np.ndarray:
        return self.beacon_coords

    def estimate(self, i: int, j: int) -> float:
        return self.distance(self.beacon_coords[i], self.beacon_coords[j])

    def estimate_many(self, src: int, dsts: Sequence[int]) -> np.ndarray:
        """Batched :meth:`estimate` — one stacked norm over the gathered
        beacon coordinates (bit-identical to the scalar path)."""
        dst_list = [int(j) for j in dsts]
        if not dst_list:
            return np.zeros(0)
        diff = self.beacon_coords[src][None, :] - self.beacon_coords[dst_list]
        return row_norms(diff)


#: The beacon distance matrix behind the paper's Examples 1/4/5 (Figure 4
#: excerpt): four beacons in two ASes, intra-AS delay 1, inter-AS delay 3.
PAPER_EXAMPLE_MATRIX = np.array(
    [
        [0.0, 1.0, 3.0, 3.0],
        [1.0, 0.0, 3.0, 3.0],
        [3.0, 3.0, 0.0, 1.0],
        [3.0, 3.0, 1.0, 0.0],
    ]
)

#: Host measurement vectors from Example 5.
PAPER_EXAMPLE_HOST_A = np.array([1.0, 1.0, 4.0, 4.0])
PAPER_EXAMPLE_HOST_B = np.array([10.0, 10.0, 10.0, 10.0])
