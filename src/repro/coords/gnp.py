"""Landmark-based positioning: GNP-style embedding and Ratnasamy binning.

The survey's §3.2 cites landmark prediction methods [26] (Ratnasamy et al.,
"Topologically-aware overlay construction"): peers measure RTTs to a fixed
set of landmarks.  Two usages exist:

- :class:`GNPSystem` — Global Network Positioning: landmarks are embedded
  into a low-dimensional space by minimising relative embedding error
  (scipy simplex-downhill, as in the original GNP), then each host solves
  the same small optimisation against the landmark coordinates.
- :class:`LandmarkBinning` — distributed binning: each peer sorts the
  landmarks by RTT; the ordering (optionally with latency-level digits) is
  its *bin*.  Peers falling into the same bin are topologically close.
  This is the cheap technique used for topologically-aware overlay
  construction and server selection.
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
class GNPConfig:
    """GNP parameters: embedding dimension and optimiser restarts."""
    dim: int = 3
    restarts: int = 2

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if self.restarts < 1:
            raise ConfigurationError("restarts must be >= 1")


def _relative_error(predicted: np.ndarray, measured: np.ndarray) -> float:
    """GNP objective: sum of squared relative errors over measured pairs."""
    mask = measured > 0
    if not mask.any():
        return 0.0
    rel = (predicted[mask] - measured[mask]) / measured[mask]
    return float(np.sum(rel * rel))


class GNPSystem(CoordinateSystem):
    """GNP: landmark embedding + per-host coordinate solving."""

    def __init__(
        self,
        landmark_rtts: np.ndarray,
        config: GNPConfig | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.config = config or GNPConfig()
        self.rtts = validate_distance_matrix(landmark_rtts, name="landmark RTT matrix")
        self.m = self.rtts.shape[0]
        if self.m < self.config.dim + 1:
            raise CoordinateError(
                f"need at least dim+1={self.config.dim + 1} landmarks, got {self.m}"
            )
        self._rng = np.random.default_rng(seed)
        self.landmark_coords = self._embed_landmarks()

    def _embed_landmarks(self) -> np.ndarray:
        from scipy import optimize

        m, dim = self.m, self.config.dim
        iu = np.triu_indices(m, k=1)
        measured = self.rtts[iu]
        scale = float(np.median(measured[measured > 0])) if (measured > 0).any() else 1.0

        def objective(flat: np.ndarray) -> float:
            coords = flat.reshape(m, dim)
            diff = coords[:, None, :] - coords[None, :, :]
            pred = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))[iu]
            return _relative_error(pred, measured)

        best = None
        best_val = np.inf
        for _ in range(self.config.restarts):
            x0 = self._rng.normal(0.0, scale / 2.0, size=m * dim)
            res = optimize.minimize(
                objective, x0, method="Nelder-Mead",
                options={"maxiter": 4000, "fatol": 1e-8, "xatol": 1e-6},
            )
            if res.fun < best_val:
                best_val = float(res.fun)
                best = res.x
        assert best is not None
        return best.reshape(m, dim)

    def host_coordinate(self, rtt_to_landmarks: Sequence[float]) -> np.ndarray:
        """Solve the host-side optimisation against the fixed landmarks."""
        from scipy import optimize

        la = np.asarray(list(rtt_to_landmarks), dtype=float)
        if la.shape != (self.m,):
            raise CoordinateError(f"expected {self.m} landmark RTTs, got {la.shape}")
        if (la < 0).any():
            raise CoordinateError("landmark RTTs must be non-negative")

        def objective(x: np.ndarray) -> float:
            pred = np.linalg.norm(self.landmark_coords - x[None, :], axis=1)
            return _relative_error(pred, la)

        # start at the RTT-weighted centroid of the landmarks
        w = 1.0 / np.maximum(la, 1e-6)
        x0 = (self.landmark_coords * (w / w.sum())[:, None]).sum(axis=0)
        res = optimize.minimize(objective, x0, method="Nelder-Mead",
                                options={"maxiter": 2000})
        return res.x

    # -- CoordinateSystem over the landmarks ---------------------------------
    def coordinates(self) -> np.ndarray:
        return self.landmark_coords

    def estimate(self, i: int, j: int) -> float:
        return float(
            np.linalg.norm(self.landmark_coords[i] - self.landmark_coords[j])
        )

    def estimate_many(self, src: int, dsts: Sequence[int]) -> np.ndarray:
        """Batched :meth:`estimate` — one stacked norm over the gathered
        landmark coordinates (bit-identical to the scalar path)."""
        dst_list = [int(j) for j in dsts]
        if not dst_list:
            return np.zeros(0)
        diff = self.landmark_coords[src][None, :] - self.landmark_coords[dst_list]
        return row_norms(diff)

    @staticmethod
    def distance(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(x) - np.asarray(y)))


class LandmarkBinning:
    """Ratnasamy-style distributed binning.

    ``bin_of`` maps a peer's landmark RTT vector to a hashable bin id:
    the landmark ordering plus a latency-level digit per landmark
    (levels split at the given millisecond thresholds).
    """

    def __init__(
        self, n_landmarks: int, level_thresholds_ms: Sequence[float] = (100.0, 200.0)
    ) -> None:
        if n_landmarks < 1:
            raise ConfigurationError("need at least one landmark")
        self.n_landmarks = n_landmarks
        self.thresholds = tuple(sorted(level_thresholds_ms))

    def bin_of(self, rtt_to_landmarks: Sequence[float]) -> tuple:
        la = np.asarray(list(rtt_to_landmarks), dtype=float)
        if la.shape != (self.n_landmarks,):
            raise CoordinateError(
                f"expected {self.n_landmarks} landmark RTTs, got {la.shape}"
            )
        order = tuple(int(i) for i in np.argsort(la, kind="stable"))
        levels = tuple(int(np.searchsorted(self.thresholds, v)) for v in la)
        return order + levels

    def same_bin(self, rtts_a: Sequence[float], rtts_b: Sequence[float]) -> bool:
        return self.bin_of(rtts_a) == self.bin_of(rtts_b)

    def bin_similarity(self, rtts_a: Sequence[float], rtts_b: Sequence[float]) -> float:
        """Fraction of matching positions between the two bin vectors —
        a graded proximity signal (1.0 = identical bins)."""
        a = self.bin_of(rtts_a)
        b = self.bin_of(rtts_b)
        return sum(x == y for x, y in zip(a, b)) / len(a)
