"""Vivaldi: a decentralized network coordinate system (Dabek et al. [7]).

Each node keeps a synthetic coordinate and a confidence weight; on every
RTT sample to a neighbour it nudges its coordinate along the spring force
``(rtt - predicted) * unit_vector``, scaled by the adaptive timestep
``cc * w`` with ``w = e_i / (e_i + e_j)``.  The optional *height* component
models the access-link delay every packet pays regardless of direction —
the same access-link structure our underlay generates — so Vivaldi with
height fits our matrices better, exactly as in the original paper.

:class:`VivaldiSystem` runs the decentralized protocol in rounds against a
ground-truth RTT matrix (each node sampling a few random neighbours per
round), which is how the algorithm is evaluated on measured datasets.
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
from repro.rng import SeedLike, ensure_rng

_MIN_HEIGHT = 1e-5
#: a new node's error estimate: no confidence in its coordinates yet
INITIAL_ERROR = 1.0


@dataclass(frozen=True)
class VivaldiConfig:
    """Algorithm constants (paper notation: cc, ce)."""

    dim: int = 2
    use_height: bool = True
    cc: float = 0.25          # coordinate adaptation gain
    ce: float = 0.25          # error adaptation gain

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if not (0 < self.cc <= 1) or not (0 < self.ce <= 1):
            raise ConfigurationError("cc and ce must be in (0, 1]")


class VivaldiNode:
    """State and update rule of a single Vivaldi participant."""

    def __init__(self, config: VivaldiConfig, rng: SeedLike = None) -> None:
        self.config = config
        rng = ensure_rng(rng)
        # Nodes start at the origin plus a tiny random kick so two nodes
        # never sit exactly on top of each other (the paper uses a random
        # unit direction for that case; a kick avoids the branch).
        self.position = rng.normal(0.0, 1e-3, size=config.dim)
        self.height = float(rng.uniform(1e-3, 1e-2)) if config.use_height else 0.0
        self.error = INITIAL_ERROR

    def distance_to(self, other: "VivaldiNode") -> float:
        d = float(np.linalg.norm(self.position - other.position))
        return d + self.height + other.height

    def update(self, rtt: float, other: "VivaldiNode") -> None:
        """Process one RTT sample to ``other`` (whose state is not modified)."""
        if rtt <= 0:
            raise CoordinateError(f"RTT sample must be positive, got {rtt}")
        cfg = self.config
        w = self.error / (self.error + other.error)
        predicted = self.distance_to(other)
        sample_error = abs(predicted - rtt) / rtt
        self.error = sample_error * cfg.ce * w + self.error * (1.0 - cfg.ce * w)
        delta = cfg.cc * w
        force = rtt - predicted
        gap = self.position - other.position
        norm = float(np.linalg.norm(gap))
        if norm < 1e-12:
            direction = np.zeros(cfg.dim)
            direction[0] = 1.0
        else:
            direction = gap / norm
        self.position = self.position + delta * force * direction
        if cfg.use_height:
            # height moves with the same spring force along the "up" axis
            self.height = max(self.height + delta * force * 1.0 * 0.1, _MIN_HEIGHT)


class VivaldiSystem(CoordinateSystem):
    """Runs decentralized Vivaldi over a ground-truth RTT matrix."""

    def __init__(
        self,
        rtt_matrix: np.ndarray,
        config: VivaldiConfig | None = None,
        *,
        rng: SeedLike = None,
    ) -> None:
        self.rtt = validate_distance_matrix(rtt_matrix, name="RTT matrix")
        self.n = self.rtt.shape[0]
        if self.n < 2:
            raise CoordinateError("need at least two nodes")
        self.config = config or VivaldiConfig()
        self._rng = ensure_rng(rng)
        self.nodes = [VivaldiNode(self.config, self._rng) for _ in range(self.n)]
        self.samples_used = 0

    def run(self, rounds: int = 50, neighbors_per_round: int = 8) -> None:
        """Each round, every node samples ``neighbors_per_round`` random
        other nodes and applies the Vivaldi update."""
        if rounds < 0 or neighbors_per_round < 1:
            raise ConfigurationError("rounds >= 0 and neighbors_per_round >= 1")
        k = min(neighbors_per_round, self.n - 1)
        for _ in range(rounds):
            order = self._rng.permutation(self.n)
            for i in order:
                choices = self._rng.choice(self.n - 1, size=k, replace=False)
                for c in choices:
                    j = int(c) if c < i else int(c) + 1
                    rtt = float(self.rtt[i, j])
                    if rtt <= 0:
                        continue
                    self.nodes[int(i)].update(rtt, self.nodes[j])
                    self.samples_used += 1

    # -- CoordinateSystem ------------------------------------------------------
    def coordinates(self) -> np.ndarray:
        return np.array([n.position for n in self.nodes])

    def heights(self) -> np.ndarray:
        return np.array([n.height for n in self.nodes])

    def estimate(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return self.nodes[i].distance_to(self.nodes[j])

    def estimate_many(self, src: int, dsts: Sequence[int]) -> np.ndarray:
        """Batched :meth:`estimate`: one position gather + one stacked
        norm instead of a ``distance_to`` call per destination, with the
        height terms added in the scalar operation order so values are
        bit-identical."""
        dst_list = [int(j) for j in dsts]
        if not dst_list:
            return np.zeros(0)
        node = self.nodes[src]
        positions = np.array([self.nodes[j].position for j in dst_list])
        d = row_norms(node.position[None, :] - positions)
        heights = np.array([self.nodes[j].height for j in dst_list])
        est = (d + node.height) + heights
        for idx, j in enumerate(dst_list):
            if j == src:
                est[idx] = 0.0
        return est

    def estimated_matrix(self) -> np.ndarray:
        coords = self.coordinates()
        diff = coords[:, None, :] - coords[None, :, :]
        base = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        if self.config.use_height:
            h = self.heights()
            base = base + h[:, None] + h[None, :]
        np.fill_diagonal(base, 0.0)
        return base
