"""Network coordinate systems for latency prediction (§3.2).

- :class:`~repro.coords.vivaldi.VivaldiSystem` — decentralized spring
  embedding (Dabek et al.).
- :class:`~repro.coords.ics.ICS` — PCA/landmark Internet Coordinate System
  (Lim et al., the survey's Figure 4).
- :class:`~repro.coords.gnp.GNPSystem` — landmark embedding (Ratnasamy
  et al.).
- :mod:`~repro.coords.evaluation` — relative error / stretch metrics.
"""

from repro.coords.base import CoordinateSystem, validate_distance_matrix
from repro.coords.evaluation import (
    EmbeddingReport,
    closest_peer_accuracy,
    evaluate_embedding,
    relative_errors,
    selection_stretch,
)
from repro.coords.gnp import GNPConfig, GNPSystem
from repro.coords.ics import (
    ICS,
    ICSConfig,
    PAPER_EXAMPLE_HOST_A,
    PAPER_EXAMPLE_HOST_B,
    PAPER_EXAMPLE_MATRIX,
)
from repro.coords.vivaldi import VivaldiConfig, VivaldiNode, VivaldiSystem

__all__ = [
    "CoordinateSystem",
    "EmbeddingReport",
    "GNPConfig",
    "GNPSystem",
    "ICS",
    "ICSConfig",
    "PAPER_EXAMPLE_HOST_A",
    "PAPER_EXAMPLE_HOST_B",
    "PAPER_EXAMPLE_MATRIX",
    "VivaldiConfig",
    "VivaldiNode",
    "VivaldiSystem",
    "closest_peer_accuracy",
    "evaluate_embedding",
    "relative_errors",
    "selection_stretch",
    "validate_distance_matrix",
]
