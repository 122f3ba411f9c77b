"""Metrics for the §6 open challenges.

- **Asymmetric node selection**: "the path from node A to node B is the
  shortest for node A, but at the same time the path from node B to node
  A is not the shortest for B" — quantified as the fraction of nodes
  whose nearest-neighbour relation is not mutual, and more generally the
  asymmetry of the k-NN relation.
- **Long hop**: "one single hop may represent a big distance in terms of
  delay" — hop-based systems that rank by AS hops alone miss that a
  1-hop route can be slower than a 3-hop route.  Quantified as the
  hop/delay rank correlation and the fraction of minimal-hop pairs whose
  delay exceeds what a latency-aware system would have picked.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.coords.base import validate_distance_matrix
from repro.errors import ReproError
from repro.underlay.network import Underlay


def asymmetric_nearest_fraction(distance_matrix: np.ndarray) -> float:
    """Fraction of nodes whose nearest neighbour does not reciprocate."""
    d = validate_distance_matrix(distance_matrix)
    n = d.shape[0]
    if n < 2:
        raise ReproError("need at least two nodes")
    dd = d.astype(float).copy()
    np.fill_diagonal(dd, np.inf)
    nearest = np.argmin(dd, axis=1)
    non_mutual = sum(1 for i in range(n) if nearest[nearest[i]] != i)
    return non_mutual / n


def knn_asymmetry(distance_matrix: np.ndarray, k: int = 5) -> float:
    """Mean fraction of a node's k nearest that do NOT list it back among
    their own k nearest — 0 for perfectly mutual selection."""
    d = validate_distance_matrix(distance_matrix)
    n = d.shape[0]
    if not (1 <= k < n):
        raise ReproError(f"k must be in [1, n), got {k} for n={n}")
    dd = d.astype(float).copy()
    np.fill_diagonal(dd, np.inf)
    knn = np.argsort(dd, axis=1)[:, :k]
    knn_sets = [set(map(int, row)) for row in knn]
    misses = 0
    for i in range(n):
        misses += sum(1 for j in knn_sets[i] if i not in knn_sets[j])
    return misses / (n * k)


def hop_delay_correlation(underlay: Underlay, max_pairs: int = 2000) -> float:
    """Spearman correlation between AS-hop count and delay over host pairs
    (how much signal a hop-based proximity system actually has)."""
    from scipy import stats

    hosts = underlay.hosts
    hops, delays = [], []
    count = 0
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            hops.append(underlay.routing.hops(a.asn, b.asn))
            delays.append(underlay.one_way_delay(a.host_id, b.host_id))
            count += 1
            if count >= max_pairs:
                break
        if count >= max_pairs:
            break
    if len(set(hops)) < 2:
        raise ReproError("hop counts are constant; correlation undefined")
    rho, _p = stats.spearmanr(hops, delays)
    return float(rho)


def long_hop_fraction(
    underlay: Underlay, *, delay_factor: float = 1.5, max_nodes: int = 60
) -> float:
    """Fraction of hosts for which the hop-minimal peer choice costs more
    than ``delay_factor``× the latency-minimal choice — the §6 long-hop
    penalty of hop-based proximity systems."""
    if delay_factor < 1.0:
        raise ReproError("delay_factor must be >= 1")
    hosts = underlay.hosts[:max_nodes]
    hit = 0
    for a in hosts:
        others = [b for b in hosts if b.host_id != a.host_id]
        min_hops = min(underlay.routing.hops(a.asn, b.asn) for b in others)
        hop_candidates = [
            b for b in others if underlay.routing.hops(a.asn, b.asn) == min_hops
        ]
        hop_choice = min(
            underlay.one_way_delay(a.host_id, b.host_id) for b in hop_candidates
        )
        best_delay = min(
            underlay.one_way_delay(a.host_id, b.host_id) for b in others
        )
        if best_delay > 0 and hop_choice > delay_factor * best_delay:
            hit += 1
    return hit / len(hosts)
