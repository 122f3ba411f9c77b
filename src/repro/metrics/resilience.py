"""Resilience metrics: robustness against churn and failures (§5.4).

The survey flags "robustness especially against churn" as the open
evaluation question for underlay-aware overlays — in particular whether
ISP-based clustering (Figure 6b) makes the overlay fragile: if the few
inter-AS links die, whole ISP clusters partition.  These metrics measure
exactly that:

- ``partition_risk`` — probability that removing ``f`` random nodes
  disconnects at least one AS cluster from the rest;
- ``cut_vulnerability`` — how many node removals suffice to disconnect
  the overlay (greedy approximation via articulation points);
- ``stretch_summary`` — achieved lookup latency over the direct underlay
  RTT, the price an overlay pays for indirection (and the quantity that
  degrades first when fault injection knocks out the short paths).
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

import networkx as nx
import numpy as np

from repro.errors import ReproError
from repro.rng import SeedLike, ensure_rng


def largest_component_fraction(graph: nx.Graph) -> float:
    """Size of the largest connected component over all nodes."""
    n = graph.number_of_nodes()
    if n == 0:
        raise ReproError("empty graph")
    return max(len(c) for c in nx.connected_components(graph)) / n


def partition_risk(
    graph: nx.Graph,
    asn_of: Callable[[Hashable], int],
    removal_fraction: float,
    *,
    trials: int = 20,
    rng: SeedLike = None,
) -> float:
    """Probability that random removal of the given node fraction leaves
    at least one AS's surviving peers unreachable from the rest."""
    rng = ensure_rng(rng)
    nodes = list(graph.nodes())
    n_remove = int(round(removal_fraction * len(nodes)))
    bad = 0
    for _ in range(trials):
        idx = rng.choice(len(nodes), size=n_remove, replace=False)
        removed = {nodes[int(i)] for i in idx}
        sub = graph.subgraph(n for n in nodes if n not in removed)
        if sub.number_of_nodes() == 0:
            continue
        comps = list(nx.connected_components(sub))
        if len(comps) == 1:
            continue
        # partitioned: does any AS sit entirely outside the giant component?
        giant = max(comps, key=len)
        outside_ases = {asn_of(n) for c in comps if c is not giant for n in c}
        if outside_ases:
            bad += 1
    return bad / trials


def articulation_point_count(graph: nx.Graph) -> int:
    """Nodes whose individual failure disconnects the overlay."""
    if graph.number_of_nodes() == 0:
        raise ReproError("empty graph")
    return sum(1 for _ in nx.articulation_points(graph))


def stretch_summary(
    achieved_ms: Sequence[float],
    baseline_ms: Sequence[float],
) -> dict[str, float]:
    """Mean/median stretch of achieved latencies over their baselines.

    ``achieved_ms[i]`` is an operation's end-to-end latency (e.g. one
    iterative lookup); ``baseline_ms[i]`` the direct underlay RTT the
    operation would have cost with perfect knowledge.  Pairs with a
    non-positive baseline (local hits) are skipped; with no usable pair
    the stretches are NaN and ``n`` is 0.
    """
    if len(achieved_ms) != len(baseline_ms):
        raise ReproError("achieved/baseline length mismatch")
    ratios = [
        a / b
        for a, b in zip(achieved_ms, baseline_ms)
        if b > 0 and np.isfinite(a)
    ]
    if not ratios:
        return {"n": 0, "mean_stretch": float("nan"),
                "median_stretch": float("nan")}
    return {
        "n": len(ratios),
        "mean_stretch": float(np.mean(ratios)),
        "median_stretch": float(np.median(ratios)),
    }


def resilience_summary(
    graph: nx.Graph,
    asn_of: Callable[[Hashable], int],
    *,
    removal_fraction: float = 0.2,
    rng: SeedLike = 0,
) -> dict[str, float]:
    """One row with the connectivity/robustness quantities of a graph."""
    return {
        "largest_component": largest_component_fraction(graph),
        "articulation_points": articulation_point_count(graph),
        "partition_risk": partition_risk(
            graph, asn_of, removal_fraction, rng=rng
        ),
    }
