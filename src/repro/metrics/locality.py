"""Locality metrics for overlay topologies (Figures 5/6).

The survey's Figure 6 contrasts uniform-random and biased neighbor
selection: biased selection clusters the overlay along AS boundaries with
"a minimal number of inter-AS connections necessary to keep the network
connected".  These metrics quantify that picture:

- ``intra_as_edge_fraction`` — share of overlay edges inside one AS;
- ``as_modularity`` — Newman modularity of the AS partition (how strongly
  the overlay clusters along ISP boundaries);
- ``inter_as_edge_count`` vs ``min_inter_as_edges`` — how close the
  topology is to the connectivity-minimal number of cross-ISP links.
"""

from __future__ import annotations

from typing import Callable, Hashable

import networkx as nx

from repro.errors import ReproError


def intra_as_edge_fraction(
    graph: nx.Graph, asn_of: Callable[[Hashable], int]
) -> float:
    """Fraction of edges whose endpoints share an AS."""
    edges = list(graph.edges())
    if not edges:
        return 0.0
    same = sum(1 for a, b in edges if asn_of(a) == asn_of(b))
    return same / len(edges)


def inter_as_edge_count(graph: nx.Graph, asn_of: Callable[[Hashable], int]) -> int:
    """Number of overlay edges whose endpoints sit in different ASes."""
    return sum(1 for a, b in graph.edges() if asn_of(a) != asn_of(b))


def min_inter_as_edges(graph: nx.Graph, asn_of: Callable[[Hashable], int]) -> int:
    """Minimum number of inter-AS overlay edges that could keep the
    represented ASes connected: a spanning tree over the distinct ASes."""
    ases = {asn_of(n) for n in graph.nodes()}
    return max(len(ases) - 1, 0)


def as_modularity(graph: nx.Graph, asn_of: Callable[[Hashable], int]) -> float:
    """Newman modularity of the partition of overlay nodes by AS.

    ~0 for AS-agnostic random topologies, approaching its maximum when the
    overlay clusters along ISP boundaries.
    """
    if graph.number_of_edges() == 0:
        raise ReproError("modularity undefined for an edgeless graph")
    groups: dict[int, set] = {}
    for n in graph.nodes():
        groups.setdefault(asn_of(n), set()).add(n)
    return float(nx.algorithms.community.modularity(graph, groups.values()))


def is_connected(graph: nx.Graph) -> bool:
    """True when the graph is connected (empty graphs count as connected)."""
    if graph.number_of_nodes() == 0:
        return True
    return nx.is_connected(graph)


def locality_summary(
    graph: nx.Graph, asn_of: Callable[[Hashable], int]
) -> dict[str, float]:
    """One row with the Figure 6 quantities."""
    return {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "intra_as_edge_fraction": intra_as_edge_fraction(graph, asn_of),
        "inter_as_edges": inter_as_edge_count(graph, asn_of),
        "min_inter_as_edges": min_inter_as_edges(graph, asn_of),
        "as_modularity": as_modularity(graph, asn_of)
        if graph.number_of_edges()
        else 0.0,
        "connected": float(is_connected(graph)),
    }
