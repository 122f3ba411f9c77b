"""Unit tests for locality and resilience metrics."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import ReproError
from repro.metrics import (
    articulation_point_count,
    as_modularity,
    intra_as_edge_fraction,
    inter_as_edge_count,
    is_connected,
    largest_component_fraction,
    locality_summary,
    min_inter_as_edges,
    partition_risk,
    resilience_summary,
)


def _clustered_graph():
    """Two 5-cliques (AS 0 and AS 1) joined by one edge."""
    g = nx.Graph()
    asn = {}
    for a in range(5):
        asn[a] = 0
    for b in range(5, 10):
        asn[b] = 1
    g.add_edges_from((i, j) for i in range(5) for j in range(i + 1, 5))
    g.add_edges_from((i, j) for i in range(5, 10) for j in range(i + 1, 10))
    g.add_edge(0, 5)
    return g, (lambda n: asn[n])


def _random_graph():
    g = nx.gnm_random_graph(10, 21, seed=1)
    return g, (lambda n: n % 2)


def test_intra_fraction_extremes():
    g, asn_of = _clustered_graph()
    frac = intra_as_edge_fraction(g, asn_of)
    assert frac == pytest.approx(20 / 21)
    assert inter_as_edge_count(g, asn_of) == 1
    assert min_inter_as_edges(g, asn_of) == 1


def test_empty_graph_fraction_zero():
    assert intra_as_edge_fraction(nx.Graph(), lambda n: 0) == 0.0


def test_modularity_higher_for_clustered():
    gc, asn_c = _clustered_graph()
    gr, asn_r = _random_graph()
    assert as_modularity(gc, asn_c) > as_modularity(gr, asn_r)


def test_modularity_rejects_edgeless():
    g = nx.Graph()
    g.add_nodes_from([1, 2])
    with pytest.raises(ReproError):
        as_modularity(g, lambda n: 0)


def test_locality_summary_keys():
    g, asn_of = _clustered_graph()
    row = locality_summary(g, asn_of)
    assert row["connected"] == 1.0
    assert row["nodes"] == 10
    assert row["inter_as_edges"] == 1


def test_largest_component_fraction():
    g = nx.Graph()
    g.add_edges_from([(1, 2), (2, 3), (4, 5)])
    assert largest_component_fraction(g) == pytest.approx(3 / 5)
    with pytest.raises(ReproError):
        largest_component_fraction(nx.Graph())


def test_partition_risk_clustered_vs_dense():
    gc, asn_c = _clustered_graph()
    dense = nx.complete_graph(10)
    risk_clustered = partition_risk(gc, asn_c, 0.2, trials=40, rng=3)
    risk_dense = partition_risk(dense, lambda n: n % 2, 0.2, trials=40, rng=3)
    assert risk_clustered >= risk_dense


def test_articulation_points():
    g, _ = _clustered_graph()
    # nodes 0 and 5 bridge the cliques
    assert articulation_point_count(g) == 2
    assert articulation_point_count(nx.complete_graph(5)) == 0


def test_is_connected_empty():
    assert is_connected(nx.Graph())


def test_resilience_summary_keys():
    g, asn_of = _clustered_graph()
    row = resilience_summary(g, asn_of, removal_fraction=0.2, rng=1)
    assert set(row) == {"largest_component", "articulation_points", "partition_risk"}
