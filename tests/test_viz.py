"""Unit tests for the DOT exporters."""

import networkx as nx

from repro.viz import color_for, dot_overlay, write_figure6_pair


def test_color_cycling():
    assert color_for(0) == color_for(20)
    assert color_for(0) != color_for(1)


def test_dot_overlay_edge_classes(dense_underlay):
    u = dense_underlay
    ids = u.host_ids()[:20]
    g = nx.Graph()
    g.add_nodes_from(ids)
    same_pair = None
    diff_pair = None
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if u.asn_of(a) == u.asn_of(b) and same_pair is None:
                same_pair = (a, b)
            if u.asn_of(a) != u.asn_of(b) and diff_pair is None:
                diff_pair = (a, b)
    assert same_pair and diff_pair
    g.add_edge(*same_pair)
    g.add_edge(*diff_pair)
    dot = dot_overlay(g, u.asn_of, title="test")
    assert 'label="test"' in dot
    assert dot.count("penwidth=1.6") == 1      # intra-AS edge emphasised
    assert dot.count('color="#999999"') == 1   # inter-AS edge greyed


def test_dot_overlay_roles(small_underlay):
    u = small_underlay
    ids = u.host_ids()[:4]
    g = nx.Graph()
    g.add_nodes_from(ids)
    roles = {ids[0]: "ultrapeer"}
    dot = dot_overlay(g, u.asn_of, role_of=lambda n: roles.get(n, "leaf"))
    assert dot.count("shape=box") == 1


def test_write_figure6_pair(tmp_path, small_underlay):
    u = small_underlay
    ids = u.host_ids()[:6]
    g = nx.cycle_graph(6)
    g = nx.relabel_nodes(g, dict(enumerate(ids)))
    p1, p2 = write_figure6_pair(g, g, u.asn_of, str(tmp_path / "fig6"))
    for p, tag in ((p1, "uniform"), (p2, "biased")):
        text = open(p).read()
        assert "graph overlay {" in text
        assert tag in text
