"""Graphviz DOT export for overlays.

The paper's Figures 5 and 6 are *visualisations* of overlay topologies
(random vs oracle-biased).  This module renders the same pictures: DOT
text with one colour per AS and role-shaped nodes for Gnutella
overlays.  Feed the output to ``dot -Tsvg`` (Graphviz is not a
dependency; the strings are plain text and are asserted structurally
in the tests).
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

import networkx as nx

#: Distinguishable fill colours, reused cyclically per AS.
_PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080",
    "#e6beff", "#9a6324", "#fffac8", "#800000", "#aaffc3",
    "#808000", "#ffd8b1", "#000075", "#808080", "#ffe119",
)


def color_for(asn: int) -> str:
    """Stable fill colour for an AS (palette cycles past 20 ASes)."""
    return _PALETTE[asn % len(_PALETTE)]


def dot_overlay(
    graph: nx.Graph,
    asn_of: Callable[[Hashable], int],
    *,
    role_of: Optional[Callable[[Hashable], str]] = None,
    title: str = "overlay",
) -> str:
    """The Figure 5/6 picture: peers coloured by AS, intra-AS edges bold,
    inter-AS edges grey; ultrapeers (if roles given) drawn as boxes."""
    lines = [
        "graph overlay {",
        f'  label="{title}";',
        "  layout=neato;",
        '  node [style=filled, fontsize=8, fontname="Helvetica"];',
    ]
    for n in sorted(graph.nodes(), key=str):
        asn = asn_of(n)
        shape = "ellipse"
        if role_of is not None and role_of(n) == "ultrapeer":
            shape = "box"
        lines.append(
            f'  n{n} [label="{n}", shape={shape}, '
            f"fillcolor=\"{color_for(asn)}\"];"
        )
    for a, b in sorted(graph.edges(), key=str):
        if asn_of(a) == asn_of(b):
            lines.append(f"  n{a} -- n{b} [penwidth=1.6];")
        else:
            lines.append(f'  n{a} -- n{b} [color="#999999"];')
    lines.append("}")
    return "\n".join(lines)


def write_figure6_pair(
    uniform_graph: nx.Graph,
    biased_graph: nx.Graph,
    asn_of: Callable[[Hashable], int],
    path_prefix: str,
) -> tuple[str, str]:
    """Write the two Figure 6 panels as .dot files; returns the paths."""
    paths = (f"{path_prefix}_uniform.dot", f"{path_prefix}_biased.dot")
    for path, graph, title in zip(
        paths,
        (uniform_graph, biased_graph),
        ("(a) uniform random neighbor selection", "(b) biased neighbor selection"),
    ):
        with open(path, "w") as fh:
            fh.write(dot_overlay(graph, asn_of, title=title))
    return paths
