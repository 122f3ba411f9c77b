"""LTM — Location-aware Topology Matching (Liu et al. [21]).

LTM attacks *topology mismatch* in unstructured overlays: overlay links
whose underlay detour is pointless.  Each node measures the delay to its
direct neighbours and to its neighbours' neighbours (in the real protocol
via TTL-2 timestamped flooding); a link A–B is **low-productive** when
some common neighbour C gives a strictly cheaper relay,
``d(A,C) + d(C,B) < d(A,B)`` — keeping A–B then only duplicates traffic
along a slower path.  LTM cuts such links and (optionally) replaces them
with *source peers*: the nearby nodes discovered during probing.

``ltm_round`` performs one synchronous round over an overlay graph;
``run_ltm`` iterates to convergence.  Probing cost is accounted per round
so experiments can weigh the delay gains against the measurement overhead
the survey warns about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:
    import networkx as nx

#: two timestamped probe messages per measured pair (TTL-2 flooding cost)
PROBE_BYTES = 72


@dataclass
class LTMStats:
    """Counters across LTM rounds: cuts, additions, probing cost."""
    rounds: int = 0
    links_cut: int = 0
    links_added: int = 0
    probes_sent: int = 0

    @property
    def probe_bytes(self) -> int:
        return self.probes_sent * PROBE_BYTES


def ltm_round(
    graph: nx.Graph,
    delay_of: Callable[[Hashable, Hashable], float],
    *,
    min_degree: int = 2,
    slack: float = 1.0,
    add_replacements: bool = True,
    stats: LTMStats | None = None,
) -> int:
    """One LTM round, in place.  Returns the number of links cut.

    ``slack`` < 1 demands the relay be that much cheaper before cutting
    (conservative cutting); 1.0 is the paper's plain rule.  A link is
    never cut when either endpoint would drop below ``min_degree`` or the
    cut would disconnect the two endpoints' neighbourhoods entirely.
    """
    if min_degree < 1:
        raise ReproError("min_degree must be >= 1")
    if not (0 < slack <= 1.0):
        raise ReproError("slack must be in (0, 1]")
    stats = stats if stats is not None else LTMStats()
    cut = 0
    # probing cost: every node measures neighbours + 2-hop neighbours once
    for node in graph.nodes():
        two_hop = {
            nn for nb in graph.neighbors(node) for nn in graph.neighbors(nb)
        } - {node}
        stats.probes_sent += 2 * len(two_hop)

    for a, b in list(graph.edges()):
        if not graph.has_edge(a, b):
            continue  # removed earlier this round
        if graph.degree(a) <= min_degree or graph.degree(b) <= min_degree:
            continue
        d_ab = delay_of(a, b)
        common = set(graph.neighbors(a)) & set(graph.neighbors(b))
        if any(delay_of(a, c) + delay_of(c, b) < slack * d_ab for c in common):
            graph.remove_edge(a, b)
            cut += 1
            stats.links_cut += 1
            if add_replacements:
                # connect to the best source peer discovered while probing:
                # the closest 2-hop neighbour not yet a neighbour
                candidates = [
                    nn
                    for nb in graph.neighbors(a)
                    for nn in graph.neighbors(nb)
                    if nn != a and not graph.has_edge(a, nn)
                ]
                if candidates:
                    best = min(candidates, key=lambda c: delay_of(a, c))
                    if delay_of(a, best) < d_ab:
                        graph.add_edge(a, best)
                        stats.links_added += 1
    stats.rounds += 1
    return cut


def run_ltm(
    graph: nx.Graph,
    delay_of: Callable[[Hashable, Hashable], float],
    *,
    max_rounds: int = 10,
    min_degree: int = 2,
    slack: float = 1.0,
    add_replacements: bool = True,
) -> LTMStats:
    """Iterate LTM rounds until no link is cut (or ``max_rounds``)."""
    if max_rounds < 1:
        raise ReproError("max_rounds must be >= 1")
    stats = LTMStats()
    for _ in range(max_rounds):
        if (
            ltm_round(
                graph,
                delay_of,
                min_degree=min_degree,
                slack=slack,
                add_replacements=add_replacements,
                stats=stats,
            )
            == 0
        ):
            break
    return stats


def mean_neighbor_delay(
    graph: nx.Graph, delay_of: Callable[[Hashable, Hashable], float]
) -> float:
    """The quantity LTM minimises."""
    edges = list(graph.edges())
    if not edges:
        raise ReproError("graph has no edges")
    return float(np.mean([delay_of(a, b) for a, b in edges]))
