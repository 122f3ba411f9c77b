"""FIG5 — Gnutella with and without the oracle (Aggarwal et al. [1]).

Reproduces the two artefacts embedded in the survey's Figure 5:

1. the **message-count table** (Ping/Pong/Query/QueryHit for unbiased
   Gnutella vs oracle-biased with candidate-list sizes 100 and 1000) —
   expected shape: every row shrinks under bias, and the larger list
   shrinks it further;
2. the **overlay visualisation statistics** (intra-AS edge fraction and
   AS-modularity, i.e. the clustering visible in the plotted topologies);
3. the **file-exchange localisation** arms: intra-AS download fraction for
   unbiased, oracle-at-bootstrap, and oracle-at-both-stages — the
   6.5% → ~10% → ~40% progression of [1].

Absolute counts differ from the paper (their network had tens of
thousands of peers; ours is a few hundred) but the ratios are the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.collection.oracle import ISPOracle
from repro.experiments.common import ExperimentResult
from repro.metrics.locality import as_modularity, intra_as_edge_fraction
from repro.metrics.message_stats import gnutella_table_row
from repro.overlay.gnutella import GnutellaConfig, GnutellaNetwork, NeighborPolicy
from repro.sim.engine import Simulation
from repro.experiments.common import generate_underlay
from repro.underlay.network import UnderlayConfig
from repro.underlay.topology import TopologyConfig
from repro.workloads.content import CatalogConfig, ContentCatalog


@dataclass
class GnutellaArmResult:
    """Measured outputs of one Figure 5 arm."""
    name: str
    counts: dict[str, int]
    intra_edge_fraction: float
    modularity: float
    search_success: float
    intra_download_fraction: float
    downloads: int
    dot: str = ""  # Graphviz rendering of the overlay (the Figure 5 panel)


def _run_arm(
    *,
    name: str,
    policy: NeighborPolicy,
    oracle_list_limit: Optional[int],
    biased_download: bool,
    n_hosts: int,
    cache_fill: int,
    seed: int,
) -> GnutellaArmResult:
    underlay = generate_underlay(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=20, n_regions=5),
            n_hosts=n_hosts,
            seed=seed,
        )
    )
    sim = Simulation()
    bus, _acct = underlay.message_bus(sim)
    oracle = ISPOracle(underlay)
    net = GnutellaNetwork(
        underlay,
        sim,
        bus,
        config=GnutellaConfig(query_ttl=5, max_up_neighbors=6),
        policy=policy,
        oracle=oracle,
        oracle_list_limit=oracle_list_limit,
        biased_download=biased_download,
        rng=seed + 1,
    )
    net.add_population(underlay.hosts)
    net.bootstrap(cache_fill=cache_fill)
    net.join_all()
    sim.run()

    # locality-correlated interest (Rasti et al. [25]): users' queries tend
    # toward content shared in their own proximity
    catalog = ContentCatalog(
        CatalogConfig(n_files=max(40, n_hosts // 4), locality_bias=0.55),
        rng=seed + 2,
    )
    shared = catalog.assign_shared_content(underlay.hosts, files_per_host=6)
    for hid, files in shared.items():
        net.share_content(hid, files)
    net.ping_round()
    sim.run()

    guids = []
    for h in underlay.hosts:
        guids.append(net.search(h.host_id, catalog.draw_query(h.asn)))
    sim.run()
    for g in guids:
        net.download_stage(g)
    sim.run()

    dls = [
        rec
        for rec in net.searches.values()
        if rec.downloaded_from is not None
    ]
    intra_dl = sum(
        1
        for rec in dls
        if underlay.asn_of(rec.downloaded_from) == underlay.asn_of(rec.origin)
    )
    graph = net.overlay_graph()
    from repro.viz import dot_overlay

    return GnutellaArmResult(
        name=name,
        counts=gnutella_table_row(net.message_counts()),
        intra_edge_fraction=intra_as_edge_fraction(
            graph, underlay.asn_of
        ),
        modularity=as_modularity(graph, underlay.asn_of),
        search_success=net.search_success_rate(),
        intra_download_fraction=intra_dl / len(dls) if dls else 0.0,
        downloads=len(dls),
        dot=dot_overlay(
            graph, underlay.asn_of, role_of=net.role_of, title=name
        ),
    )


def run_fig5(
    n_hosts: int = 300,
    cache_fill: int = 250,
    seed: int = 11,
    dot_path_prefix: str | None = None,
) -> ExperimentResult:
    """The full Figure 5 reproduction: four arms over one underlay seed.

    With ``dot_path_prefix``, the unbiased and biased overlay panels of
    the paper's Figure 5 visualisation are written as Graphviz files.
    """
    arms = [
        ("unbiased", NeighborPolicy.UNBIASED, None, False),
        ("biased_cache_small", NeighborPolicy.BIASED, cache_fill // 5, False),
        ("biased_cache_large", NeighborPolicy.BIASED, cache_fill, False),
        ("biased_both_stages", NeighborPolicy.BIASED, cache_fill, True),
    ]
    result = ExperimentResult(
        "FIG5",
        "Gnutella message counts and localisation: unbiased vs oracle",
    )
    panels: dict[str, str] = {}
    for name, policy, limit, biased_dl in arms:
        arm = _run_arm(
            name=name,
            policy=policy,
            oracle_list_limit=limit,
            biased_download=biased_dl,
            n_hosts=n_hosts,
            cache_fill=cache_fill,
            seed=seed,
        )
        panels[name] = arm.dot
        result.add_row(
            arm=arm.name,
            **arm.counts,
            intra_edges=arm.intra_edge_fraction,
            modularity=arm.modularity,
            success=arm.search_success,
            intra_downloads=arm.intra_download_fraction,
        )
    result.notes.append(
        "paper table (x10^6): Ping 7.6/6.1/4.0, Pong 75.5/59.0/39.1, "
        "Query 6.3/4.0/2.3, QueryHit 3.5/2.9/1.9 for unbiased/cache100/cache1000"
    )
    result.notes.append(
        "paper localisation: intra-AS file exchange 6.5% unbiased, 7.3%/10.02% "
        "oracle at bootstrap, 40.57% oracle at both stages"
    )
    if dot_path_prefix is not None:
        for name in ("unbiased", "biased_cache_large"):
            path = f"{dot_path_prefix}_{name}.dot"
            with open(path, "w") as fh:
                fh.write(panels[name])
            result.notes.append(f"figure panel written: {path}")
    return result
