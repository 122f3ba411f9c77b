"""FRAMEWORK — the §7 claim, measured: a general architecture in which
*different underlay information can be collected and used together*.

One overlay-construction task (pick k neighbours per peer), five ways:
underlay-oblivious, each single information type through the framework,
and the composite QoS profiles that blend them.  Every arm is scored on
the axes the paper's Table 2 uses — neighbour RTT (delay), intra-AS edge
fraction (ISP costs), neighbour session time (stability) — plus the
collection overhead actually spent.

The composite profiles should dominate their single-information
components on the blend of axes they weight — that is what the framework
buys over any single technique.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.collection import GPSService, ISPOracle, SkyEyeOverlay
from repro.core import (
    BUILTIN_PROFILES,
    FILE_SHARING,
    REAL_TIME,
    UnderlayAwarenessFramework,
)
from repro.core.qos import QoSProfile
from repro.collection.base import UnderlayInfoType
from repro.experiments.common import ExperimentResult
from repro.rng import ensure_rng
from repro.underlay.network import Underlay, UnderlayConfig
from repro.underlay.topology import TopologyConfig


def _score_graph(underlay: Underlay, graph: nx.Graph) -> dict[str, float]:
    edges = list(graph.edges())
    rtts = [2.0 * underlay.one_way_delay(a, b) for a, b in edges]
    same = sum(
        1 for a, b in edges if underlay.asn_of(a) == underlay.asn_of(b)
    )
    sessions = [
        underlay.host(b).resources.avg_online_hours for _a, b in edges
    ] + [underlay.host(a).resources.avg_online_hours for a, _b in edges]
    return {
        "neighbor_rtt_ms": float(np.mean(rtts)),
        "intra_as_edges": same / len(edges),
        "neighbor_session_h": float(np.mean(sessions)),
    }


def run_framework_composite(
    n_hosts: int = 150, seed: int = 37, k: int = 5, pool: int = 30
) -> ExperimentResult:
    """Run the FRAMEWORK experiment; returns one row per selection arm."""
    underlay = Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=16, n_regions=4),
            n_hosts=n_hosts,
            seed=seed,
        )
    )
    fw = UnderlayAwarenessFramework(underlay)
    fw.use_oracle(ISPOracle(underlay))
    fw.use_true_latency()
    fw.use_gps(GPSService(underlay, availability=1.0))
    sky = SkyEyeOverlay(underlay.host_ids())
    for h in underlay.hosts:
        sky.report(h.host_id, h.resources)
    sky.run_aggregation_round()
    fw.use_skyeye(sky)

    single = {
        f"only:{info.value}": QoSProfile(f"only-{info.value}", {info: 1.0})
        for info in UnderlayInfoType
    }
    arms: dict[str, object] = {"random": None}
    arms.update(single)
    arms.update({f"profile:{p.name}": p for p in BUILTIN_PROFILES})

    rng = ensure_rng(seed + 1)
    ids = underlay.host_ids()
    result = ExperimentResult(
        "FRAMEWORK", "Composite profiles vs single-information selection"
    )
    for name, profile in arms.items():
        g = nx.Graph()
        g.add_nodes_from(ids)
        arm_rng = ensure_rng(seed + 2)  # identical candidate draws per arm
        for h in ids:
            others = [x for x in ids if x != h]
            picks = arm_rng.choice(len(others), size=pool, replace=False)
            candidates = [others[int(i)] for i in picks]
            if profile is None:
                chosen = fw.baseline_selector(rng).select(h, candidates, k)
            else:
                chosen = fw.select_neighbors(h, candidates, k, profile)
            for nb in chosen:
                g.add_edge(h, nb)
        result.add_row(arm=name, **_score_graph(underlay, g))
    result.notes.append(
        f"collection overhead spent: {fw.total_overhead_bytes()} bytes "
        f"across {len(fw.overhead_report())} services"
    )
    return result
