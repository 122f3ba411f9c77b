"""FIG6 — uniform random vs biased neighbor selection: topology shape.

Figure 6 contrasts (a) an AS-agnostic random overlay with (b) a
biased-selection overlay that clusters along AS boundaries while keeping
"a minimal number of inter-AS connections necessary to keep the network
connected".  The experiment builds both over the same underlay and
reports the locality summary plus the §5.4 resilience question: does
ISP clustering make the overlay fragile?
"""

from __future__ import annotations

from repro.collection.oracle import ISPOracle
from repro.experiments.common import ExperimentResult
from repro.metrics.locality import locality_summary
from repro.metrics.resilience import resilience_summary
from repro.overlay.gnutella import GnutellaConfig, GnutellaNetwork, NeighborPolicy
from repro.runner import run_arms
from repro.sim.engine import Simulation
from repro.underlay.network import Underlay, UnderlayConfig
from repro.underlay.topology import TopologyConfig


def _build_overlay(
    underlay: Underlay, policy: NeighborPolicy, seed: int, external_quota: int
):
    sim = Simulation()
    bus, _ = underlay.message_bus(sim, with_accounting=False)
    net = GnutellaNetwork(
        underlay,
        sim,
        bus,
        config=GnutellaConfig(max_up_neighbors=5),
        policy=policy,
        oracle=ISPOracle(underlay),
        oracle_list_limit=None,
        external_quota=external_quota,
        rng=seed,
    )
    net.add_population(underlay.hosts)
    net.bootstrap(cache_fill=len(underlay.hosts) - 1)
    net.join_all()
    sim.run()
    return net


def run_fig6(
    n_hosts: int = 120,
    seed: int = 17,
    *,
    removal_fraction: float = 0.2,
    dot_path_prefix: str | None = None,
    workers: int | None = None,
) -> ExperimentResult:
    """``dot_path_prefix`` additionally renders the two Figure 6 panels
    as Graphviz files (``<prefix>_uniform.dot`` / ``<prefix>_biased.dot``).
    The three policy arms fan out over :func:`repro.runner.run_arms`
    (``workers`` defaults to the process-wide runner setting; rows are
    identical at any worker count)."""
    underlay = Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=3, n_tier2=6, n_stub=12, n_regions=4),
            n_hosts=n_hosts,
            seed=seed,
        )
    )
    result = ExperimentResult(
        "FIG6", "Uniform random vs biased neighbor selection"
    )
    arms = [
        ("uniform_random", NeighborPolicy.UNBIASED, 1),
        ("biased", NeighborPolicy.BIASED, 1),
        ("biased_no_floor", NeighborPolicy.BIASED, 0),  # ablation: quota off
    ]

    def run_arm(arm: tuple) -> tuple:
        # workers inherit ``underlay`` via fork; each arm builds its own
        # sim/overlay on top of the shared read-only substrate
        name, policy, quota = arm
        net = _build_overlay(underlay, policy, seed + 1, quota)
        graph = net.overlay_graph()
        loc = locality_summary(graph, underlay.asn_of)
        res = resilience_summary(
            graph, underlay.asn_of, removal_fraction=removal_fraction, rng=seed
        )
        return graph, {"arm": name, **loc, **res}

    graphs = {}
    for (name, _policy, _quota), (graph, row) in zip(
        arms, run_arms(run_arm, arms, workers=workers)
    ):
        graphs[name] = graph
        result.add_row(**row)
    if dot_path_prefix is not None:
        from repro.viz import write_figure6_pair

        paths = write_figure6_pair(
            graphs["uniform_random"], graphs["biased"], underlay.asn_of,
            dot_path_prefix,
        )
        result.notes.append(f"figure panels written: {paths[0]}, {paths[1]}")
    result.notes.append(
        "expected shape: biased raises intra_as_edge_fraction and modularity "
        "while staying connected with few inter-AS edges; removing the "
        "external floor (ablation) raises partition risk"
    )
    return result
