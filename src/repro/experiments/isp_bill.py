"""ISPBILL — end-to-end ISP economics of an overlay workload.

Connects the whole pipeline the paper argues through: a P2P workload
runs over the underlay (Gnutella searches + HTTP downloads), the traffic
accountant samples every transit link in five-minute buckets, and the
cost model bills each local ISP at the 95th-percentile sampled peak —
then the same workload runs with the oracle switched on.

This is the quantitative form of §2.1/§5.2: "the shift of traffic from
transit to peering links due to locality of traffic means that increased
P2P traffic does not inflict any additional costs on the ISP."
"""

from __future__ import annotations

import numpy as np

from repro.collection.oracle import ISPOracle
from repro.experiments.common import ExperimentResult
from repro.overlay.gnutella import GnutellaConfig, GnutellaNetwork, NeighborPolicy
from repro.sim.engine import Simulation
from repro.underlay.autonomous_system import Tier
from repro.underlay.cost import CostModel
from repro.underlay.network import Underlay, UnderlayConfig
from repro.underlay.topology import TopologyConfig
from repro.workloads.content import CatalogConfig, ContentCatalog


def _run_workload(policy: NeighborPolicy, biased_download: bool,
                  n_hosts: int, seed: int):
    underlay = Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=3, n_tier2=6, n_stub=12, n_regions=4),
            n_hosts=n_hosts,
            seed=seed,
        )
    )
    sim = Simulation()
    bus, acct = underlay.message_bus(sim)
    net = GnutellaNetwork(
        underlay, sim, bus,
        config=GnutellaConfig(query_ttl=5),
        policy=policy, oracle=ISPOracle(underlay),
        biased_download=biased_download, rng=seed + 1,
    )
    net.add_population(underlay.hosts)
    net.bootstrap(cache_fill=n_hosts - 1)
    net.join_all()
    sim.run()
    catalog = ContentCatalog(
        CatalogConfig(n_files=60, locality_bias=0.5), rng=seed + 2
    )
    for hid, files in catalog.assign_shared_content(
        underlay.hosts, files_per_host=6
    ).items():
        net.share_content(hid, files)
    sim.run()
    # a month's worth of downloads compressed: spread searches over many
    # billing buckets so percentile billing has samples to chew on
    rng = np.random.default_rng(seed + 3)
    for h in underlay.hosts:
        delay = float(rng.uniform(0, 3_000_000.0))  # within ~50 min of sim time
        sim.schedule(delay, _search_and_fetch, net, h.host_id,
                     catalog.draw_query(h.asn))
    sim.run()
    return underlay, acct


def _search_and_fetch(net: GnutellaNetwork, origin: int, keyword: int) -> None:
    guid = net.search(origin, keyword)

    def fetch() -> None:
        net.download_stage(guid, file_size_bytes=4_000_000)

    net.sim.schedule(5_000.0, fetch)


def run_isp_bill(n_hosts: int = 150, seed: int = 19) -> ExperimentResult:
    """Run the ISPBILL experiment; returns per-arm billing rows."""
    model = CostModel()
    result = ExperimentResult(
        "ISPBILL", "Per-ISP transit bills: unbiased vs oracle-biased workload"
    )
    arms = [
        ("unbiased", NeighborPolicy.UNBIASED, False),
        ("biased_both_stages", NeighborPolicy.BIASED, True),
    ]
    for name, policy, biased_dl in arms:
        underlay, acct = _run_workload(policy, biased_dl, n_hosts, seed)
        stubs = [a.asn for a in underlay.topology.ases if a.tier is Tier.STUB]
        bills = []
        for stub in stubs:
            links = [
                (min(stub, p), max(stub, p))
                for p in underlay.topology.asys(stub).providers
            ]
            peak = sum(acct.peak_transit_mbps(l) for l in links)
            bills.append(model.transit_monthly_cost(peak))
        result.add_row(
            arm=name,
            total_transit_mb=acct.summary.transit_bytes / 1e6,
            intra_as_fraction=acct.summary.intra_as_fraction,
            mean_stub_bill_usd=float(np.mean(bills)),
            max_stub_bill_usd=float(np.max(bills)),
        )
    u, b = result.rows
    if u["mean_stub_bill_usd"] > 0:
        result.notes.append(
            f"oracle cuts the mean local-ISP transit bill by "
            f"{1 - b['mean_stub_bill_usd'] / u['mean_stub_bill_usd']:.0%}"
        )
    return result
