"""ISP-friendly file sharing: biased neighbor selection in a BitTorrent
swarm, and what it does to the ISP's transit bill (§2.1, Figure 2, [3]).

Three tracker policies distribute the same torrent to the same peers:
random (vanilla), Bindal-style biased, and oracle-ranked.  For each we
report download times (the users' view) and transit traffic + the monthly
bill at sampled-peak pricing (the ISP's view).

Run:  python examples/isp_friendly_swarm.py
"""

from repro import Underlay, UnderlayConfig
from repro.collection import ISPOracle
from repro.overlay.bittorrent import (
    FlowSwarmSimulation,
    Torrent,
    Tracker,
    TrackerPolicy,
)
from repro.underlay import CostModel
from repro.underlay.topology import TopologyConfig


def run_swarm(underlay: Underlay, policy: TrackerPolicy):
    torrent = Torrent(torrent_id=1, n_pieces=96)  # ~24 MB file
    tracker = Tracker(
        underlay,
        policy=policy,
        peer_list_size=30,
        external_quota=2,
        oracle=ISPOracle(underlay) if policy is TrackerPolicy.ORACLE else None,
        rng=7,
    )
    swarm = FlowSwarmSimulation(underlay, torrent, tracker, rng=8)
    ids = underlay.host_ids()
    swarm.populate(leechers=ids[3:], seeds=ids[:3])
    report = swarm.run(max_time_s=2400.0)
    return swarm, report


def main() -> None:
    underlay = Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=15, n_regions=4),
            n_hosts=105,
            seed=11,
        )
    )
    cost = CostModel()
    print(f"{'policy':10s} {'done':>7s} {'median dl':>10s} "
          f"{'intra-AS':>9s} {'transit':>8s} {'ISP bill/mo':>12s}")
    baseline_bill = None
    for policy in (TrackerPolicy.RANDOM, TrackerPolicy.BIASED, TrackerPolicy.ORACLE):
        swarm, rep = run_swarm(underlay, policy)
        # bill the largest customer AS for its share of the swarm's transit
        # bytes, as if the run were a month's steady workload
        worst_as_bytes = max(swarm.paid_transit.values(), default=0.0)
        mbps = worst_as_bytes * 8.0 / 1e6 / max(rep.duration_s, 1.0)
        bill = cost.transit_monthly_cost(mbps * 100)  # scale to a real swarm
        if baseline_bill is None:
            baseline_bill = bill
        print(
            f"{policy.value:10s} {rep.completed:3d}/{rep.total_leechers:3d} "
            f"{rep.median_download_time_s:9.0f}s "
            f"{rep.intra_as_fraction:8.1%} {rep.transit_fraction:7.1%} "
            f"${bill:10,.0f} ({bill / baseline_bill:.0%} of random)"
        )
    print(
        f"\npeering becomes cheaper than transit above "
        f"{cost.crossover_mbps():,.0f} Mbps — locality pushes P2P bytes "
        f"onto links with zero marginal cost"
    )


if __name__ == "__main__":
    main()
