"""TAB1 — the catalogue of underlay-aware systems, exercised.

Table 1 lists the prominent systems per information type.  This
experiment instantiates 11 of them on a common small underlay and
reports each system's headline metric.  Each row names the Table 1
entries it covers by their references; the registry
(:mod:`repro.core.taxonomy`) holds the table itself and supplies only
the entry count noted here.
"""

from __future__ import annotations

import numpy as np

from repro.collection import ISPOracle, SkyEyeOverlay, SyntheticCDN
from repro.coords import (
    GNPConfig,
    GNPSystem,
    ICS,
    ICSConfig,
    VivaldiConfig,
    VivaldiSystem,
    evaluate_embedding,
)
from repro.core.taxonomy import TABLE1_SYSTEMS
from repro.experiments.common import ExperimentResult
from repro.overlay.bittorrent import FlowSwarmSimulation, Torrent, Tracker, TrackerPolicy
from repro.overlay.geo import GlobaseOverlay
from repro.overlay.kademlia import KademliaConfig, KademliaNetwork
from repro.overlay.superpeer import ElectionPolicy, SuperPeerOverlay
from repro.sim.engine import Simulation
from repro.underlay.network import Underlay, UnderlayConfig


def run_table1(n_hosts: int = 80, seed: int = 23) -> ExperimentResult:
    """Measure 11 Table 1 systems; returns their headline metrics."""
    underlay = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=seed))
    ids = underlay.host_ids()
    rtt = underlay.rtt_matrix()
    result = ExperimentResult(
        "TAB1", "Representative underlay-aware systems on one underlay"
    )

    # --- ISP-location representatives -----------------------------------------
    oracle = ISPOracle(underlay)
    ranked = oracle.rank(ids[0], ids[1:])
    top_hops = underlay.routing.hops(
        underlay.asn_of(ids[0]), underlay.asn_of(ranked[0])
    )
    result.add_row(
        system="Oracle [1]", info="isp-location",
        metric="AS hops of top-ranked candidate", value=float(top_hops),
    )

    torrent = Torrent(0, n_pieces=48)
    reports = {}
    for policy in (TrackerPolicy.RANDOM, TrackerPolicy.BIASED):
        tracker = Tracker(underlay, policy=policy, rng=seed)
        swarm = FlowSwarmSimulation(underlay, torrent, tracker, rng=seed + 1)
        swarm.populate(leechers=ids[2:50], seeds=ids[:2])
        reports[policy] = swarm.run(max_time_s=1200)
    bns_gain = (
        reports[TrackerPolicy.RANDOM].transit_fraction
        - reports[TrackerPolicy.BIASED].transit_fraction
    )
    result.add_row(
        system="BNS [3]", info="isp-location",
        metric="transit-traffic fraction cut vs random tracker",
        value=float(bns_gain),
    )

    cdn = SyntheticCDN(underlay, n_edges=10, rng=seed)
    hosts = underlay.hosts[:40]
    maps = {h.host_id: cdn.ratio_map(h, samples=20) for h in hosts}
    same, diff = [], []
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            s = cdn.cosine_similarity(maps[a.host_id], maps[b.host_id])
            (same if a.asn == b.asn else diff).append(s)
    result.add_row(
        system="Ono [5]", info="isp-location",
        metric="ratio-map similarity gap (same-AS minus other)",
        value=float(np.mean(same) - np.mean(diff)) if same and diff else 0.0,
    )

    # --- Latency representatives --------------------------------------------------
    viv = VivaldiSystem(rtt, VivaldiConfig(dim=3, use_height=True), rng=seed)
    viv.run(rounds=30, neighbors_per_round=8)
    rep = evaluate_embedding(viv.estimated_matrix(), rtt)
    result.add_row(
        system="Vivaldi [7]", info="latency",
        metric="median relative embedding error", value=rep.median_relative_error,
    )

    nb = 10
    ics = ICS(rtt[:nb, :nb], ICSConfig(variance_threshold=0.95))
    coords = ics.host_coordinates(rtt[:, :nb])
    diffm = coords[:, None, :] - coords[None, :, :]
    pred = np.sqrt(np.einsum("ijk,ijk->ij", diffm, diffm))
    np.fill_diagonal(pred, 0.0)
    rep = evaluate_embedding(pred, rtt)
    result.add_row(
        system="ICS [20]", info="latency",
        metric="median relative embedding error", value=rep.median_relative_error,
    )

    gnp = GNPSystem(rtt[:nb, :nb], GNPConfig(dim=3), seed=seed)
    rep = evaluate_embedding(gnp.estimated_matrix(), rtt[:nb, :nb])
    result.add_row(
        system="GNP/landmarks [26]", info="latency",
        metric="in-sample landmark fit error",
        value=rep.median_relative_error,
    )

    pns_rtts = {}
    for pns in (False, True):
        sim = Simulation()
        bus, _ = underlay.message_bus(sim, with_accounting=False)
        net = KademliaNetwork(
            underlay, sim, bus,
            config=KademliaConfig(proximity_buckets=pns), rng=seed,
        )
        net.add_all_hosts()
        net.bootstrap_all()
        sim.run(until=120_000)
        net.run_value_workload(20, 60)
        pns_rtts[pns] = net.mean_contact_rtt()
    result.add_row(
        system="Proximity in Kademlia [17][4]", info="latency",
        metric="routing-table contact RTT cut by PNS",
        value=float(1.0 - pns_rtts[True] / pns_rtts[False]),
    )

    # --- Geolocation representative ---------------------------------------------------
    geo = GlobaseOverlay(underlay, zone_capacity=6)
    geo.join_all()
    rnd = np.random.default_rng(seed)
    rand_pairs = rnd.choice(n_hosts, size=(100, 2))
    rand_dist = float(np.mean([
        underlay.hosts[a].position.distance_to(underlay.hosts[b].position)
        for a, b in rand_pairs if a != b
    ]))
    result.add_row(
        system="Globase.KOM [19]", info="geolocation",
        metric="zone co-member distance / random-pair distance (km ratio)",
        value=geo.geographic_neighbor_coherence() / rand_dist,
    )

    # --- Peer resources representatives --------------------------------------------------
    sky = SkyEyeOverlay(ids, branching=4, top_k=10)
    for h in underlay.hosts:
        sky.report(h.host_id, h.resources)
    sky.run_aggregation_round()
    true_top = {
        h.host_id
        for h in sorted(underlay.hosts,
                        key=lambda x: x.resources.capacity_score(), reverse=True)[:10]
    }
    result.add_row(
        system="SkyEye.KOM [11]", info="peer-resources",
        metric="top-10 capacity recall at the root",
        value=len(set(sky.top_capacity_peers(10)) & true_top) / 10.0,
    )

    sessions = {}
    for pol in (ElectionPolicy.RANDOM, ElectionPolicy.CAPACITY):
        sp = SuperPeerOverlay(underlay, policy=pol, superpeer_fraction=0.15, rng=seed)
        sp.elect()
        sp.attach_leaves()
        sessions[pol] = sp.report().mean_superpeer_session_h
    result.add_row(
        system="Bandwidth/capacity-aware roles [6][11]", info="peer-resources",
        metric="super-peer session-time gain vs random election",
        value=float(sessions[ElectionPolicy.CAPACITY] / sessions[ElectionPolicy.RANDOM] - 1.0),
    )

    # bandwidth-aware chunk scheduling in a capacity-tight P2P-TV swarm
    from repro.overlay.streaming import (
        SchedulerPolicy,
        StreamConfig,
        StreamingSwarm,
    )

    src = max(
        underlay.hosts, key=lambda h: h.resources.bandwidth_up_kbps
    ).host_id
    viewers = [i for i in ids if i != src][:50]
    continuity = {}
    for policy in (SchedulerPolicy.RANDOM, SchedulerPolicy.BANDWIDTH_AWARE):
        swarm = StreamingSwarm(
            underlay, src, viewers,
            config=StreamConfig(bitrate_kbps=1800.0, source_copies=3),
            policy=policy, rng=seed,
        )
        continuity[policy] = swarm.run(100).mean_continuity
    result.add_row(
        system="Bandwidth-aware P2P-TV [6]", info="peer-resources",
        metric="playback-continuity gain over random scheduling",
        value=float(
            continuity[SchedulerPolicy.BANDWIDTH_AWARE]
            - continuity[SchedulerPolicy.RANDOM]
        ),
    )

    result.notes.append(
        f"registry covers {len(TABLE1_SYSTEMS)} surveyed systems; "
        "each row's references name the entries it measures"
    )
    return result
