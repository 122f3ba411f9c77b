"""FIG3 — the collection taxonomy, measured.

Figure 3 classifies collection techniques per information type.  This
experiment runs every implemented technique against the *same* underlay
and reports, per technique, the two quantities the survey discusses
qualitatively: **accuracy** (technique-specific, normalised so higher is
better) and **overhead** (bytes on the wire per peer served) — turning
the taxonomy diagram into a measured trade-off table.
"""

from __future__ import annotations

import numpy as np

from repro.collection import (
    GPSService,
    IPToISPMapping,
    IPToLocationMapping,
    ISPOracle,
    PingService,
    SkyEyeOverlay,
    SyntheticCDN,
)
from repro.coords import VivaldiConfig, VivaldiSystem, evaluate_embedding
from repro.experiments.common import ExperimentResult
from repro.underlay.geometry import DEFAULT_EXTENT_KM
from repro.underlay.network import Underlay, UnderlayConfig


def run_fig3(n_hosts: int = 80, seed: int = 21) -> ExperimentResult:
    """Measure every Figure 3 collection technique on one underlay."""
    underlay = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=seed))
    ids = underlay.host_ids()
    result = ExperimentResult(
        "FIG3", "Collection techniques: measured accuracy vs overhead"
    )

    # --- ISP-location -----------------------------------------------------------
    mapping = IPToISPMapping(underlay, accuracy=0.95)
    acc = 1.0 - mapping.error_rate(ids)
    result.add_row(
        info="isp-location", method="ip-to-isp-mapping",
        accuracy=acc,
        overhead_bytes=mapping.overhead.bytes_on_wire / len(ids),
        overhead_unit="per peer",
    )

    oracle = ISPOracle(underlay)
    correct = 0
    for h in ids:
        ranked = oracle.rank(h, [x for x in ids if x != h])
        top_asn = underlay.asn_of(ranked[0])
        best_hops = min(
            underlay.routing.hops(underlay.asn_of(h), underlay.asn_of(x))
            for x in ids
            if x != h
        )
        if underlay.routing.hops(underlay.asn_of(h), top_asn) == best_hops:
            correct += 1
    result.add_row(
        info="isp-location", method="isp-component-in-network",
        accuracy=correct / len(ids),
        overhead_bytes=oracle.overhead.bytes_on_wire / len(ids),
        overhead_unit="per peer",
    )

    cdn = SyntheticCDN(underlay, n_edges=10, rng=seed)
    maps = {h.host_id: cdn.ratio_map(h, samples=24) for h in underlay.hosts}
    # accuracy: same-AS pairs judged close minus far pairs judged close
    same_hit = far_hit = same_n = far_n = 0
    hosts = underlay.hosts
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            sim_ab = cdn.cosine_similarity(maps[a.host_id], maps[b.host_id])
            close = sim_ab >= 0.9
            if a.asn == b.asn:
                same_n += 1
                same_hit += close
            elif underlay.topology.asys(a.asn).region != underlay.topology.asys(b.asn).region:
                far_n += 1
                far_hit += close
    cdn_acc = (same_hit / same_n if same_n else 0.0) - (far_hit / far_n if far_n else 0.0)
    result.add_row(
        info="isp-location", method="cdn-provided-information",
        accuracy=cdn_acc,
        overhead_bytes=cdn.overhead.bytes_on_wire / len(ids),
        overhead_unit="per peer",
    )

    # --- Latency -------------------------------------------------------------------
    # Both techniques are charged per *pair whose latency they can answer*:
    # explicit measurement answers only measured pairs (O(n^2) total cost),
    # prediction answers every pair from O(n) samples per node — the
    # survey's core trade-off.
    rtt = underlay.rtt_matrix()
    sample = min(25, n_hosts)
    ping = PingService(underlay, rng=seed)
    measured = ping.measure_matrix(ids[:sample], probes=3)
    rel_err = np.abs(measured - rtt[:sample, :sample])[np.triu_indices(sample, 1)]
    denom = rtt[:sample, :sample][np.triu_indices(sample, 1)]
    ping_acc = 1.0 - float(np.median(rel_err / np.maximum(denom, 1e-9)))
    pairs_measured = sample * (sample - 1) // 2
    result.add_row(
        info="latency", method="explicit-measurements",
        accuracy=ping_acc,
        overhead_bytes=ping.overhead.bytes_on_wire / pairs_measured,
        overhead_unit="per pair",
    )

    viv = VivaldiSystem(rtt, VivaldiConfig(dim=2, use_height=True), rng=seed)
    viv.run(rounds=15, neighbors_per_round=4)
    report = evaluate_embedding(viv.estimated_matrix(), rtt)
    # overhead: each sample is one ping exchange (2 packets à 64B), but
    # the resulting coordinates answer all C(n,2) pairs
    pairs_covered = n_hosts * (n_hosts - 1) // 2
    result.add_row(
        info="latency", method="prediction-methods",
        accuracy=1.0 - report.median_relative_error,
        overhead_bytes=viv.samples_used * 128 / pairs_covered,
        overhead_unit="per pair",
    )

    # --- Geolocation -----------------------------------------------------------------
    # GPS is metre-accurate but only covers peers with a fix; IP-to-location
    # covers everyone with 100+ km errors — accuracy and coverage reported
    # separately so the trade-off is visible.  Errors are normalised by the
    # side of the plane (the default ``TopologyConfig.extent_km``).
    gps = GPSService(underlay, availability=0.6)
    fixes = [gps.position_of(h) for h in ids]
    errs = [
        p.distance_to(underlay.host(h).position)
        for h, p in zip(ids, fixes)
        if p is not None
    ]
    result.add_row(
        info="geolocation", method="gps",
        accuracy=1.0 - float(np.median(errs)) / DEFAULT_EXTENT_KM,
        coverage=len(errs) / len(ids),
        overhead_bytes=0.0,
        overhead_unit="per peer",
    )

    ipl = IPToLocationMapping(underlay, error_km=150.0)
    med = ipl.median_error_km(ids)
    result.add_row(
        info="geolocation", method="ip-to-location-mapping",
        accuracy=1.0 - med / DEFAULT_EXTENT_KM,
        coverage=1.0,
        overhead_bytes=ipl.overhead.bytes_on_wire / len(ids),
        overhead_unit="per peer",
    )

    # --- Peer resources -----------------------------------------------------------------
    sky = SkyEyeOverlay(ids, branching=4, top_k=10)
    for h in underlay.hosts:
        sky.report(h.host_id, h.resources)
    sky.run_aggregation_round()
    true_top = {
        h.host_id
        for h in sorted(
            underlay.hosts, key=lambda x: x.resources.capacity_score(), reverse=True
        )[:10]
    }
    got = set(sky.top_capacity_peers(10))
    result.add_row(
        info="peer-resources", method="information-management-overlay",
        accuracy=len(got & true_top) / 10.0,
        overhead_bytes=sky.overhead.bytes_on_wire / len(ids),
        overhead_unit="per peer",
    )
    return result
