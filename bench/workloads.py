"""The four workload drivers: each replays one paper experiment's recipe
through the simulator's public API and returns what it simulated.

A driver takes ``(seed, size, phases)`` and returns an :class:`Outcome`.
``phases.span(name)`` times one step of the driver's own call sequence
(the always-on per-layer phase metrics).  Everything a driver reports is
a *model output* — deterministic for a seed, hashed into the workload's
``sim_digest`` — or an exact count read from the simulator's public
stats.  Host time is measured around the drivers, never by them.

This module imports the simulator, so only the benchmark's child
processes import it, before their clock starts: import time is set-up,
not workload.  Functions the tracer patches by module attribute
(``locality.as_modularity``) are called through their module so the
patched one is found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.collection.oracle import ISPOracle
from repro.faults import CrashFault, FaultInjector, FaultSchedule, LossFault
from repro.metrics import locality, message_stats
from repro.overlay.bittorrent import (
    FlowPlaneConfig,
    FlowSwarmSimulation,
    Torrent,
    Tracker,
    TrackerPolicy,
)
from repro.overlay.gnutella import GnutellaConfig, GnutellaNetwork, NeighborPolicy
from repro.service.arrivals import make_arrivals
from repro.service.bootstrap import Bootstrapper, ServiceConfig
from repro.service.load import OpenLoopDriver
from repro.sim.engine import Simulation
from repro.underlay.cost import CostModel
from repro.underlay.network import Underlay, UnderlayConfig
from repro.underlay.topology import TopologyConfig
from repro.workloads.content import CatalogConfig, ContentCatalog

#: name -> work unit, sizes of the measured run, sizes of --quick.  Why
#: each workload exists is recorded once, in BENCHMARK.json.
WORKLOADS: dict[str, dict[str, Any]] = {
    "gnutella_oracle_600": {
        "work_unit": "messages",
        "full": {"n_hosts": 600, "cache_fill": 250, "n_searches": 150},
        "quick": {"n_hosts": 48, "cache_fill": 24, "n_searches": 48},
    },
    "bt_locality_2000": {
        "work_unit": "completions",
        "full": {"n_hosts": 2000, "n_pieces": 16},
        "quick": {"n_hosts": 160, "n_pieces": 4},
    },
    "kad_service_256": {
        "work_unit": "ops",
        "full": {"n_hosts": 256, "rate_per_s": 100.0, "drive_ms": 24_000.0},
        "quick": {"n_hosts": 32, "rate_per_s": 20.0, "drive_ms": 4_000.0},
    },
    "kad_faults_256": {
        "work_unit": "ops",
        "full": {"n_hosts": 256, "rate_per_s": 100.0, "drive_ms": 72_000.0},
        "quick": {"n_hosts": 32, "rate_per_s": 20.0, "drive_ms": 6_000.0},
    },
}


@dataclass
class Outcome:
    """What one repetition simulated."""

    #: exact count of the workload's work unit (messages, completions, ops)
    work_units: int = 0
    #: operations a user of the modelled system attempted, and how many of
    #: those the *model* says did not succeed (a model output, not an error)
    attempted: int = 0
    sim_failed: int = 0
    #: result rows, hashed into ``sim_digest``
    rows: list[dict[str, Any]] = field(default_factory=list)
    #: exact counts read from public stats, keyed by per-layer metric name
    counts: dict[str, float] = field(default_factory=dict)
    #: output checks that did not hold
    violations: list[str] = field(default_factory=list)
    #: code paths the simulator resolved for this population
    backends: dict[str, str] = field(default_factory=dict)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _engine_counts(sim, bus) -> dict[str, float]:
    s = bus.stats
    return {
        "sim.engine.events": sim.events_processed,
        "sim.messages.sent": s.sent,
        "sim.messages.delivered": s.delivered,
        "sim.messages.dropped": (
            s.dropped_no_handler + s.dropped_loss + s.dropped_fault
        ),
    }


def _add(into: dict[str, float], more: dict[str, float]) -> None:
    for k, v in more.items():
        into[k] = into.get(k, 0) + v


# --------------------------------------------------------------- gnutella
def gnutella_oracle(seed: int, size: dict, phases) -> Outcome:
    """fig5 recipe, arms ``unbiased`` and ``biased_both_stages`` over one
    substrate: bootstrap/join, one ping round, searches, downloads.

    Ping rounds (PONG-heavy) and query floods use the flood kernel
    differently and are separate phases.  ``n_searches`` hosts (every
    fourth one at full size) search, which keeps a repetition short
    enough for the benchmark's run budget without shrinking the
    population below the batch-kernel threshold.
    """
    n_hosts, cache_fill = size["n_hosts"], size["cache_fill"]
    underlay = Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=20, n_regions=5),
            n_hosts=n_hosts,
            seed=seed,
        )
    )
    searchers = underlay.hosts[:: max(1, n_hosts // size["n_searches"])]

    out = Outcome(backends={"underlay.delay_backend": underlay.delay_backend})
    query_sends = query_dups = 0
    arms = (
        ("unbiased", NeighborPolicy.UNBIASED, None, False),
        ("biased_both_stages", NeighborPolicy.BIASED, cache_fill, True),
    )
    for arm, policy, list_limit, biased_download in arms:
        with phases.span("phase.overlay_build_s"):
            sim = Simulation()
            bus, accountant = underlay.message_bus(sim)
            net = GnutellaNetwork(
                underlay, sim, bus,
                config=GnutellaConfig(query_ttl=5, max_up_neighbors=6),
                policy=policy,
                oracle=ISPOracle(underlay),
                oracle_list_limit=list_limit,
                biased_download=biased_download,
                rng=seed + 1,
            )
            net.add_population(underlay.hosts)
            net.bootstrap(cache_fill=cache_fill)
        with phases.span("phase.join_s"):
            net.join_all()
            sim.run()
            catalog = ContentCatalog(
                CatalogConfig(n_files=max(40, n_hosts // 4), locality_bias=0.55),
                rng=seed + 2,
            )
            shared = catalog.assign_shared_content(underlay.hosts, files_per_host=6)
            for hid, files in shared.items():
                net.share_content(hid, files)
        with phases.span("phase.ping_round_s"):
            net.ping_round()
            sim.run()
        dups_before = net.drop_counts["duplicate"]
        with phases.span("phase.search_s"):
            guids = [
                net.search(h.host_id, catalog.draw_query(h.asn)) for h in searchers
            ]
            sim.run()
        with phases.span("phase.download_s"):
            for g in guids:
                net.download_stage(g)
            sim.run()
        with phases.span("phase.summary_s"):
            counts = net.message_counts()
            table = message_stats.gnutella_table_row(counts)
            graph = net.overlay_graph()
            downloads = [
                r for r in net.searches.values() if r.downloaded_from is not None
            ]
            intra_downloads = sum(
                1 for r in downloads
                if underlay.asn_of(r.downloaded_from) == underlay.asn_of(r.origin)
            )
            hits = sum(1 for r in net.searches.values() if r.hits)
            row = {
                "arm": arm,
                **table,
                "dropped_duplicate": counts["dropped_duplicate"],
                "dropped_ttl": counts["dropped_ttl"],
                "intra_edges": locality.intra_as_edge_fraction(graph, underlay.asn_of),
                "modularity": locality.as_modularity(graph, underlay.asn_of),
                "searches": len(net.searches),
                "searches_hit": hits,
                "downloads": len(downloads),
                "intra_downloads": intra_downloads,
                "intra_as_bytes": accountant.summary.intra_as_bytes,
                "peering_bytes": accountant.summary.peering_bytes,
                "transit_bytes": accountant.summary.transit_bytes,
                "sim_end_ms": sim.now,
                "events": sim.events_processed,
            }
        out.rows.append(row)
        out.work_units += bus.stats.sent
        out.attempted += len(net.searches)
        out.sim_failed += len(net.searches) - hits
        _add(out.counts, _engine_counts(sim, bus))
        _add(out.counts, {
            "underlay.traffic.observed": accountant.summary.messages,
            "overlay.gnutella.flood.sends": (
                sum(table.values()) if net.query_plane_active() else 0
            ),
            "overlay.gnutella.dropped_duplicate": counts["dropped_duplicate"],
            "overlay.gnutella.dropped_ttl": counts["dropped_ttl"],
        })
        query_sends += table["QUERY"]
        query_dups += net.drop_counts["duplicate"] - dups_before
        out.backends[f"gnutella.flood_path.{arm}"] = (
            "batch" if net.query_plane_active() else "per-message"
        )
        if accountant.summary.messages != bus.stats.sent:
            out.violations.append(
                f"{arm}: accountant saw {accountant.summary.messages} of "
                f"{bus.stats.sent} sent messages"
            )
        if any(v <= 0 for v in table.values()):
            out.violations.append(f"{arm}: a message kind has no sends: {table}")
        if table["QUERYHIT"] > table["QUERY"]:
            out.violations.append(f"{arm}: QUERYHIT {table['QUERYHIT']} > QUERY {table['QUERY']}")

    out.counts["overlay.gnutella.flood.duplicate_ratio"] = _ratio(query_dups, query_sends)
    if underlay.delay_backend == "stream":
        memo = underlay.delay_kernel.memo_info()
        out.counts["underlay.latency.memo_hit_ratio"] = _ratio(
            memo.hits, memo.hits + memo.misses
        )
    unbiased, biased = out.rows
    if not biased["intra_edges"] > unbiased["intra_edges"]:
        out.violations.append(
            f"oracle did not localise the overlay: intra_edges "
            f"{biased['intra_edges']:.4f} <= {unbiased['intra_edges']:.4f}"
        )
    return out


# ------------------------------------------------------------- bittorrent
def bt_locality(seed: int, size: dict, phases) -> Outcome:
    """LOCALITY smoke recipe on the flow plane: one swarm per tracker
    bias (0.0 random, 0.8 Bindal-style) over one substrate."""
    peer_list_size, n_seeds = 35, 5
    underlay = Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=16, n_regions=4),
            n_hosts=size["n_hosts"],
            seed=seed,
        )
    )
    torrent = Torrent(0, n_pieces=size["n_pieces"], piece_size_bytes=262144)
    # a publisher sits on a fat pipe: seed from the fastest uplinks, or
    # every arm measures the seed bottleneck
    ids = underlay.host_ids()
    seeds = sorted(
        ids, key=lambda h: -underlay.host(h).resources.bandwidth_up_kbps
    )[:n_seeds]
    leechers = [h for h in ids if h not in seeds]

    out = Outcome(backends={"underlay.delay_backend": underlay.delay_backend})
    for bias in (0.0, 0.8):
        with phases.span("phase.tracker_populate_s"):
            if bias <= 0.0:
                tracker = Tracker(underlay, peer_list_size=peer_list_size, rng=seed + 1)
            else:
                tracker = Tracker(
                    underlay,
                    policy=TrackerPolicy.BIASED,
                    peer_list_size=peer_list_size,
                    external_quota=max(1, round((1.0 - bias) * peer_list_size)),
                    rng=seed + 1,
                )
            swarm = FlowSwarmSimulation(
                underlay, torrent, tracker,
                flow_config=FlowPlaneConfig(), rng=seed + 2,
            )
            swarm.populate(leechers, seeds, arrival_span_s=120.0)
        with phases.span("phase.swarm_run_s"):
            report = swarm.run(max_time_s=7200.0)
        with phases.span("phase.billing_s"):
            tiers = swarm.billing.bills_by_tier(CostModel(), underlay.topology)
            stub = tiers.get("stub", {"total_usd": 0.0, "transit_bytes": 0.0})
            by_as = swarm.download_times_by_as()
            row = {
                "bias": bias,
                "completed": report.completed,
                "leechers": report.total_leechers,
                "median_download_s": report.median_download_time_s,
                "mean_download_s": report.mean_download_time_s,
                "worst_as_median_s": max(
                    (float(np.median(ts)) for ts in by_as.values()), default=0.0
                ),
                "intra_as_fraction": report.intra_as_fraction,
                "transit_fraction": report.transit_fraction,
                "transit_bytes": report.transit_bytes,
                "stub_transit_bill_usd": stub["total_usd"],
                "reallocs": swarm.reallocs_total,
                "events": swarm.engine.events_processed,
            }
        out.rows.append(row)
        out.work_units += report.completed
        out.attempted += report.total_leechers
        out.sim_failed += report.total_leechers - report.completed
        _add(out.counts, {
            "sim.engine.events": swarm.engine.events_processed,
            "overlay.bittorrent.tracker.announces": tracker.announces,
            "sim.flows.reallocs": swarm.reallocs_total,
        })
        if report.completion_rate < 0.99:
            out.violations.append(
                f"bias {bias}: completion rate {report.completion_rate:.4f} < 0.99"
            )
        if report.intra_as_fraction + report.transit_fraction > 1.0 + 1e-9:
            out.violations.append(f"bias {bias}: intra + transit fractions exceed 1")
    random_arm, biased_arm = out.rows
    if not biased_arm["transit_fraction"] < random_arm["transit_fraction"]:
        out.violations.append(
            "locality bias did not cut transit: "
            f"{biased_arm['transit_fraction']:.4f} >= {random_arm['transit_fraction']:.4f}"
        )
    return out


# --------------------------------------------------------------- kademlia
def _kad_service(seed: int, n_hosts: int, phases):
    boot = Bootstrapper(ServiceConfig("kademlia", n_hosts=n_hosts, seed=seed))
    with phases.span("phase.service_build_s"):
        boot.build()  # generates its own substrate (excluded from the span)
    return boot


def _drive(boot, mix, k: int, size: dict, phases, phase: str, out: Outcome):
    """One open-loop Poisson drive on the sim clock: arrivals are
    scheduled regardless of completions, 20 s op timeout, 30 s drain."""
    drive_seed = boot.config.seed + 1000 * k
    driver = OpenLoopDriver(
        boot.sim,
        mix,
        make_arrivals("poisson", size["rate_per_s"], rng=drive_seed),
        duration_ms=size["drive_ms"],
        timeout_ms=20_000.0,
        rng=drive_seed + 1,
    )
    with phases.span(phase):
        report = driver.run(drain_ms=30_000.0)
    rep = report.as_dict()
    out.rows.append({"drive": phase, **rep})
    out.work_units += report.offered
    out.attempted += report.offered
    out.sim_failed += report.offered - report.succeeded
    _add(out.counts, {
        "service.load.offered": report.offered,
        "service.load.timed_out": report.timed_out,
    })
    accounted = (
        report.succeeded + report.failed + report.timed_out + report.unfinished
    )
    if accounted != report.offered:
        out.violations.append(
            f"{phase}: {report.offered} ops offered but {accounted} reached "
            "a terminal state"
        )
    return report


def _kad_finish(boot, out: Outcome) -> Outcome:
    boot.stop_sync()
    nodes = boot.network.nodes.values()
    issued = sum(n.requests.stats.issued for n in nodes)
    retried = sum(n.requests.stats.retried for n in nodes)
    _add(out.counts, _engine_counts(boot.sim, boot.network.bus))
    _add(out.counts, {
        "sim.requests.retried": retried,
        "sim.requests.failed": sum(n.requests.stats.failed for n in nodes),
    })
    out.counts["sim.requests.retry_ratio"] = _ratio(retried, issued)
    out.rows.append({"sim_end_ms": boot.sim.now, "events": boot.sim.events_processed})
    out.backends["underlay.delay_backend"] = boot.underlay.delay_backend
    return out


def kad_service(seed: int, size: dict, phases) -> Outcome:
    """Retrieve-only, store-only, then mixed (30% store) drives on one
    population: writes beside reads, so a gain for one that costs the
    other shows."""
    boot = _kad_service(seed, size["n_hosts"], phases)
    out = Outcome()
    ops = boot.ops
    _drive(boot, [ops.retrieve_spec()], 1, size, phases, "phase.drive_retrieve_s", out)
    _drive(boot, [ops.store_spec()], 2, size, phases, "phase.drive_store_s", out)
    _drive(boot, ops.mix(store_fraction=0.3), 3, size, phases, "phase.drive_mixed_s", out)
    return _kad_finish(boot, out)


def kad_faults(seed: int, size: dict, phases) -> Outcome:
    """One default-mix drive under 15% loss for the whole window and a
    crash of 20% of the peers at +5 s that recovers at +50 s."""
    boot = _kad_service(seed, size["n_hosts"], phases)
    out = Outcome()
    net, sim = boot.network, boot.sim
    window = size["drive_ms"]
    t0 = sim.now
    ids = sorted(net.nodes)
    rng = np.random.default_rng(seed + 5)
    crashed = tuple(
        ids[int(i)]
        for i in sorted(rng.choice(len(ids), size=len(ids) // 5, replace=False))
    )
    injector = FaultInjector(
        sim,
        net.bus,
        FaultSchedule((
            LossFault(start=t0, end=t0 + window, rate=0.15),
            CrashFault(
                at=t0 + window / 18, peers=crashed, recover_at=t0 + window * 5 / 9
            ),
        )),
        asn_of=boot.underlay.asn_of,
        on_crash=lambda hid: net.nodes[hid].go_offline(),
        on_recover=lambda hid: net.nodes[hid].go_online(),
        seed=seed + 7,
    )
    injector.start()
    _drive(boot, boot.default_mix(), 1, size, phases, "phase.drive_faulted_s", out)
    _add(out.counts, {
        "faults.injector.dropped": injector.stats.messages_dropped,
        "faults.injector.crashes": injector.stats.crashes,
    })
    if injector.stats.crashes != len(crashed):
        out.violations.append(
            f"{injector.stats.crashes} of {len(crashed)} scheduled crashes fired"
        )
    return _kad_finish(boot, out)


DRIVERS: dict[str, Callable[[int, dict, Any], Outcome]] = {
    "gnutella_oracle_600": gnutella_oracle,
    "bt_locality_2000": bt_locality,
    "kad_service_256": kad_service,
    "kad_faults_256": kad_faults,
}
