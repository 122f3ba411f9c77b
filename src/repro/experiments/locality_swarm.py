"""LOCALITY — thousand-peer BitTorrent locality sweep on the flow plane.

Sweeps the tracker's locality bias over a large single-torrent swarm and
reports, per bias level, the two sides of the locality trade-off the
paper argues through (§2.1, §5.2) and that Cuevas et al. (*Deep Diving
into BitTorrent Locality*) quantified at scale:

- **users** — median/mean download time and completion rate;
- **ISPs** — transit byte fraction and the per-tier monthly transit
  bills from 95th-percentile sampled-peak accounting
  (:class:`~repro.underlay.cost.TransitBillingLedger`).

The expected shape is Cuevas' two regimes: moderate bias is *win-win*
(transit bills fall, download times hold — the swarm still has enough
external capacity), while pushing bias toward 1 starves small-AS peers
of external capacity and download times degrade even as bills keep
falling (the ISP-unfairness regime).

Bias ``b`` maps onto the Bindal-style tracker: ``b = 0`` is the plain
``RANDOM`` policy; ``b > 0`` uses ``BIASED`` with
``external_quota = max(1, round((1 - b) * peer_list_size))``, so ``b``
is the target fraction of same-AS entries in each announce response.

The swarm runs on the flow-level data plane
(:class:`~repro.overlay.bittorrent.FlowSwarmSimulation`), which is what
makes thousand-peer sweeps tractable; ``smoke=True`` keeps the
2000-peer population but trims the torrent and the bias grid to
CI size.  Arms fan out over :func:`repro.runner.run_arms`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.overlay.bittorrent import (
    FlowPlaneConfig,
    FlowSwarmSimulation,
    Torrent,
    Tracker,
    TrackerPolicy,
)
from repro.runner import run_arms
from repro.underlay.cost import CostModel
from repro.underlay.network import Underlay, UnderlayConfig
from repro.underlay.topology import TopologyConfig

#: default bias grid: random, mild, Bindal-ish, near-total (one external
#: announce entry — the quota floor that keeps the swarm connected)
DEFAULT_BIASES = (0.0, 0.5, 0.8, 0.97)


def _provisioned_seeds(underlay: Underlay, n_seeds: int) -> list[int]:
    """The ``n_seeds`` fastest-uplink hosts.  Initial seeds gate content
    injection, so a locality sweep seeds from well-provisioned hosts
    (mirroring a publisher on a fat pipe) rather than random DSL lines —
    otherwise every arm just measures the seed bottleneck."""
    ids = underlay.host_ids()
    return sorted(
        ids,
        key=lambda h: -underlay.host(h).resources.bandwidth_up_kbps,
    )[:n_seeds]


def _run_arm(
    underlay: Underlay,
    bias: float,
    torrent: Torrent,
    *,
    peer_list_size: int,
    n_seeds: int,
    arrival_span_s: float,
    max_time_s: float,
    seed: int,
) -> dict:
    if bias <= 0.0:
        tracker = Tracker(
            underlay, peer_list_size=peer_list_size, rng=seed + 1
        )
    else:
        quota = max(1, round((1.0 - bias) * peer_list_size))
        tracker = Tracker(
            underlay,
            policy=TrackerPolicy.BIASED,
            peer_list_size=peer_list_size,
            external_quota=quota,
            rng=seed + 1,
        )
    swarm = FlowSwarmSimulation(
        underlay,
        torrent,
        tracker,
        flow_config=FlowPlaneConfig(),
        rng=seed + 2,
    )
    seeds = _provisioned_seeds(underlay, n_seeds)
    leechers = [h for h in underlay.host_ids() if h not in seeds]
    swarm.populate(leechers, seeds, arrival_span_s=arrival_span_s)
    report = swarm.run(max_time_s=max_time_s)

    model = CostModel()
    tiers = swarm.billing.bills_by_tier(model, underlay.topology)
    stub = tiers.get("stub", {"total_usd": 0.0, "mean_usd": 0.0})
    by_as = swarm.download_times_by_as()
    worst_as_median = max(
        (float(np.median(ts)) for ts in by_as.values()), default=float("nan")
    )
    return {
        "bias": bias,
        "completion_rate": round(report.completion_rate, 4),
        "median_download_s": round(report.median_download_time_s, 1),
        "mean_download_s": round(report.mean_download_time_s, 1),
        "worst_as_median_s": round(worst_as_median, 1),
        "intra_as_fraction": round(report.intra_as_fraction, 4),
        "transit_fraction": round(report.transit_fraction, 4),
        "transit_gb": round(report.transit_bytes / 1e9, 3),
        "stub_transit_bill_usd": round(stub["total_usd"], 2),
        "mean_stub_bill_usd": round(stub["mean_usd"], 2),
        "rate_reallocations": swarm.reallocs_total,
    }


def run_locality_swarm(
    n_hosts: int = 2000,
    seed: int = 11,
    *,
    biases: Optional[Sequence[float]] = None,
    n_pieces: int = 64,
    piece_size_bytes: int = 262144,
    n_seeds: int = 5,
    peer_list_size: int = 35,
    arrival_span_s: float = 120.0,
    max_time_s: float = 7200.0,
    smoke: bool = False,
    workers: int | None = None,
) -> ExperimentResult:
    """Run the locality sweep; one row per bias level.

    ``smoke=True`` is the CI-sized run: the full 2000-peer population
    (the point of the flow plane is that this stays cheap) but a
    quarter-size torrent and a two-point bias grid.
    """
    if smoke:
        n_pieces = min(n_pieces, 16)
        if biases is None:
            biases = (0.0, 0.8)
    if biases is None:
        biases = DEFAULT_BIASES
    underlay = Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(
                n_tier1=3, n_tier2=8, n_stub=16, n_regions=4
            ),
            n_hosts=n_hosts,
            seed=seed,
        )
    )
    torrent = Torrent(0, n_pieces=n_pieces, piece_size_bytes=piece_size_bytes)
    result = ExperimentResult(
        "LOCALITY",
        f"Locality bias sweep, {n_hosts}-peer swarm on the flow-level "
        "data plane",
    )

    def one(bias: float) -> dict:
        # workers inherit ``underlay`` via fork; each arm builds its own
        # tracker + swarm over the shared read-only substrate
        return _run_arm(
            underlay,
            bias,
            torrent,
            peer_list_size=peer_list_size,
            n_seeds=n_seeds,
            arrival_span_s=arrival_span_s,
            max_time_s=max_time_s,
            seed=seed,
        )

    for row in run_arms(one, list(biases), workers=workers):
        result.add_row(**row)

    rows = result.rows
    base = rows[0]
    peak = max(rows, key=lambda r: r["bias"])
    if base["stub_transit_bill_usd"] > 0:
        result.notes.append(
            f"bias {peak['bias']:.2f} cuts stub-AS transit bills by "
            f"{1 - peak['stub_transit_bill_usd'] / base['stub_transit_bill_usd']:.0%} "
            f"vs the random tracker"
        )
    result.notes.append(
        "expected shape (Cuevas et al.): transit fraction and stub bills "
        "fall monotonically with bias; aggregate download times hold "
        "(win-win), while at near-total bias the worst-AS median degrades "
        "— the ISP whose peers the biased tracker starves pays for the "
        "aggregate win (ISP-unfairness regime)"
    )
    return result
