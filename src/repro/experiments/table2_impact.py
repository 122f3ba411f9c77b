"""TAB2 — the impact matrix, measured.

For each underlay-information column we build an overlay whose neighbor
and source selection uses *only* that information (via the framework's
strategies), run the same workloads against the underlay-oblivious
baseline, and convert relative improvements into the paper's ++/+/o
symbols (:mod:`repro.metrics.impact`).

Measured proxies per row (all improvements relative to the random
baseline; higher is better):

- **download_time** — mean time to fetch a 4 MB file from a source chosen
  by the column's selector among the replica holders.  Transfers whose
  route crosses congested transit links run at reduced rate (the survey's
  "bottlenecks ... longer waiting times" argument).
- **delay** — mean shortest-path delay through the overlay graph between
  random host pairs (real-time traffic relayed over the overlay).
- **isp_oam** — reduction of inter-AS *control* links the ISP has to
  carry (overlay maintenance crossing AS borders).
- **isp_costs** — reduction of *billed transit bytes* caused by the
  downloads.
- **new_applications** — capability score: does the awareness enable a
  new application class (measured: POI-query recall for geolocation,
  VoIP-grade neighbor links for latency)?
- **resilience** — the better of (a) overlay survival when the busiest
  transit link fails, (b) neighbor session-time gain (stable neighbors
  survive churn).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.collection.gps import GPSService
from repro.collection.oracle import ISPOracle
from repro.core.selection import (
    GeoSelection,
    ISPLocalitySelection,
    LatencySelection,
    NeighborSelection,
    RandomSelection,
    ResourceSelection,
)
from repro.experiments.common import ExperimentResult
from repro.metrics.impact import (
    ImpactCell,
    agreement_rate,
    compare_with_paper,
    impact_symbol,
)
from repro.overlay.geo import GlobaseOverlay, Rect
from repro.rng import ensure_rng
from repro.underlay.autonomous_system import LinkType
from repro.underlay.network import Underlay, UnderlayConfig

if TYPE_CHECKING:
    import networkx as nx

#: bandwidth derating for transfers whose route crosses a transit link
TRANSIT_CONGESTION_FACTOR = 0.45
FILE_SIZE_BYTES = 4_000_000
VOIP_RTT_BUDGET_MS = 150.0


@dataclass
class _ArmMetrics:
    mean_download_s: float
    mean_overlay_path_delay_ms: float
    mean_neighbor_rtt_ms: float
    inter_as_control_edges: int
    billed_transit_bytes: float
    transit_fail_edge_survival: float
    neighbor_session_h: float
    voip_grade_fraction: float


class _Arm:
    """One awareness column: a selector + the workload measurements."""

    def __init__(
        self,
        underlay: Underlay,
        selector: NeighborSelection,
        *,
        k_neighbors: int = 5,
        candidate_pool: int = 30,
        seed: int = 0,
    ) -> None:
        self.underlay = underlay
        self.selector = selector
        self.k = k_neighbors
        self.pool = candidate_pool
        self._rng = ensure_rng(seed)
        self.graph = self._build_graph()

    def _build_graph(self) -> nx.Graph:
        import networkx as nx

        ids = self.underlay.host_ids()
        g = nx.Graph()
        g.add_nodes_from(ids)
        for h in ids:
            others = [x for x in ids if x != h]
            pick = self._rng.choice(len(others), size=min(self.pool, len(others)),
                                    replace=False)
            candidates = [others[int(i)] for i in pick]
            for nb in self.selector.select(h, candidates, self.k):
                g.add_edge(h, nb)
        return g

    # -- workload measurements ----------------------------------------------------
    def _route_crosses_transit(self, a: int, b: int) -> bool:
        asn_a, asn_b = self.underlay.asn_of(a), self.underlay.asn_of(b)
        if asn_a == asn_b:
            return False
        return any(
            t is LinkType.TRANSIT
            for _x, _y, t in self.underlay.routing.path_links(asn_a, asn_b)
        )

    def measure(self, *, n_downloads: int = 150, n_pairs: int = 150) -> _ArmMetrics:
        import networkx as nx

        ids = self.underlay.host_ids()
        rng = ensure_rng(int(self._rng.integers(2**31)))

        # downloads with column-driven source selection; a transfer from an
        # unstable source can abort mid-way and restart (doubling the bytes
        # and stretching the time) — the channel through which resource
        # awareness reduces wasted traffic
        times, transit_bytes = [], 0.0
        for _ in range(n_downloads):
            req = ids[int(rng.integers(len(ids)))]
            holders = list(
                rng.choice([x for x in ids if x != req], size=5, replace=False)
            )
            src = self.selector.select(req, [int(h) for h in holders], 1)[0]
            h_req = self.underlay.host(req)
            h_src = self.underlay.host(src)
            rate = min(
                h_src.resources.bandwidth_up_kbps,
                h_req.resources.bandwidth_down_kbps,
            ) * 1000.0 / 8.0
            crosses = self._route_crosses_transit(req, src)
            if crosses:
                rate *= TRANSIT_CONGESTION_FACTOR
            rtt_s = 2.0 * self.underlay.one_way_delay(req, src) / 1000.0
            t = FILE_SIZE_BYTES / max(rate, 1.0) + rtt_s
            nbytes = float(FILE_SIZE_BYTES)
            p_abort = min(0.8, t / (h_src.resources.avg_online_hours * 3600.0))
            if rng.random() < p_abort:
                # restart once from a retry of the same source
                t *= 1.0 + float(rng.uniform(0.3, 1.0))
                nbytes *= 2.0
            if crosses:
                transit_bytes += nbytes
            times.append(t)

        # overlay relay delay between random pairs
        weighted = self.graph.copy()
        for a, b in weighted.edges():
            weighted[a][b]["delay"] = self.underlay.one_way_delay(a, b)
        delays = []
        for _ in range(n_pairs):
            a, b = (int(x) for x in rng.choice(len(ids), size=2, replace=False))
            try:
                delays.append(
                    nx.shortest_path_length(
                        weighted, ids[a], ids[b], weight="delay"
                    )
                )
            except nx.NetworkXNoPath:
                continue

        inter_ctrl = sum(
            1 for a, b in self.graph.edges()
            if self.underlay.asn_of(a) != self.underlay.asn_of(b)
        )

        # resilience (a): kill the busiest transit link; count the fraction
        # of overlay links that keep working (their route does not use it)
        usage: dict[tuple[int, int], int] = {}
        edge_links: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for a, b in self.graph.edges():
            asn_a, asn_b = self.underlay.asn_of(a), self.underlay.asn_of(b)
            if asn_a == asn_b:
                edge_links[(a, b)] = set()
                continue
            used = {
                (min(x, y), max(x, y))
                for x, y, t in self.underlay.routing.path_links(asn_a, asn_b)
                if t is LinkType.TRANSIT
            }
            edge_links[(a, b)] = used
            for key in used:
                usage[key] = usage.get(key, 0) + 1
        survival = 1.0
        if usage and self.graph.number_of_edges():
            dead = max(usage, key=lambda k: usage[k])
            alive = sum(1 for used in edge_links.values() if dead not in used)
            survival = alive / self.graph.number_of_edges()

        # resilience (b): neighbor stability
        sessions = [
            self.underlay.host(b).resources.avg_online_hours
            for _a, b in self.graph.edges()
        ]

        # VoIP-grade neighbor links (latency "new application" capability)
        voip = [
            1.0
            if 2.0 * self.underlay.one_way_delay(a, b) <= VOIP_RTT_BUDGET_MS
            else 0.0
            for a, b in self.graph.edges()
        ]

        neighbor_rtts = [
            2.0 * self.underlay.one_way_delay(a, b) for a, b in self.graph.edges()
        ]
        return _ArmMetrics(
            mean_download_s=float(np.mean(times)),
            mean_overlay_path_delay_ms=float(np.mean(delays)) if delays else float("inf"),
            mean_neighbor_rtt_ms=float(np.mean(neighbor_rtts)) if neighbor_rtts else 0.0,
            inter_as_control_edges=inter_ctrl,
            billed_transit_bytes=transit_bytes,
            transit_fail_edge_survival=survival,
            neighbor_session_h=float(np.mean(sessions)) if sessions else 0.0,
            voip_grade_fraction=float(np.mean(voip)) if voip else 0.0,
        )


def _improvement(baseline: float, aware: float, *, lower_better: bool = True) -> float:
    if baseline == 0:
        return 0.0
    if lower_better:
        return (baseline - aware) / baseline
    return (aware - baseline) / baseline


def run_table2(n_hosts: int = 200, seed: int = 31) -> ExperimentResult:
    """Run the Table 2 factorial and compare symbols against the paper."""
    from repro.underlay.topology import TopologyConfig

    underlay = Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=20, n_regions=4),
            n_hosts=n_hosts,
            seed=seed,
        )
    )
    gps = GPSService(underlay, availability=1.0, error_m=500.0)
    coord_rng = ensure_rng(seed + 5)

    def coord_rtt(a: int, b: int) -> float:
        true = 2.0 * underlay.one_way_delay(a, b)
        return true * float(np.clip(coord_rng.normal(1.0, 0.15), 0.5, 1.8))

    selectors: dict[str, NeighborSelection] = {
        "isp_location": ISPLocalitySelection(underlay, oracle=ISPOracle(underlay)),
        # coord_rtt draws coordinate error from coord_rng per call, so it
        # must stay on the scalar per-candidate path (a batch predictor
        # would change the draw order); the scalar loop preserves the
        # enumeration order of the candidates exactly
        "latency": LatencySelection(coord_rtt),
        "geolocation": GeoSelection(gps.position_of),
        "peer_resources": ResourceSelection.from_underlay(underlay),
    }
    baseline_arm = _Arm(underlay, RandomSelection(seed), seed=seed + 1)
    base = baseline_arm.measure()

    measured: dict[str, dict[str, float]] = {
        row: {} for row in (
            "download_time", "delay", "isp_oam", "isp_costs",
            "new_applications", "resilience",
        )
    }
    for col, selector in selectors.items():
        arm = _Arm(underlay, selector, seed=seed + 1)
        m = arm.measure()
        measured["download_time"][col] = _improvement(
            base.mean_download_s, m.mean_download_s
        )
        # delay blends direct-neighbour RTT (partner quality) and overlay
        # relay-path delay (multi-hop real-time traffic)
        measured["delay"][col] = 0.5 * _improvement(
            base.mean_neighbor_rtt_ms, m.mean_neighbor_rtt_ms
        ) + 0.5 * _improvement(
            base.mean_overlay_path_delay_ms, m.mean_overlay_path_delay_ms
        )
        measured["isp_oam"][col] = _improvement(
            float(base.inter_as_control_edges), float(m.inter_as_control_edges)
        )
        measured["isp_costs"][col] = _improvement(
            base.billed_transit_bytes, m.billed_transit_bytes
        )
        measured["resilience"][col] = max(
            _improvement(
                base.transit_fail_edge_survival, m.transit_fail_edge_survival,
                lower_better=False,
            ),
            _improvement(
                base.neighbor_session_h, m.neighbor_session_h, lower_better=False
            ) / 2.0,  # halved: stability is the weaker resilience channel
        )
        # new-application capability
        if col == "latency":
            measured["new_applications"][col] = _improvement(
                base.voip_grade_fraction, m.voip_grade_fraction, lower_better=False
            ) / 2.0
        elif col == "geolocation":
            geo = GlobaseOverlay(underlay, position_source=gps.position_of)
            geo.join_all()
            recall = geo.recall_of_area_query(Rect(500.0, 500.0, 3000.0, 3000.0))
            measured["new_applications"][col] = recall  # enables POI search
        else:
            measured["new_applications"][col] = 0.0

    cells = compare_with_paper(measured)
    result = ExperimentResult("TAB2", "Impact matrix: measured vs paper")
    for cell in cells:
        result.add_row(
            parameter=cell.parameter,
            info=cell.info_type,
            improvement=round(cell.measured_improvement, 3),
            measured=cell.measured_symbol,
            paper=cell.paper_symbol,
            match=cell.matches,
            within_one=cell.within_one_step,
        )
    result.notes.append(
        f"agreement: {agreement_rate(cells):.0%} exact, "
        f"{np.mean([c.within_one_step for c in cells]):.0%} within one step"
    )
    return result
