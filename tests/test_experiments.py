"""Integration tests: every experiment runs (scaled down) and shows the
paper's qualitative shape.  The full-size runs live in benchmarks/."""

import numpy as np
import pytest

from repro.experiments import (
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4_embedding,
    run_fig4_examples,
    run_fig6,
    run_locality_savings,
    run_locality_swarm,
    run_table1,
    run_testlab_arm,
)
from repro.experiments import testlab_topology as make_testlab_topology
from repro.overlay.gnutella import NeighborPolicy
from repro.underlay.routing import ASRouting


class TestFig1:
    def test_structure_holds_across_sizes(self):
        res = run_fig1(sizes=[(3, 5, 10), (4, 8, 20)], seed=2)
        for row in res.rows:
            assert row["money_flows_up"]
            assert row["peering_same_tier"]
            assert row["all_have_providers"]
            assert 1.0 <= row["mean_stub_hops"] <= 6.0


class TestFig2:
    def test_cost_relations_shape(self):
        res = run_fig2()
        per_mbps_transit = res.column("transit_per_mbps_usd")
        per_mbps_peering = res.column("peering_per_mbps_usd")
        # transit unit cost constant; peering unit cost strictly decreasing
        assert len(set(round(v, 9) for v in per_mbps_transit)) == 1
        assert all(a > b for a, b in zip(per_mbps_peering, per_mbps_peering[1:]))
        totals = res.column("transit_total_usd")
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_locality_savings_monotone(self):
        res = run_locality_savings()
        bills = res.column("monthly_bill_usd")
        assert all(a >= b for a, b in zip(bills, bills[1:]))


class TestFig3:
    def test_all_taxonomy_leaves_measured(self):
        res = run_fig3(n_hosts=40, seed=2)
        methods = set(res.column("method"))
        assert len(methods) == 8
        for row in res.rows:
            assert row["overhead_bytes"] >= 0.0
        # GPS is the most accurate geolocation source but covers fewer peers
        gps = res.row_by("method", "gps")
        ipl = res.row_by("method", "ip-to-location-mapping")
        assert gps["overhead_bytes"] <= ipl["overhead_bytes"]
        assert gps["accuracy"] >= ipl["accuracy"]
        assert gps["coverage"] <= ipl["coverage"]


class TestFig4:
    def test_paper_examples_match_to_printed_precision(self):
        res = run_fig4_examples()
        for row in res.rows:
            # the paper prints (truncates) to 2-4 decimals
            assert row["measured"] == pytest.approx(row["paper"], abs=1e-2), row

    def test_embedding_comparison(self):
        res = run_fig4_embedding(n_hosts=40, n_beacons=10, seed=4)
        systems = dict(zip(res.column("system"), res.rows))
        assert set(systems) == {"ICS", "Vivaldi(3D+h)", "GNP"}
        for row in res.rows:
            assert row["median_rel_err"] < 0.8
            assert row["stretch"] >= 1.0
        # Vivaldi uses far more probes but achieves the lowest error
        viv = systems["Vivaldi(3D+h)"]
        ics = systems["ICS"]
        assert viv["median_rel_err"] < ics["median_rel_err"]


class TestFig6:
    def test_biased_clusters_and_stays_connected(self):
        res = run_fig6(n_hosts=80, seed=3)
        uni = res.row_by("arm", "uniform_random")
        bia = res.row_by("arm", "biased")
        assert bia["intra_as_edge_fraction"] > 3 * uni["intra_as_edge_fraction"]
        assert bia["as_modularity"] > uni["as_modularity"] + 0.2
        assert bia["connected"] == 1.0
        assert bia["inter_as_edges"] >= bia["min_inter_as_edges"]

    def test_external_floor_ablation_reduces_partition_risk(self):
        res = run_fig6(n_hosts=80, seed=3)
        floor = res.row_by("arm", "biased")
        no_floor = res.row_by("arm", "biased_no_floor")
        assert floor["intra_as_edge_fraction"] <= no_floor["intra_as_edge_fraction"]


class TestLocalitySwarm:
    def test_bias_shifts_bills_without_breaking_downloads(self):
        res = run_locality_swarm(
            n_hosts=300, seed=11, biases=(0.0, 0.8), n_pieces=16
        )
        base = res.row_by("bias", 0.0)
        biased = res.row_by("bias", 0.8)
        assert base["completion_rate"] == 1.0
        assert biased["completion_rate"] == 1.0
        # ISP side: locality moves bytes off transit and shrinks bills
        assert biased["transit_fraction"] < 0.6 * base["transit_fraction"]
        assert biased["stub_transit_bill_usd"] < base["stub_transit_bill_usd"]
        # user side: the win-win regime — download times hold
        assert (
            biased["median_download_s"] < 1.3 * base["median_download_s"]
        )


class TestTestlab:
    @pytest.mark.parametrize("kind", ["ring", "star", "tree", "mesh"])
    def test_topologies_route_fully(self, kind):
        topo = make_testlab_topology(kind)
        routing = ASRouting(topo)
        mat = routing.hop_matrix()
        assert mat.shape == (5, 5)
        assert (mat[~np.eye(5, dtype=bool)] >= 1).all()

    def test_oracle_reduces_queries_without_breaking_search(self):
        unb = run_testlab_arm("mesh", "uniform", NeighborPolicy.UNBIASED, seed=5)
        bia = run_testlab_arm("mesh", "uniform", NeighborPolicy.BIASED, seed=5)
        assert unb["success"] == 1.0
        assert bia["success"] == 1.0
        assert bia["query"] <= 1.05 * unb["query"]
        assert bia["intra_as_links"] > unb["intra_as_links"]

    def test_variable_scheme_shares_270_files(self):
        arm = run_testlab_arm("star", "variable", NeighborPolicy.UNBIASED, seed=5)
        assert arm["success"] == 1.0

    def test_unknown_topology_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_testlab_topology("torus")


class TestTable1:
    def test_representative_metrics_sensible(self):
        res = run_table1(n_hosts=50, seed=6)
        rows = {r["system"]: r for r in res.rows}
        assert rows["BNS [3]"]["value"] > 0.1          # transit cut
        assert rows["Ono [5]"]["value"] > 0.2          # similarity gap
        assert rows["Vivaldi [7]"]["value"] < 0.4      # embedding error
        assert rows["SkyEye.KOM [11]"]["value"] >= 0.9  # top-k recall
        assert rows["Globase.KOM [19]"]["value"] < 0.8  # coherence ratio
        assert rows["Proximity in Kademlia [17][4]"]["value"] > 0.0

    def test_bns_row_holds_on_the_flow_plane(self):
        """run_table1's BitTorrent recipe at its default size (80 hosts,
        seed 23, 48 pieces, 2 seeds + 48 leechers) on the flow-level
        swarm: the biased tracker still cuts the transit fraction by
        more than the 0.1 the row is asserted at (0.1853 when recorded;
        0.1347 on the time-stepped swarm the experiment runs) — the
        number ROADMAP asks for before that swarm can leave ``src/``."""
        from repro.experiments.common import generate_underlay
        from repro.overlay.bittorrent import (
            FlowSwarmSimulation,
            Torrent,
            Tracker,
            TrackerPolicy,
        )
        from repro.underlay.network import UnderlayConfig

        seed = 23
        underlay = generate_underlay(UnderlayConfig(n_hosts=80, seed=seed))
        ids = underlay.host_ids()
        transit = {}
        for policy in (TrackerPolicy.RANDOM, TrackerPolicy.BIASED):
            swarm = FlowSwarmSimulation(
                underlay, Torrent(0, n_pieces=48),
                Tracker(underlay, policy=policy, rng=seed), rng=seed + 1,
            )
            swarm.populate(leechers=ids[2:50], seeds=ids[:2])
            transit[policy] = swarm.run(max_time_s=1200).transit_fraction
        cut = transit[TrackerPolicy.RANDOM] - transit[TrackerPolicy.BIASED]
        assert cut > 0.1
