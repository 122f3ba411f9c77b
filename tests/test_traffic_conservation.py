"""Bytes billed = bytes moved, on accounted Gnutella floods.

A FIG5-recipe run (oracle-biased Gnutella, ping round, one search per
host, download stage) with the bus's :class:`TrafficAccountant`
attached, lossless and at 10% loss.  The accountant must have seen every
message the bus counts as sent, its per-kind and per-class byte tables
must both sum to the bus's byte counter, and every transit byte charged
to a payer must appear once in the ledger and once per paying link in
the link samples.

The counted guard holds the design, not a timing: the accountant
applies each route plan once per distinct ``(bucket, plan, kind)`` cell,
each flood expansion makes at most one ``observe_sends`` call per
aggregate observer, and the only QUERY sends that go through
``_Emitter.emit`` are the origin's own (every forward takes the query
loop's inlined body).
"""

from collections import Counter

import pytest

from repro.collection.oracle import ISPOracle
from repro.overlay.gnutella import (
    GnutellaConfig, GnutellaNetwork, NeighborPolicy, flood,
)
from repro.sim.engine import Simulation
from repro.underlay.network import Underlay, UnderlayConfig
from repro.underlay.routing import RoutePlan
from repro.underlay.topology import TopologyConfig
from repro.workloads.content import CatalogConfig, ContentCatalog


def _fig5_run(n_hosts, *, loss=0.0, seed=11, before_run=None):
    """The FIG5 arm recipe (oracle at bootstrap and download) with the
    accountant kept; ``before_run(underlay, acct)`` runs before any send."""
    underlay = Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=3, n_tier2=8, n_stub=20, n_regions=5),
            n_hosts=n_hosts,
            seed=seed,
        )
    )
    sim = Simulation()
    bus, acct = underlay.message_bus(sim, loss_rate=loss, loss_seed=seed)
    if before_run is not None:
        before_run(underlay, acct)
    net = GnutellaNetwork(
        underlay, sim, bus,
        config=GnutellaConfig(query_ttl=5, max_up_neighbors=6),
        policy=NeighborPolicy.BIASED, oracle=ISPOracle(underlay),
        oracle_list_limit=100,
        biased_download=True, rng=seed + 1,
    )
    net.add_population(underlay.hosts)
    net.bootstrap(cache_fill=min(250, n_hosts - 1))
    net.join_all()
    sim.run()
    catalog = ContentCatalog(
        CatalogConfig(n_files=max(40, n_hosts // 4), locality_bias=0.55),
        rng=seed + 2,
    )
    shared = catalog.assign_shared_content(underlay.hosts, files_per_host=6)
    for hid, files in shared.items():
        net.share_content(hid, files)
    net.ping_round()
    sim.run()
    guids = [
        net.search(h.host_id, catalog.draw_query(h.asn)) for h in underlay.hosts
    ]
    sim.run()
    for g in guids:
        net.download_stage(g)
    sim.run()
    return bus, acct


@pytest.mark.parametrize("loss", [0.0, 0.1])
def test_bytes_billed_equal_bytes_moved(loss):
    bus, acct = _fig5_run(200, loss=loss)
    if loss:
        assert bus.stats.dropped_loss > 0
    summary = acct.summary
    assert summary.messages == bus.stats.sent
    assert summary.total_bytes == bus.stats.bytes_sent
    assert sum(i + x for i, x in acct.kind_bytes.values()) == bus.stats.bytes_sent
    assert summary.transit_bytes > 0
    paid = sum(acct.paid_transit_bytes.values())
    assert paid == sum(acct.billing.total_bytes.values())
    assert paid == sum(
        n for per_bucket in acct.transit_samples.values()
        for n in per_bucket.values()
    )


def test_route_plans_applied_once_per_cell_and_floods_batched(monkeypatch):
    cells: set = set()
    applied = Counter()
    observe_sends_calls = [0]
    expansions = [0]
    query_emits_off_origin = []

    class CountingPlan(RoutePlan):
        """A route plan that counts how often its links are charged."""

        __slots__ = ()

        @property
        def links(self):
            applied[self] += 1
            return tuple.__getitem__(self, 0)

    def instrument(underlay, acct):
        routing = underlay.routing
        plans: dict = {}
        real_plan = routing.route_plan

        def route_plan(a, b):
            if (a, b) not in plans:
                plans[a, b] = CountingPlan(*real_plan(a, b))
            return plans[a, b]

        monkeypatch.setattr(routing, "route_plan", route_plan)
        real_observe_sends = acct.observe_sends
        real_observe = acct.observe

        def cell(src, dst, kind):
            a, b = underlay.asn_of(src), underlay.asn_of(dst)
            if a != b:
                cells.add((acct._bucket(), route_plan(a, b), kind))

        def observe_sends(sends, size_of):
            observe_sends_calls[0] += 1
            for src, dst, kind in sends:
                cell(src, dst, kind)
            real_observe_sends(sends, size_of)

        def observe(src, dst, size_bytes, kind):
            cell(src, dst, kind)
            real_observe(src, dst, size_bytes, kind)

        monkeypatch.setattr(acct, "observe_sends", observe_sends)
        monkeypatch.setattr(acct, "observe", observe)

    real_query = flood.FloodKernel.expand_query
    real_pings = flood.FloodKernel.expand_ping_round
    real_emit = flood._Emitter.emit
    origin = [None]

    def expand_query(self, node, query):
        expansions[0] += 1
        origin[0] = node.host_id
        real_query(self, node, query)

    def expand_ping_round(self, origins):
        expansions[0] += 1
        real_pings(self, origins)

    def emit(self, t, src, dst, kind, code, aux):
        if kind == "QUERY" and src != origin[0]:
            query_emits_off_origin.append((src, dst))
        real_emit(self, t, src, dst, kind, code, aux)

    monkeypatch.setattr(flood.FloodKernel, "expand_query", expand_query)
    monkeypatch.setattr(flood.FloodKernel, "expand_ping_round", expand_ping_round)
    monkeypatch.setattr(flood._Emitter, "emit", emit)

    bus, acct = _fig5_run(120, before_run=instrument)
    summary = acct.summary  # the one read: every cell settles here
    assert summary.messages == bus.stats.sent
    assert bus.stats.by_kind["QUERY"] > 10 * len(cells)

    # one plan application per distinct cell, not one per send
    assert applied and sum(applied.values()) <= len(cells)
    # one aggregate hand-over per expansion, whatever its fan-out
    assert 0 < observe_sends_calls[0] <= expansions[0]
    # QUERY forwards never go through emit: the inlined body took them
    assert query_emits_off_origin == []
