"""The traffic accountant against its per-message reference.

:class:`ReferenceAccountant` is the accountant as it was before routes
were compiled into plans: every message re-walks ``path_links``, looks up
each link's type and paying AS, and charges the tables one message at a
time.  It lives here as the oracle, not in ``src/``.  The tables the
cost comparisons are computed from must match it *exactly* — for any
mix of sizes, kinds, aggregate counts and clock values, across a
``reset()``, and after the topology changes under the routing caches.
"""

from collections import defaultdict
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.underlay import TrafficAccountant, Underlay, UnderlayConfig
from repro.underlay.autonomous_system import LinkType
from repro.underlay.cost import TransitBillingLedger
from repro.underlay.traffic import TrafficSummary

N_HOSTS = 40


@cache
def _underlay():
    return Underlay.generate(UnderlayConfig(n_hosts=N_HOSTS, seed=3))


class ReferenceAccountant:
    """Per-message link walk: one ``path_links`` traversal per message."""

    def __init__(self, topology, routing, asn_of, *, clock=None,
                 bucket_seconds=300.0):
        self.topology = topology
        self.routing = routing
        self._asn_of = asn_of
        self._clock = clock
        self.bucket_seconds = float(bucket_seconds)
        self.reset()

    def reset(self):
        self.summary = TrafficSummary()
        self.link_bytes = defaultdict(int)
        self.paid_transit_bytes = defaultdict(int)
        self.transit_samples = defaultdict(lambda: defaultdict(int))
        self.kind_bytes = defaultdict(lambda: [0, 0])
        self.billing = TransitBillingLedger(bucket_seconds=self.bucket_seconds)

    def observe(self, src, dst, size_bytes, kind):
        asn_src = self._asn_of(src)
        asn_dst = self._asn_of(dst)
        self.summary.messages += 1
        if asn_src == asn_dst:
            self.summary.intra_as_bytes += size_bytes
            self.kind_bytes[kind][0] += size_bytes
            return
        self.kind_bytes[kind][1] += size_bytes
        bucket = (
            int(self._clock() // self.bucket_seconds) if self._clock is not None else 0
        )
        crossed_transit = False
        for a, b, link_type in self.routing.path_links(asn_src, asn_dst):
            key = (min(a, b), max(a, b))
            self.link_bytes[key] += size_bytes
            if link_type is LinkType.TRANSIT:
                crossed_transit = True
                # the customer side of the link pays, regardless of direction
                payer = a if b in self.topology.asys(a).providers else b
                self.paid_transit_bytes[payer] += size_bytes
                self.transit_samples[key][bucket] += size_bytes
                self.billing.record(payer, bucket * self.bucket_seconds, size_bytes)
        if crossed_transit:
            self.summary.transit_bytes += size_bytes
        else:
            self.summary.peering_bytes += size_bytes


def state(acct):
    """Every table the accountant exposes, as plain comparable values."""
    return {
        "summary": acct.summary,
        "link_bytes": dict(acct.link_bytes),
        "paid_transit_bytes": dict(acct.paid_transit_bytes),
        "transit_samples": {k: dict(v) for k, v in acct.transit_samples.items()},
        "kind_bytes": {k: list(v) for k, v in acct.kind_bytes.items()},
        "billing.samples": {k: dict(v) for k, v in acct.billing.samples.items()},
        "billing.total_bytes": dict(acct.billing.total_bytes),
    }


messages = st.tuples(
    st.integers(0, N_HOSTS - 1),                      # src
    st.integers(0, N_HOSTS - 1),                      # dst
    st.integers(0, 5_000),                            # size (0 is legal)
    st.sampled_from(["PING", "PONG", "QUERY"]),       # kind
    st.integers(1, 6),                                # count
    st.sampled_from([0.0, 0.25, 17.0, 299.5, 650.0]),  # clock advance
)


@settings(max_examples=40, deadline=None)
@given(
    stream=st.lists(messages, min_size=1, max_size=40),
    reset_at=st.integers(0, 40),
    bucket_seconds=st.sampled_from([300.0, 60.0, 1.0]),
    with_clock=st.booleans(),
)
def test_plans_and_aggregates_match_per_message_walk(
    stream, reset_at, bucket_seconds, with_clock
):
    u = _underlay()
    ids = u.host_ids()
    now = [0.0]
    kwargs = {
        "clock": (lambda: now[0]) if with_clock else None,
        "bucket_seconds": bucket_seconds,
    }
    aggregated = TrafficAccountant(u.topology, u.routing, u.asn_of, **kwargs)
    one_by_one = TrafficAccountant(u.topology, u.routing, u.asn_of, **kwargs)
    oracle = ReferenceAccountant(u.topology, u.routing, u.asn_of, **kwargs)
    for i, (src_i, dst_i, size, kind, count, dt) in enumerate(stream):
        if i == reset_at:
            for acct in (aggregated, one_by_one, oracle):
                acct.reset()
        now[0] += dt
        src, dst = ids[src_i], ids[dst_i]
        aggregated.observe(src, dst, size, kind, count=count)
        for _ in range(count):
            one_by_one.observe(src, dst, size, kind)
            oracle.observe(src, dst, size, kind)
    expected = state(oracle)
    assert state(aggregated) == expected
    assert state(one_by_one) == expected


def test_new_traffic_follows_the_route_after_invalidate():
    u = Underlay.generate(UnderlayConfig(n_hosts=N_HOSTS, seed=3))
    topo, routing = u.topology, u.routing
    # two hosts whose route crosses a transit link and whose ASes are
    # not adjacent: a new peering link between them shortens the route
    src, dst = next(
        (a.host_id, b.host_id)
        for a in u.hosts for b in u.hosts
        if a.asn != b.asn
        and topo.asys(a.asn).relationship_to(b.asn) is None
        and routing.route_plan(a.asn, b.asn).link_class is LinkType.TRANSIT
    )
    a, b = u.asn_of(src), u.asn_of(dst)
    acct = TrafficAccountant(topo, routing, u.asn_of)
    acct.observe(src, dst, 1000, "DATA")
    before = state(acct)
    assert before["summary"].transit_bytes == 1000

    topo.asys(a).peers.add(b)
    topo.asys(b).peers.add(a)
    routing.invalidate()
    acct.observe(src, dst, 70, "DATA", count=3)

    direct = (min(a, b), max(a, b))
    assert routing.route_plan(a, b).links == ((direct, None),)
    assert acct.summary.peering_bytes == 210
    assert acct.link_bytes[direct] == 210
    # bytes already recorded stay on the links that carried them
    assert acct.summary.transit_bytes == 1000
    for key, nbytes in before["link_bytes"].items():
        assert acct.link_bytes[key] == nbytes
    assert state(acct)["paid_transit_bytes"] == before["paid_transit_bytes"]
    assert state(acct)["billing.samples"] == before["billing.samples"]
