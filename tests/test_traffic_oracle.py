"""The traffic accountant against its eager per-message reference.

:class:`ReferenceAccountant` is the accountant as it was before routes
were compiled into plans and before observing became a pending-cell add:
every message re-walks ``path_links``, looks up each link's type and
paying AS, and charges every table the moment it is observed.  It lives
here as the oracle, not in ``src/``.  The tables the cost comparisons
are computed from must match it *exactly*, values and key order — for
any mix of sizes, kinds, batched and single sends, clock values and
bucket widths, across a ``reset()``, with reads of any table in between,
and after the topology changes under the routing caches.
"""

from collections import defaultdict
from functools import cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.underlay import TrafficAccountant, Underlay, UnderlayConfig
from repro.underlay.autonomous_system import LinkType
from repro.underlay.cost import CostModel, TransitBillingLedger
from repro.underlay.traffic import TrafficSummary

N_HOSTS = 40
KINDS = ("PING", "PONG", "QUERY")


@cache
def _underlay():
    return Underlay.generate(UnderlayConfig(n_hosts=N_HOSTS, seed=3))


class ReferenceAccountant:
    """Per-message link walk: one ``path_links`` traversal per message,
    every table charged on arrival."""

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
                # the ledger sample lands in the same bucket as the link
                # sample; an empty charge records nothing
                if size_bytes:
                    self.billing.samples[payer][bucket] += size_bytes
                    self.billing.total_bytes[payer] += size_bytes
        if crossed_transit:
            self.summary.transit_bytes += size_bytes
        else:
            self.summary.peering_bytes += size_bytes

    def peak_transit_mbps(self, link, percentile=95.0):
        import numpy as np

        samples = self.transit_samples.get((min(link), max(link)))
        if not samples:
            return 0.0
        rates = np.array([samples[b] for b in sorted(samples)], dtype=float)
        return float(np.percentile(rates * 8.0 / 1e6 / self.bucket_seconds,
                                   percentile))


#: every table the accountant exposes, as plain values in key order
#: (lists of items, so equality compares the order too)
TABLES = {
    "summary": lambda acct: acct.summary,
    "link_bytes": lambda acct: list(acct.link_bytes.items()),
    "paid_transit_bytes": lambda acct: list(acct.paid_transit_bytes.items()),
    "transit_samples": lambda acct: [
        (k, list(v.items())) for k, v in acct.transit_samples.items()
    ],
    "kind_bytes": lambda acct: [(k, list(v)) for k, v in acct.kind_bytes.items()],
    "billing.samples": lambda acct: [
        (k, list(v.items())) for k, v in acct.billing.samples.items()
    ],
    "billing.total_bytes": lambda acct: list(acct.billing.total_bytes.items()),
}


def state(acct):
    return {name: table(acct) for name, table in TABLES.items()}


def _read(acct, what):
    """One read of the kind a caller makes between sends."""
    if what == "peak":
        return [
            (link, acct.peak_transit_mbps(link, 95.0))
            for link in list(acct.transit_samples)
        ]
    if what == "bills":
        return list(acct.billing.bills(CostModel()).items())
    return TABLES[what](acct)


def _transit_pair(u):
    """Two hosts whose ASes are not adjacent and whose route crosses a
    transit link: a new peering link between them shortens the route."""
    topo, routing = u.topology, u.routing
    return next(
        (a.host_id, b.host_id)
        for a in u.hosts for b in u.hosts
        if a.asn != b.asn
        and topo.asys(a.asn).relationship_to(b.asn) is None
        and routing.route_plan(a.asn, b.asn).link_class is LinkType.TRANSIT
    )


def _peer(u, a, b, linked):
    peers_a, peers_b = u.topology.asys(a).peers, u.topology.asys(b).peers
    if linked:
        peers_a.add(b)
        peers_b.add(a)
    else:
        peers_a.discard(b)
        peers_b.discard(a)
    u.routing.invalidate()


hosts = st.integers(0, N_HOSTS - 1)
batches = st.tuples(
    st.lists(                                          # sends of one batch
        st.tuples(hosts, hosts, st.sampled_from(KINDS), st.integers(1, 6)),
        min_size=1, max_size=5,
    ),
    st.fixed_dictionaries(                             # size per kind
        {k: st.integers(0, 5_000) for k in KINDS}      # (0 is legal)
    ),
    st.sampled_from([0.0, 0.1, 0.25, 17.0, 299.5, 650.0]),  # clock advance
    st.sampled_from([                                  # read before the batch
        None, "summary", "link_bytes", "paid_transit_bytes",
        "transit_samples", "kind_bytes", "billing.samples", "peak", "bills",
    ]),
)


def _transit_sends(*advances):
    """Batches of one 1000-byte QUERY from host 0 to host 1, whose route
    crosses transit links, after each clock advance."""
    sizes = {"PING": 1, "PONG": 1, "QUERY": 1000}
    return [([(0, 1, "QUERY", 1)], sizes, dt, None) for dt in advances]


@settings(max_examples=60, deadline=None)
# bucket indices that turned back into a time land one bucket low in
# the ledger: 5 at width 0.1, 7 at width 299.9
@example(stream=_transit_sends(0.25, 0.25, 0.1), reset_at=99, reroute_at=99,
         bucket_seconds=0.1, with_clock=True)
@example(stream=_transit_sends(650.0, 650.0, 650.0, 299.5), reset_at=99,
         reroute_at=99, bucket_seconds=299.9, with_clock=True)
# a zero-byte message places no payer in the ledger: one sharing a cell
# with a later 1000-byte one would put its payers ahead of 2 -> 3's
@example(
    stream=[
        ([(0, 1, "QUERY", 1)], {"PING": 0, "PONG": 0, "QUERY": 0}, 0.0, None),
        ([(2, 3, "PING", 1)], {"PING": 1000, "PONG": 0, "QUERY": 0}, 0.0, None),
        ([(0, 1, "QUERY", 1)], {"PING": 0, "PONG": 0, "QUERY": 1000}, 0.0,
         None),
    ],
    reset_at=99, reroute_at=99, bucket_seconds=300.0, with_clock=False,
)
@given(
    stream=st.lists(batches, min_size=1, max_size=25),
    reset_at=st.integers(0, 25),
    reroute_at=st.integers(0, 25),
    bucket_seconds=st.sampled_from([300.0, 299.9, 60.0, 1.0, 0.1]),
    with_clock=st.booleans(),
)
def test_plans_and_aggregates_match_per_message_walk(
    stream, reset_at, reroute_at, bucket_seconds, with_clock
):
    u = _underlay()
    ids = u.host_ids()
    now = [0.0]
    kwargs = {
        "clock": (lambda: now[0]) if with_clock else None,
        "bucket_seconds": bucket_seconds,
    }
    # batched: one observe_sends per batch, read between batches;
    # one_by_one: single observes, read only at the end
    batched = TrafficAccountant(u.topology, u.routing, u.asn_of, **kwargs)
    one_by_one = TrafficAccountant(u.topology, u.routing, u.asn_of, **kwargs)
    oracle = ReferenceAccountant(u.topology, u.routing, u.asn_of, **kwargs)
    pair = tuple(u.asn_of(h) for h in _transit_pair(u))
    try:
        for i, (sends, sizes, dt, read) in enumerate(stream):
            if read is not None:
                assert _read(batched, read) == _read(oracle, read)
            if i == reset_at:
                for acct in (batched, one_by_one, oracle):
                    acct.reset()
            now[0] += dt
            aggregate: dict = {}
            for src_i, dst_i, kind, n in sends:
                edge = (ids[src_i], ids[dst_i], kind)
                aggregate[edge] = aggregate.get(edge, 0) + n
                for _ in range(n):
                    one_by_one.observe(*edge[:2], sizes[kind], kind)
                    oracle.observe(*edge[:2], sizes[kind], kind)
            batched.observe_sends(aggregate, sizes)
            if i == reroute_at:
                # no read since the sends above: their cells are still
                # pending, and must stay on the route they were sent over
                _peer(u, *pair, linked=True)
        expected = state(oracle)
        assert state(batched) == expected
        assert state(one_by_one) == expected
        assert _read(batched, "bills") == _read(oracle, "bills")
    finally:
        _peer(u, *pair, linked=False)


def test_new_traffic_follows_the_route_after_invalidate():
    u = Underlay.generate(UnderlayConfig(n_hosts=N_HOSTS, seed=3))
    topo, routing = u.topology, u.routing
    src, dst = _transit_pair(u)
    a, b = u.asn_of(src), u.asn_of(dst)
    acct = TrafficAccountant(topo, routing, u.asn_of)
    oracle = ReferenceAccountant(topo, routing, u.asn_of)
    for ac in (acct, oracle):
        ac.observe(src, dst, 1000, "DATA")
    old_links = [key for key, _payer in routing.route_plan(a, b).links]

    # no read in between: the first message's cell is still pending
    _peer(u, a, b, linked=True)
    acct.observe_sends({(src, dst, "DATA"): 3}, {"DATA": 70})
    for _ in range(3):
        oracle.observe(src, dst, 70, "DATA")

    direct = (min(a, b), max(a, b))
    assert routing.route_plan(a, b).links == ((direct, None),)
    assert acct.summary.peering_bytes == 210
    assert acct.link_bytes[direct] == 210
    # bytes already sent stay on the links that carried them
    assert acct.summary.transit_bytes == 1000
    for key in old_links:
        assert acct.link_bytes[key] == 1000
    assert state(acct) == state(oracle)
