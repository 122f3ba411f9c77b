"""Unit tests for traffic accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.underlay import TrafficAccountant
from repro.underlay.autonomous_system import LinkType


@pytest.fixture()
def accountant(small_underlay):
    u = small_underlay
    return u, TrafficAccountant(u.topology, u.routing, u.asn_of)


def _pair_with(u, want_same_as: bool):
    hosts = u.hosts
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            if (a.asn == b.asn) == want_same_as:
                return a.host_id, b.host_id
    raise AssertionError("no suitable pair found")


def test_intra_as_message(accountant):
    u, acct = accountant
    a, b = _pair_with(u, True)
    acct.observe(a, b, 500, "X")
    assert acct.summary.intra_as_bytes == 500
    assert acct.summary.transit_bytes == 0
    assert acct.summary.intra_as_fraction == 1.0


def test_inter_as_message_charges_links(accountant):
    u, acct = accountant
    a, b = _pair_with(u, False)
    acct.observe(a, b, 1000, "X")
    assert acct.summary.total_bytes == 1000
    assert acct.link_bytes  # at least one inter-AS link used
    links = u.routing.path_links(u.asn_of(a), u.asn_of(b))
    crossed_transit = any(t is LinkType.TRANSIT for _x, _y, t in links)
    if crossed_transit:
        assert acct.summary.transit_bytes == 1000
        # the paying AS is a customer on some link of the route
        assert acct.paid_transit_bytes
    else:
        assert acct.summary.peering_bytes == 1000


def test_message_counter(accountant):
    u, acct = accountant
    a, b = _pair_with(u, True)
    for _ in range(5):
        acct.observe(a, b, 10, "K")
    assert acct.summary.messages == 5


def test_kind_breakdown(accountant):
    u, acct = accountant
    same = _pair_with(u, True)
    diff = _pair_with(u, False)
    acct.observe(*same, 100, "CTRL")
    acct.observe(*diff, 200, "CTRL")
    intra, inter = acct.kind_bytes["CTRL"]
    assert (intra, inter) == (100, 200)


def test_reset(accountant):
    u, acct = accountant
    a, b = _pair_with(u, False)
    acct.observe(a, b, 100, "X")
    acct.reset()
    assert acct.summary.total_bytes == 0
    assert not acct.link_bytes


def test_reset_clears_every_table_and_keeps_compiled_plans(accountant):
    u, acct = accountant
    a, b = next(
        (x.host_id, y.host_id)
        for x in u.hosts for y in u.hosts
        if u.routing.route_plan(x.asn, y.asn).link_class is LinkType.TRANSIT
    )
    acct.observe(a, b, 100, "X")
    plan = u.routing.route_plan(u.asn_of(a), u.asn_of(b))
    assert acct.billing.total_bytes and acct.transit_samples
    acct.reset()
    assert acct.summary.messages == 0 and acct.summary.total_bytes == 0
    for table in (
        acct.link_bytes, acct.paid_transit_bytes, acct.transit_samples,
        acct.kind_bytes, acct.billing.samples, acct.billing.total_bytes,
    ):
        assert not table
    # the plan is a property of the route, not of the counters
    assert u.routing.route_plan(u.asn_of(a), u.asn_of(b)) is plan
    acct.observe(a, b, 100, "X")
    assert acct.summary.transit_bytes == 100


@pytest.mark.parametrize("same_as", [True, False])
def test_negative_size_is_rejected_whatever_the_route(accountant, same_as):
    # a negative intra-AS or peering-only message used to *subtract*
    # from the counters; only a transit one raised (from the ledger)
    u, acct = accountant
    a, b = _pair_with(u, same_as)
    with pytest.raises(ConfigurationError):
        acct.observe(a, b, -1, "X")
    assert acct.summary.messages == 0 and acct.summary.total_bytes == 0


@pytest.mark.parametrize("count", [0, -3])
def test_count_below_one_is_rejected(accountant, count):
    u, acct = accountant
    a, b = _pair_with(u, False)
    with pytest.raises(ConfigurationError):
        acct.observe_sends({(a, b, "X"): count}, {"X": 10})
    assert acct.summary.messages == 0 and not acct.link_bytes


def test_count_multiplies_bytes_and_messages(accountant):
    u, acct = accountant
    a, b = _pair_with(u, False)
    acct.observe_sends({(a, b, "X"): 7}, {"X": 10})
    assert acct.summary.messages == 7
    assert acct.summary.total_bytes == 70
    assert acct.kind_bytes["X"] == [0, 70]


def test_ledger_buckets_match_the_transit_samples(small_underlay):
    # a width that is not exact in binary: turning the bucket index
    # back into a time and flooring again put both messages in bucket 4
    u = small_underlay
    t = {"now": 0.0}
    acct = TrafficAccountant(
        u.topology, u.routing, u.asn_of, clock=lambda: t["now"],
        bucket_seconds=0.1,
    )
    a, b = next(
        (x.host_id, y.host_id)
        for x in u.hosts for y in u.hosts
        if u.routing.route_plan(x.asn, y.asn).link_class is LinkType.TRANSIT
    )
    for now in (0.45, 0.55):
        t["now"] = now
        acct.observe(a, b, 1000, "X")
    for per_bucket in acct.transit_samples.values():
        assert dict(per_bucket) == {4: 1000, 5: 1000}
    for per_bucket in acct.billing.samples.values():
        assert dict(per_bucket) == {4: 1000.0, 5: 1000.0}


def test_peak_billing_with_clock(small_underlay):
    u = small_underlay
    t = {"now": 0.0}
    acct = TrafficAccountant(
        u.topology, u.routing, u.asn_of, clock=lambda: t["now"], bucket_seconds=300.0
    )
    a, b = _pair_with(u, False)
    links = u.routing.path_links(u.asn_of(a), u.asn_of(b))
    transit = [(x, y) for x, y, lt in links if lt is LinkType.TRANSIT]
    if not transit:
        pytest.skip("sampled pair crosses no transit link")
    # steady 1000 B per bucket for 10 buckets, then one 100x spike
    for k in range(10):
        t["now"] = k * 300.0
        acct.observe(a, b, 1000, "DATA")
    t["now"] = 10 * 300.0
    acct.observe(a, b, 100_000, "DATA")
    link = transit[0]
    p95 = acct.peak_transit_mbps(link, percentile=95)
    p100 = acct.peak_transit_mbps(link, percentile=100)
    assert p100 > p95  # sampled-peak billing shaves the spike
    assert p95 > 0
