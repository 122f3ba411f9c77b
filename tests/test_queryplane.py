"""Send-log digests and the guarantee that no flood leaves state
behind."""

from collections.abc import Sized

from repro.overlay.gnutella import GnutellaConfig, GnutellaNetwork
from repro.sim import Simulation
from repro.sim.messages import MessageBus
from repro.underlay import Underlay, UnderlayConfig
from tests.sendlog import SendLog, flood_trace_digest


# ------------------------------------------------------------------ SendLog
def test_flood_trace_digest_order_insensitive():
    a = [(1.0, 1, 2, "QUERY", 50), (0.5, 2, 3, "PING", 23)]
    assert flood_trace_digest(a) == flood_trace_digest(list(reversed(a)))
    assert flood_trace_digest(a) != flood_trace_digest(a[:1])


def test_send_log_observer_and_record():
    sim = Simulation()
    log = SendLog(sim)
    log.observe(1, 2, 50, "QUERY")  # bus path stamps sim.now
    log.record(7.5, 2, 3, "QUERY", 50)  # kernel path supplies the time
    assert log.events == [(0.0, 1, 2, "QUERY", 50), (7.5, 2, 3, "QUERY", 50)]
    d = log.digest()
    log.clear()
    assert log.events == [] and log.digest() != d


# -------------------------------------------------------- memory-flat regression
def _container_sizes(node):
    return {
        name: len(value) for name, value in vars(node).items()
        if isinstance(value, Sized) and not isinstance(value, str)
    }


def test_query_state_memory_flat_over_many_queries():
    """10^5 searches and 50 ping rounds leave nothing behind: search
    retention evicts old records, the two caches a ping round feeds stay
    within their capacities, and no other container on any node has
    grown since the first flood."""
    u = Underlay.generate(UnderlayConfig(n_hosts=8, seed=3))
    sim = Simulation()
    bus = MessageBus(sim, u)
    cfg = GnutellaConfig(query_ttl=1)
    net = GnutellaNetwork(u, sim, bus, config=cfg, rng=1, search_retention=128)
    net.add_population(u.hosts, ultrapeer_fraction=1.0)
    net.bootstrap(cache_fill=8)
    net.join_all()
    sim.run()

    capped = {"hostcache": cfg.hostcache_capacity,
              "_pong_cache": cfg.pong_cache_size}
    origins = [h.host_id for h in u.hosts]
    net.search(origins[0], 0)
    net.ping_round()
    sim.run()
    before = {hid: _container_sizes(n) for hid, n in net.nodes.items()}
    assert all(set(capped) <= set(sizes) for sizes in before.values())

    for i in range(100_000):
        net.search(origins[i % len(origins)], i % 11)
        if i % 2_000 == 0:
            net.ping_round()
    sim.run()
    assert len(net.searches) <= 128
    for hid, node in net.nodes.items():
        after = _container_sizes(node)
        for name, cap in capped.items():
            assert after[name] <= cap
        assert {k: v for k, v in after.items() if k not in capped} == {
            k: v for k, v in before[hid].items() if k not in capped
        }
