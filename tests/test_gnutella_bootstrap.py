"""Oracle: ``GnutellaNetwork.bootstrap`` against the list-building fill.

The reference hands ``HostCache.fill_random`` an everyone-but-me list per
node — O(n) per node, O(n²) per bootstrap.  The network draws the same
indices over ``len(population) - 1`` and steps over the node's own
position, so every hostcache and the RNG end state must come out equal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.gnutella import LEAF, GnutellaConfig, GnutellaNetwork
from repro.sim import Simulation
from repro.underlay import Underlay, UnderlayConfig

_UNDERLAY = Underlay.generate(UnderlayConfig(n_hosts=40, seed=17))


def _reference_bootstrap(net: GnutellaNetwork, cache_fill: int) -> None:
    population = list(net.nodes)
    for node in net.nodes.values():
        others = [p for p in population if p != node.host_id]
        node.hostcache.fill_random(others, cache_fill, net._rng)


def _network(hosts, capacity: int, seed: int) -> GnutellaNetwork:
    sim = Simulation()
    bus, _acct = _UNDERLAY.message_bus(sim, with_accounting=False)
    net = GnutellaNetwork(
        _UNDERLAY, sim, bus,
        config=GnutellaConfig(hostcache_capacity=capacity), rng=seed,
    )
    for h in hosts:
        net.add_node(h, LEAF)
    return net


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(
        st.integers(0, len(_UNDERLAY.hosts) - 1), min_size=1, max_size=40,
        unique=True,
    ),
    cache_fill=st.integers(0, 45),
    capacity=st.integers(1, 45),
    seed=st.integers(0, 2**32 - 1),
)
def test_bootstrap_matches_list_building_fill(picks, cache_fill, capacity, seed):
    hosts = [_UNDERLAY.hosts[i] for i in picks]
    fast = _network(hosts, capacity, seed)
    ref = _network(hosts, capacity, seed)
    fast.bootstrap(cache_fill)
    _reference_bootstrap(ref, cache_fill)
    for hid, node in fast.nodes.items():
        assert node.hostcache.snapshot() == ref.nodes[hid].hostcache.snapshot()
        assert hid not in node.hostcache
    assert fast._rng.bit_generator.state == ref._rng.bit_generator.state


@pytest.mark.parametrize("n_hosts", [1, 2])
def test_bootstrap_of_a_tiny_population_draws_only_when_it_can(n_hosts):
    """One node has no one to know and draws nothing; two know each other."""
    net = _network(_UNDERLAY.hosts[:n_hosts], capacity=10, seed=5)
    before = net._rng.bit_generator.state
    net.bootstrap(cache_fill=10)
    if n_hosts == 1:
        assert net._rng.bit_generator.state == before
    a, *rest = net.nodes.values()
    assert a.hostcache.snapshot() == [n.host_id for n in rest]
