"""Edge-case tests for the hierarchical DHT and scoped hashing corners."""

import pytest

from repro.overlay import HierarchicalDHT
from repro.overlay.kademlia import ScopedHashing
from repro.sim import Simulation
from repro.underlay import Underlay, UnderlayConfig


def test_single_member_local_plane_falls_back_to_global():
    """A region with one peer has no usable local DHT; its lookups must
    go straight to the global plane and still succeed."""
    u = Underlay.generate(UnderlayConfig(n_hosts=41, seed=71))
    ids = u.host_ids()
    lonely = ids[0]

    # custom region map: host 0 alone in region 9, everyone else by parity
    def region_of(hid: int) -> int:
        if hid == lonely:
            return 9
        return hid % 2

    sim = Simulation()
    h = HierarchicalDHT(u, sim, region_of=region_of, rng=3)
    h.bootstrap_all()
    sim.run(until=120_000)
    owner = ids[5]
    h.publish(owner, "solo-doc")
    sim.run(until=sim.now + 60_000)
    rec = h.lookup(lonely, "solo-doc")
    sim.run(until=sim.now + 90_000)
    assert rec.done and rec.values
    assert rec.resolved_locally is False  # forced global path


def test_publish_from_every_region_resolves_globally():
    u = Underlay.generate(UnderlayConfig(n_hosts=60, seed=72))
    sim = Simulation()
    h = HierarchicalDHT(u, sim, rng=4)
    h.bootstrap_all()
    sim.run(until=120_000)
    ids = u.host_ids()
    regions = sorted({h.region_of(x) for x in ids})
    owners = {r: next(x for x in ids if h.region_of(x) == r) for r in regions}
    for r, owner in owners.items():
        h.publish(owner, f"doc-r{r}")
    sim.run(until=sim.now + 60_000)
    # every region's content reachable from every other region
    recs = []
    for r, owner in owners.items():
        reader = next(
            x for x in ids if h.region_of(x) != r
        )
        recs.append(h.lookup(reader, f"doc-r{r}"))
    sim.run(until=sim.now + 120_000)
    assert all(rec.done and rec.values for rec in recs)


def test_scoped_hashing_max_bits():
    h = ScopedHashing(scope_bits=16)
    assert h.scoped_node_id(65_535, rng=1) >> h.body_bits == 65_535
    assert h.scoped_node_id(0, rng=1) >> h.body_bits == 0
