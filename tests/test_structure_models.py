"""Model-equivalence harness for the plain per-peer structures.

Each structure is driven with random operation sequences — hypothesis
op lists plus long seeded numpy streams — next to a few-line model of
its contract written with builtins, and the observable state must agree
after every step: the hostcache against a most-recent-last list, the
routing table against a brute-force XOR sort over per-bucket
:class:`ReferenceKBucket` models (``tests/kbucket_reference.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.gnutella.hostcache import HostCache
from repro.overlay.kademlia.id_space import ID_BITS, bucket_index, xor_distance
from repro.overlay.kademlia.kbucket import Contact
from repro.overlay.kademlia.routing_table import RoutingTable
from tests.kbucket_reference import ReferenceKBucket

SEEDS = (101, 202, 303)


# -- RoutingTable vs brute force over per-bucket ReferenceKBucket models ------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("proximity", [False, True])
def test_routing_table_matches_bruteforce(seed, proximity):
    """``closest`` is a brute-force XOR sort of the live contacts, and
    which contacts are live is decided bucket by bucket exactly as a
    standalone :class:`ReferenceKBucket` (LRU or proximity eviction)
    decides it."""
    rng = np.random.default_rng(seed)

    def rand_id():
        return int.from_bytes(rng.bytes(ID_BITS // 8), "big")

    own_id = rand_id() or 1
    # a mixed pool: single-bit flips of own_id hit every bucket depth,
    # fully random ids concentrate in the far buckets
    id_pool = [own_id ^ (1 << int(b)) for b in rng.integers(0, ID_BITS, size=30)]
    id_pool += [rand_id() for _ in range(30)]
    id_pool = [i for i in id_pool if i != own_id] or [own_id ^ 1]
    k = 4
    table = RoutingTable(own_id, k=k, proximity=proximity)
    model: dict[int, ReferenceKBucket] = {}

    def live():
        return [c for b in sorted(model) for c in model[b].contacts()]

    def brute_closest(target, n):
        return sorted(live(), key=lambda c: xor_distance(c.node_id, target))[:n]

    for i in range(400):
        node_id = id_pool[int(rng.integers(len(id_pool)))]
        contact = Contact(node_id, node_id % 1000, float(rng.uniform(1.0, 300.0)))
        bucket = model.setdefault(
            bucket_index(own_id, node_id), ReferenceKBucket(k=k, proximity=proximity)
        )
        assert table.update(contact) == bucket.update(contact)
        if i % 10 == 0:
            victim = id_pool[int(rng.integers(len(id_pool)))]
            table.remove(victim)
            if bucket_index(own_id, victim) in model:
                model[bucket_index(own_id, victim)].remove(victim)
        if i % 25 == 0:
            target = rand_id()
            assert table.closest(target, 8) == brute_closest(target, 8)
            probe = id_pool[int(rng.integers(len(id_pool)))]
            want = [c for c in live() if c.node_id == probe]
            assert table.get(probe) == (want[0] if want else None)
        assert all(len(b) <= k for b in table.buckets.values())
    assert table.all_contacts() == live()
    assert table.size() == len(live())
    assert sorted(b for b, bucket in table.buckets.items() if len(bucket)) == sorted(
        b for b in model if len(model[b])
    )
    target = rand_id()
    assert table.closest(target) == brute_closest(target, k)


# -- HostCache vs a most-recent-last list -------------------------------------------
def _model_add(model: list, peer: int, capacity: int) -> None:
    if peer in model:
        model.remove(peer)
    model.append(peer)
    del model[:-capacity]  # oldest evicted


def _assert_hostcache_equal(cache: HostCache, model: list) -> None:
    snapshot = cache.snapshot()
    assert snapshot == model[::-1]  # most recent first
    assert len(set(snapshot)) == len(snapshot) == len(cache) <= cache.capacity


@pytest.mark.parametrize("seed", SEEDS)
def test_hostcache_equivalent_under_seeded_ops(seed):
    rng = np.random.default_rng(seed)
    cache, model = HostCache(capacity=20), []
    for _ in range(1500):
        r = rng.random()
        peer = int(rng.integers(60))
        if r < 0.70:
            cache.add_all((peer,))
            _model_add(model, peer, 20)
        elif r < 0.85:
            cache.remove(peer)
            if peer in model:
                model.remove(peer)
        else:
            limit = int(rng.integers(1, 25))
            assert cache.snapshot(limit) == model[::-1][:limit]
        assert (peer in cache) == (peer in model)
        assert len(cache) == len(model)
    _assert_hostcache_equal(cache, model)


@pytest.mark.parametrize("seed", SEEDS)
def test_hostcache_fill_random_equivalent(seed):
    """Same seed, same fill; and the fill is an n-subset of the pool."""
    a, b = HostCache(capacity=30), HostCache(capacity=30)
    population = list(range(200, 300))
    a.fill_random(population, 25, rng=seed)
    b.fill_random(population, 25, rng=seed)
    assert a.snapshot() == b.snapshot()
    assert len(set(a.snapshot())) == 25 and set(a.snapshot()) <= set(population)
    b.fill_random(population, 40, rng=seed)  # clipped to capacity
    assert len(b) == 30


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 30)),
        max_size=200,
    )
)
@settings(max_examples=80, deadline=None)
def test_hostcache_equivalent_property(ops):
    cache, model = HostCache(capacity=8), []
    for kind, peer in ops:
        if kind == "add":
            cache.add_all((peer,))
            _model_add(model, peer, 8)
        else:
            cache.remove(peer)
            if peer in model:
                model.remove(peer)
    _assert_hostcache_equal(cache, model)
    assert cache.snapshot(3) == model[::-1][:3]

