"""Equivalence tests: the CSR/accumulating substrate kernels must be
bit-for-bit identical to the seed implementation.

The reference implementation kept here is a faithful copy of the original
hot path: a sorted-adjacency FIFO BFS over ``(asn, phase)`` states per
source, per-pair path reconstruction through the predecessor map, and an
O(n^2) Python loop that re-walks every path to accumulate the AS delay
matrix.  Every matrix the fast path produces — ``hops()``, ``path()``,
``hop_matrix()``, ``LatencyModel``'s AS delay matrix and the host
latency matrix built on it — must match it exactly (same values, same dtypes, same
tie-breaking by expansion order), on several seeded topologies.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.underlay import (
    ASRouting,
    HostFactory,
    LatencyConfig,
    LatencyModel,
    StreamingDelayKernel,
    TopologyConfig,
    generate_topology,
    pairwise_distances,
)

SEEDS = (0, 3, 42)

_UP, _PEERED, _DOWN = 0, 1, 2


class ReferenceRouting:
    """The seed implementation, verbatim in structure: per-source FIFO
    BFS with ``sorted()`` adjacency expansion and dict-keyed states."""

    def __init__(self, topology) -> None:
        self.topology = topology
        self._n = topology.n_ases
        self._hops_cache: dict[int, np.ndarray] = {}
        self._pred_cache: dict = {}
        self._best_state: dict = {}

    def _expand(self, asn, phase):
        asys = self.topology.asys(asn)
        out = []
        if phase == _UP:
            for p in sorted(asys.providers):
                out.append((p, _UP))
            for q in sorted(asys.peers):
                out.append((q, _PEERED))
            for c in sorted(asys.customers):
                out.append((c, _DOWN))
        elif phase in (_PEERED, _DOWN):
            for c in sorted(asys.customers):
                out.append((c, _DOWN))
        return out

    def _bfs_from(self, src):
        if src in self._hops_cache:
            return
        hops = np.full(self._n, -1, dtype=np.int32)
        hops[src] = 0
        pred = {}
        best = {src: (src, _UP)}
        visited = {(src, _UP)}
        frontier = deque([(src, _UP, 0)])
        while frontier:
            asn, phase, d = frontier.popleft()
            for nxt_asn, nxt_phase in self._expand(asn, phase):
                state = (nxt_asn, nxt_phase)
                if state in visited:
                    continue
                visited.add(state)
                pred[state] = (asn, phase)
                if hops[nxt_asn] < 0:
                    hops[nxt_asn] = d + 1
                    best[nxt_asn] = state
                frontier.append((nxt_asn, nxt_phase, d + 1))
        self._hops_cache[src] = hops
        self._pred_cache[src] = pred
        self._best_state[src] = best

    def hops(self, src, dst):
        self._bfs_from(src)
        return int(self._hops_cache[src][dst])

    def path(self, src, dst):
        self._bfs_from(src)
        if src == dst:
            return [src]
        best = self._best_state[src][dst]
        pred = self._pred_cache[src]
        rev = []
        state = best
        while True:
            rev.append(state[0])
            if state == (src, _UP):
                break
            state = pred[state]
        rev.reverse()
        return rev

    def hop_matrix(self):
        mat = np.empty((self._n, self._n), dtype=np.int32)
        for src in range(self._n):
            self._bfs_from(src)
            mat[src] = self._hops_cache[src]
        return mat


def reference_as_delay(topology, routing, config):
    """The seed ``LatencyModel._build_as_delay_matrix``: per-pair path
    reconstruction plus a scalar accumulation loop."""
    n = topology.n_ases
    geo = pairwise_distances(topology.positions_array())
    mat = np.zeros((n, n), dtype=float)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                mat[src, dst] = config.intra_as_ms
                continue
            path = routing.path(src, dst)
            prop = 0.0
            for a, b in zip(path, path[1:]):
                prop += geo[a, b] * config.propagation_ms_per_km
                prop += config.per_link_router_ms
            prop += config.intra_as_ms * len(path)
            mat[src, dst] = prop
    return 0.5 * (mat + mat.T)


@pytest.fixture(scope="module", params=SEEDS)
def pair(request):
    topo = generate_topology(TopologyConfig(seed=request.param))
    return topo, ASRouting(topo), ReferenceRouting(topo)


def test_hop_matrix_bit_identical(pair):
    _topo, fast, ref = pair
    fast_mat = fast.hop_matrix()
    ref_mat = ref.hop_matrix()
    assert fast_mat.dtype == ref_mat.dtype
    assert np.array_equal(fast_mat, ref_mat)


def test_every_path_identical(pair):
    topo, fast, ref = pair
    n = topo.n_ases
    for src in range(n):
        for dst in range(n):
            assert fast.path(src, dst) == ref.path(src, dst), (src, dst)


def test_hops_match_paths(pair):
    topo, fast, ref = pair
    n = topo.n_ases
    for src in range(0, n, 3):
        for dst in range(0, n, 2):
            assert fast.hops(src, dst) == ref.hops(src, dst)


def test_as_delay_matrix_bit_identical(pair):
    topo, fast, ref = pair
    cfg = LatencyConfig()
    model = LatencyModel(topo, fast, cfg)
    expected = reference_as_delay(topo, ref, cfg)
    got = model.as_delay
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected), np.abs(got - expected).max()


def test_as_delay_nondefault_config_bit_identical(pair):
    topo, fast, ref = pair
    cfg = LatencyConfig(
        propagation_ms_per_km=0.0123, per_link_router_ms=0.7, intra_as_ms=2.25
    )
    model = LatencyModel(topo, fast, cfg)
    expected = reference_as_delay(topo, ref, cfg)
    assert np.array_equal(model.as_delay, expected)


def test_host_latency_matrix_bit_identical(pair):
    topo, fast, ref = pair
    cfg = LatencyConfig()
    hosts = HostFactory(topo, rng=5).create_hosts(60)
    got = LatencyModel(topo, fast, cfg).delay_kernel(hosts).full_matrix()
    # the host matrix is the AS delay matrix plus vectorised host terms;
    # rebuilding it on top of the reference AS matrix must agree exactly
    expected = StreamingDelayKernel.from_hosts(
        hosts, reference_as_delay(topo, ref, cfg), cfg
    ).full_matrix()
    assert np.array_equal(got, expected)


def test_lazy_precompute_invalidate_roundtrip(pair):
    topo, fast, _ref = pair
    model = LatencyModel(topo, fast, LatencyConfig())
    assert model._as_delay is None  # lazy until first use
    first = model.as_delay
    assert model.as_delay is first  # built once
    # a model over re-routed (invalidated, then precomputed) routing
    # rebuilds the same matrix
    fast.invalidate()
    fast.precompute()
    second = LatencyModel(topo, fast, LatencyConfig()).as_delay
    assert np.array_equal(first, second)


def test_routing_invalidate_rebuilds_identically(pair):
    topo, fast, _ref = pair
    before = fast.hop_matrix().copy()
    p_before = fast.path(0, topo.n_ases - 1)
    fast.invalidate()
    assert np.array_equal(fast.hop_matrix(), before)
    assert fast.path(0, topo.n_ases - 1) == p_before
