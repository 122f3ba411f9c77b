"""Streaming delay kernel: the one host-delay formula.

The contract under test is *bit-identical values across every delay
path*: the scalar oracle :func:`reference_one_way_delay` below,
``Underlay.latency_matrix`` (all-pairs, the one way an ``Underlay``
serves delays), and ``StreamingDelayKernel.delay_row``/``delay_block``
— plus the matrix's host cap, and the O(rows x cols)-memory claim of
``delay_block`` at 10^5 hosts (``-m scale``).
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.underlay import (
    MATRIX_HOST_CAP,
    LatencyModel,
    StreamingDelayKernel,
    Underlay,
    UnderlayConfig,
    latency,
    pair_jitter,
)
from repro.underlay.hosts import Host


def reference_one_way_delay(
    model: LatencyModel, host_a: Host, host_b: Host
) -> float:
    """Scalar one-way delay between two hosts (ms), written out term by
    term: access latencies + AS-path delay (+ metro propagation inside a
    shared AS), times the pair's :func:`pair_jitter` multiplier.  The
    self-pair delay is 0.0, the kernel's value (the scalar path in
    ``src/`` used to return 0.05 there)."""
    if host_a.host_id == host_b.host_id:
        return 0.0
    cfg = model.config
    base = (
        host_a.access_latency_ms
        + host_b.access_latency_ms
        + model.as_pair_delay(host_a.asn, host_b.asn)
    )
    if host_a.asn == host_b.asn:
        # dx*dx+dy*dy mirrors the einsum reduction of the kernel exactly
        dx = host_a.position.x - host_b.position.x
        dy = host_a.position.y - host_b.position.y
        base = base + np.sqrt(dx * dx + dy * dy) * cfg.propagation_ms_per_km
    mult = float(
        pair_jitter(
            np.array([host_a.host_id], dtype=np.uint64),
            np.array([host_b.host_id], dtype=np.uint64),
            jitter_seed=cfg.jitter_seed,
            jitter_std_frac=cfg.jitter_std_frac,
        )[0]
    )
    return float(base * mult)


@functools.lru_cache(maxsize=8)
def _underlay(n_hosts: int, seed: int) -> Underlay:
    return Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=seed))


# -- the jitter kernel itself -------------------------------------------------

def test_pair_jitter_symmetric_and_deterministic():
    a = np.arange(100, dtype=np.uint64)
    b = np.arange(100, 200, dtype=np.uint64)
    j1 = pair_jitter(a, b, jitter_seed=7, jitter_std_frac=0.08)
    j2 = pair_jitter(b, a, jitter_seed=7, jitter_std_frac=0.08)
    assert np.array_equal(j1, j2)  # sorted-pair hash: direction-free
    assert np.array_equal(
        j1, pair_jitter(a, b, jitter_seed=7, jitter_std_frac=0.08)
    )
    # a different seed is a different multiplier field
    j3 = pair_jitter(a, b, jitter_seed=8, jitter_std_frac=0.08)
    assert not np.array_equal(j1, j3)


def test_pair_jitter_distribution_shape():
    n = 20_000
    a = np.zeros(n, dtype=np.uint64)
    b = np.arange(1, n + 1, dtype=np.uint64)
    j = pair_jitter(a, b, jitter_seed=3, jitter_std_frac=0.08)
    assert (j >= 0.5).all() and (j <= 2.0).all()
    assert abs(j.mean() - 1.0) < 0.01
    assert abs(j.std() - 0.08) < 0.01


def test_pair_jitter_zero_std_is_ones():
    a = np.arange(10, dtype=np.uint64)
    j = pair_jitter(a, a + 1, jitter_seed=7, jitter_std_frac=0.0)
    assert np.array_equal(j, np.ones(10))


# -- scalar == matrix == row: the PR 9 consistency fix ------------------------

@pytest.mark.parametrize("seed", [0, 11, 42])
def test_scalar_matrix_row_agree_bitwise(seed):
    """The seed bug: the scalar path drew per-pair RNG jitter while the
    matrix path hashed counters, so ``one_way_delay`` disagreed with the
    matrix entry.  All paths now share :func:`pair_jitter` and must
    agree *bitwise* with the scalar oracle for every sampled pair,
    self-pairs included."""
    u = _underlay(40, seed)
    mat = u.latency_matrix
    kernel = u.delay_kernel
    rng = np.random.default_rng(seed)
    n = len(u.hosts)
    for _ in range(50):
        i, j = rng.integers(0, n, size=2)
        scalar = reference_one_way_delay(u.latency, u.hosts[i], u.hosts[j])
        assert mat[i, j] == scalar
        assert u.one_way_delay(u.hosts[i].host_id, u.hosts[j].host_id) == scalar
        assert kernel.delay_row(int(i), [int(j)])[0] == scalar


def test_matrix_is_symmetric_with_zero_diagonal():
    u = _underlay(40, 5)
    mat = u.latency_matrix
    assert np.array_equal(mat, mat.T)
    assert np.array_equal(np.diag(mat), np.zeros(len(u.hosts)))


# -- property: streamed blocks == matrix entries ------------------------------

@settings(max_examples=20, deadline=None)
@given(
    n_hosts=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_stream_block_matches_matrix_entrywise(n_hosts, seed, data):
    u = _underlay(n_hosts, seed)
    mat = u.latency_matrix
    kernel = u.delay_kernel
    idx = st.integers(min_value=0, max_value=len(u.hosts) - 1)
    rows = data.draw(st.lists(idx, min_size=1, max_size=6))
    cols = data.draw(st.lists(idx, min_size=1, max_size=6))
    block = kernel.delay_block(rows, cols)
    assert np.array_equal(block, mat[np.ix_(rows, cols)])
    row = data.draw(idx)
    assert np.array_equal(kernel.delay_row(row, cols), mat[row, cols])


# -- the matrix's host cap -----------------------------------------------------

def test_latency_matrix_refused_above_the_cap():
    """Above ``MATRIX_HOST_CAP`` hosts the matrix is a refusal naming
    the memory it would need, not a second way to serve delays; the
    kernel still computes any block there."""
    u = _underlay(30, 1)
    hosts = [
        dataclasses.replace(u.hosts[i % 30], host_id=i)
        for i in range(MATRIX_HOST_CAP + 1)
    ]
    big = Underlay(u.topology, hosts)
    with pytest.raises(ConfigurationError, match=r"refusing .* 3\.0 GiB"):
        big.latency_matrix
    with pytest.raises(ConfigurationError, match="refusing"):
        big.one_way_delay(0, 1)
    block = big.delay_kernel.delay_block([0, MATRIX_HOST_CAP], [0, 1, 2])
    assert block.shape == (2, 3) and block[0, 0] == 0.0 and block[1, 0] > 0


def test_one_kernel_per_underlay(monkeypatch):
    """Counted work, not time: every delay read of one underlay — the
    matrix, the RTT matrix, scalar and row lookups, kernel rows — comes
    from one kernel, built once over one AS-delay BFS.  At the parent
    ``StreamingDelayKernel.from_hosts`` ran twice here, because
    ``LatencyModel.latency_matrix`` built a private kernel for the
    matrix beside the one ``Underlay.delay_kernel`` held."""
    from repro.underlay.routing import ASRouting

    built = {"from_hosts": 0, "as_delay_bfs": 0}
    from_hosts = StreamingDelayKernel.from_hosts.__func__
    delay_matrix = ASRouting.delay_matrix

    def counting_from_hosts(cls, *args, **kwargs):
        built["from_hosts"] += 1
        return from_hosts(cls, *args, **kwargs)

    def counting_delay_matrix(self, *args, **kwargs):
        built["as_delay_bfs"] += 1
        return delay_matrix(self, *args, **kwargs)

    monkeypatch.setattr(
        StreamingDelayKernel, "from_hosts", classmethod(counting_from_hosts)
    )
    monkeypatch.setattr(ASRouting, "delay_matrix", counting_delay_matrix)

    u = Underlay.generate(UnderlayConfig(n_hosts=60, seed=21))
    ids = u.host_ids()
    mat = u.latency_matrix
    assert np.array_equal(u.rtt_matrix(), 2.0 * mat)
    assert u.one_way_delay(ids[3], ids[7]) == mat[3, 7]
    assert np.array_equal(u.one_way_delay_row(ids[3], ids), mat[3])
    assert np.array_equal(u.delay_kernel.delay_row(3, range(60)), mat[3])
    assert built == {"from_hosts": 1, "as_delay_bfs": 1}
    # the self-pair delay is the kernel's 0.0, and the oracle agrees
    assert u.one_way_delay(ids[5], ids[5]) == 0.0
    assert reference_one_way_delay(u.latency, u.hosts[5], u.hosts[5]) == 0.0


def _column_bytes(kernel: StreamingDelayKernel) -> int:
    """Bytes in the kernel's SoA columns (the shared AS-delay matrix
    left out)."""
    return sum(
        col.nbytes
        for col in (kernel.host_ids, kernel.asns, kernel.access_ms, kernel.positions)
    )


def test_kernel_memory_is_linear_in_hosts():
    u = _underlay(50, 2)
    per_host = _column_bytes(u.delay_kernel) / len(u.hosts)
    # uint64 + int64 + float64 + 2x float64 = 40 bytes of columns per host
    assert per_host == 40.0


def test_kernel_rejects_mismatched_columns():
    u = _underlay(30, 1)
    k = u.delay_kernel
    with pytest.raises(ConfigurationError):
        StreamingDelayKernel(
            k.host_ids, k.asns[:-1], k.access_ms, k.positions,
            k.as_delay, k.config,
        )


# -- full_matrix blocks: bit-identical to one block, each within BUDGET --------

_BLOCK = 16


@pytest.mark.parametrize("n_hosts", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_full_matrix_equals_one_block_at_block_edges(n_hosts, monkeypatch):
    """``BUDGET`` is set so every block holds ``_BLOCK`` rows: the matrix
    is one short block, one exact block, or a block plus one row."""
    u = _underlay(n_hosts, 3)
    monkeypatch.setattr(latency, "BUDGET", 8 * n_hosts * _BLOCK)
    assert latency.block_rows(n_hosts) == _BLOCK
    everyone = range(n_hosts)
    whole = u.delay_kernel.delay_block(everyone, everyone)
    assert np.array_equal(u.delay_kernel.full_matrix(), whole)


def test_full_matrix_equals_one_block_at_the_real_budget():
    u = _underlay(600, 11)  # the gnutella_oracle_600 population
    everyone = range(600)
    assert latency.block_rows(600) < 600  # several blocks
    assert np.array_equal(
        u.delay_kernel.full_matrix(), u.delay_kernel.delay_block(everyone, everyone)
    )


def test_every_block_stays_within_budget(monkeypatch):
    """Counted at 600 hosts: the blocks ``full_matrix`` asks for cover the
    rows in order and none exceeds ``BUDGET`` bytes.  At the cap only the
    row arithmetic is checked; nothing is built there."""
    kernel = _underlay(600, 11).delay_kernel
    shapes = []
    delay_block = StreamingDelayKernel.delay_block

    def counting_block(self, rows, cols):
        shapes.append((rows[0], len(rows), len(cols)))
        return delay_block(self, rows, cols)

    monkeypatch.setattr(StreamingDelayKernel, "delay_block", counting_block)
    kernel.full_matrix()
    assert [start for start, _, _ in shapes] == list(
        range(0, 600, latency.block_rows(600))
    )
    assert sum(rows for _, rows, _ in shapes) == 600
    assert all(rows * cols * 8 <= latency.BUDGET for _, rows, cols in shapes)

    rows = latency.block_rows(MATRIX_HOST_CAP)
    assert 1 <= rows and rows * MATRIX_HOST_CAP * 8 <= latency.BUDGET


# -- 10^5-host smoke: O(rows x cols) memory, oracle-exact rows (-m scale) -----

def _scale_probe(n_hosts: int) -> dict:
    """Forked-child body: build a 10^5-host underlay (far above the
    matrix cap) and compute delay rows with ``delay_block``; peak RSS
    stays O(n + rows x cols) (the matrix would be ~75 GiB)."""
    u = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=17))
    kernel = u.delay_kernel
    cols = list(range(0, n_hosts, max(1, n_hosts // 4096)))[:4096]
    rows = kernel.delay_block([0, n_hosts // 2, n_hosts - 1], cols)
    oracle_ok = all(
        rows[0, c] == reference_one_way_delay(u.latency, u.hosts[0], u.hosts[cols[c]])
        for c in (1, 100, 1000)
    )
    return {
        "n_hosts": n_hosts,
        "oracle_ok": bool(oracle_ok),
        "row_finite": bool(np.isfinite(rows).all()),
        "kernel_mb": _column_bytes(kernel) / 2**20,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


@pytest.mark.scale
def test_delay_rows_at_1e5_hosts_bounded_rss():
    ctx = multiprocessing.get_context("fork")
    rx, tx = ctx.Pipe(duplex=False)

    def run() -> None:
        tx.send(_scale_probe(100_000))
        tx.close()

    proc = ctx.Process(target=run)
    proc.start()
    result = rx.recv()
    proc.join()
    assert proc.exitcode == 0
    assert result["oracle_ok"] and result["row_finite"]
    assert result["kernel_mb"] < 8.0  # 40 B/host of SoA columns
    # the full matrix would be ~75 GiB; delay_block must stay O(rows x cols)
    assert result["peak_rss_mb"] < 2048, result


# -- 5,000-host matrix build: the matrix plus bounded scratch (-m scale) -------

def _matrix_build_probe(n_hosts: int) -> dict:
    """Forked-child body: RSS growth while ``latency_matrix`` is built,
    from the resident size just before to the peak after."""
    u = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=11))
    page = resource.getpagesize()
    with open("/proc/self/statm") as fh:
        rss_before = int(fh.read().split()[1]) * page
    mat = u.latency_matrix
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {"growth": peak - rss_before, "matrix": mat.nbytes}


@pytest.mark.scale
def test_matrix_build_at_5000_hosts_needs_the_matrix_plus_64_mib():
    """Before blocks were sized in bytes, one 2,048-row block at 5,000
    hosts held ~13 block-sized temporaries: 1,035 MiB of growth for a
    191 MiB matrix."""
    ctx = multiprocessing.get_context("fork")
    rx, tx = ctx.Pipe(duplex=False)

    def run() -> None:
        tx.send(_matrix_build_probe(5000))
        tx.close()

    proc = ctx.Process(target=run)
    proc.start()
    result = rx.recv()
    proc.join()
    assert proc.exitcode == 0
    assert result["matrix"] == 5000 * 5000 * 8
    assert result["growth"] <= result["matrix"] + 64 * 2**20, result
