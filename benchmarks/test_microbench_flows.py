"""Micro-benchmarks of the flow-level swarm data plane.

``test_flows_artifact`` runs the same single-torrent workload to full
completion on both data planes — the flow-level
:class:`~repro.overlay.bittorrent.FlowSwarmSimulation` and the
time-stepped :class:`~repro.overlay.bittorrent.SwarmSimulation`
— at N = 10^2 and 10^3 peers, and records wall-clock, peers/sec and the
per-size speedup in ``BENCH_flows.json`` at the repo root.  The headline
claim — the flow plane completes the 10^3-peer swarm >= 5x faster than
the reference — is asserted on every run.  Both planes run the identical
workload end to end (same underlay, torrent, tracker seeds); nothing is
extrapolated.

The allocator micro-benchmarks time one rate computation at realistic
epoch sizes: the closed-form single-link water-filling fast path (the
default access-bottlenecked configuration) and general progressive
filling over a CSR incidence (the capacitated-transit configuration).
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.overlay.bittorrent import (
    FlowSwarmSimulation,
    SwarmSimulation,
    Torrent,
    Tracker,
)
from repro.sim.flows import max_min_rates, single_link_waterfill
from repro.underlay.network import Underlay, UnderlayConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SIZES = (100, 1_000)
HEADLINE_SPEEDUP = 5.0
N_PIECES = 16  # CI-sized torrent; the speedup grows with torrent size
SEED = 5


def _setup(n_hosts: int):
    underlay = Underlay.generate(UnderlayConfig(n_hosts=n_hosts, seed=SEED))
    ids = underlay.host_ids()
    seeds = sorted(
        ids, key=lambda h: -underlay.host(h).resources.bandwidth_up_kbps
    )[:5]
    leechers = [h for h in ids if h not in seeds]
    torrent = Torrent(0, n_pieces=N_PIECES, piece_size_bytes=262144)
    return underlay, torrent, seeds, leechers


def _run_plane(impl: str, n_hosts: int) -> dict:
    underlay, torrent, seeds, leechers = _setup(n_hosts)
    tracker = Tracker(underlay, rng=SEED)
    if impl == "flow":
        swarm = FlowSwarmSimulation(underlay, torrent, tracker, rng=SEED)
    else:
        swarm = SwarmSimulation(underlay, torrent, tracker, rng=SEED)
    swarm.populate(leechers, seeds)
    t0 = time.perf_counter()
    report = swarm.run(max_time_s=7200.0)
    wall = time.perf_counter() - t0
    assert report.completed == report.total_leechers
    return {
        "n_peers": n_hosts,
        "wall_s": round(wall, 3),
        "peers_per_sec": round(n_hosts / wall, 1),
        "completed": report.completed,
        "sim_duration_s": round(report.duration_s, 1),
        "median_download_s": round(report.median_download_time_s, 1),
    }


def _allocator_workload() -> dict:
    """One allocation at a realistic epoch size: 10^3 peers x 5 unchoke
    slots = 5x10^3 flows over 2x10^3 access links."""
    rng = np.random.default_rng(0)
    n_peers, n_flows = 1_000, 5_000
    down_caps = rng.uniform(1e5, 1e7, size=n_peers)
    up_caps = rng.uniform(1e5, 1e7, size=n_peers)
    link_of_flow = rng.integers(0, n_peers, size=n_flows)
    flow_cap = up_caps[rng.integers(0, n_peers, size=n_flows)] / 5.0

    t0 = time.perf_counter()
    for _ in range(20):
        single_link_waterfill(down_caps, link_of_flow, flow_cap)
    fast_ms = (time.perf_counter() - t0) / 20 * 1e3

    up_of_flow = rng.integers(0, n_peers, size=n_flows)
    indptr = np.arange(0, 2 * n_flows + 1, 2, dtype=np.int64)
    indices = np.empty(2 * n_flows, dtype=np.int64)
    indices[0::2] = up_of_flow
    indices[1::2] = n_peers + link_of_flow
    capacity = np.concatenate([up_caps, down_caps])
    t0 = time.perf_counter()
    for _ in range(5):
        max_min_rates(capacity, indptr, indices, flow_cap)
    general_ms = (time.perf_counter() - t0) / 5 * 1e3

    return {
        "n_flows": n_flows,
        "waterfill_ms": round(fast_ms, 3),
        "progressive_filling_ms": round(general_ms, 3),
        "fast_path_speedup": round(general_ms / fast_ms, 1),
    }


def test_waterfill_epoch(benchmark):
    rng = np.random.default_rng(0)
    down_caps = rng.uniform(1e5, 1e7, size=1_000)
    link_of_flow = rng.integers(0, 1_000, size=5_000)
    flow_cap = rng.uniform(1e4, 1e6, size=5_000)
    rates = benchmark(single_link_waterfill, down_caps, link_of_flow, flow_cap)
    assert np.all(rates <= flow_cap * (1 + 1e-9))


def test_flows_artifact():
    """Record full-completion wall clock for both data planes in
    BENCH_flows.json and hold the headline claim: >= 5x at N = 10^3."""
    artifact: dict = {
        "workload": {
            "n_pieces": N_PIECES,
            "piece_size_bytes": 262144,
            "n_seeds": 5,
            "note": "identical full-completion runs on both planes; "
            "no extrapolation",
        },
        "planes": {"flow": {}, "reference": {}},
    }
    for n in SIZES:
        for impl in ("flow", "reference"):
            artifact["planes"][impl][f"n_{n}"] = _run_plane(impl, n)

    speedups = {
        f"n_{n}": round(
            artifact["planes"]["reference"][f"n_{n}"]["wall_s"]
            / artifact["planes"]["flow"][f"n_{n}"]["wall_s"],
            2,
        )
        for n in SIZES
    }
    artifact["allocator"] = _allocator_workload()
    artifact["headline"] = {
        "speedup": speedups,
        "claim": "flow plane completes the 10^3-peer swarm >= 5x faster "
        "than the time-stepped reference",
    }
    (REPO_ROOT / "BENCH_flows.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    assert speedups["n_1000"] >= HEADLINE_SPEEDUP, artifact["headline"]
