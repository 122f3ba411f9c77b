"""SERVICE — SLO percentiles under realistic arrival processes (§6).

The survey's evaluation chapters benchmark overlays with batch sweeps:
fire N lookups, average the latency.  A deployed P2P service is judged
differently — by the tail of its latency distribution under *traffic*,
i.e. operations arriving as a stochastic process while earlier ones are
still in flight.  This experiment drives both overlays as services:

- **Kademlia** store/retrieve (70/30 read-heavy mix by default), via
  :class:`~repro.service.ops.KademliaServiceOps`;
- **Gnutella** keyword search (time-to-first-hit), via
  :class:`~repro.service.ops.GnutellaServiceOps`;

each under three open-loop arrival processes at equal mean offered load
(Poisson baseline, heavy-tailed Pareto, diurnally-modulated Poisson —
:mod:`repro.service.arrivals`) plus one closed-loop arm (fixed worker
pool) as the contrast case that *cannot* exhibit coordinated omission
by construction.  Every cell stands its own population up through
:class:`~repro.service.bootstrap.Bootstrapper` and reports offered vs
achieved throughput, success rate, and p50/p95/p99 latency measured
from the *scheduled arrival time* (client queue wait included, so open-loop
percentiles are coordinated-omission-free).

Expected shape: at equal mean rate the heavy-tail and diurnal arms show
the same p50 but a fatter p99 than Poisson — bursts queue behind the
per-origin concurrency gate — and the closed-loop arm shows the highest
success rate at the lowest offered rate, since its workers self-clock.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.common import ExperimentResult
from repro.runner import run_arms
from repro.service.bootstrap import Bootstrapper, ServiceConfig

OVERLAY_ARMS = ("kademlia", "gnutella")
PROCESS_ARMS = ("poisson", "pareto", "diurnal")


def _run_cell(
    overlay: str,
    mode: str,
    process: str,
    seed: int,
    *,
    n_hosts: int,
    rate_per_s: float,
    duration_ms: float,
    settle_ms: float,
    drain_ms: float,
    timeout_ms: float,
    n_workers: int,
) -> dict[str, Any]:
    """One (overlay, mode, process) cell: bootstrap a fresh population
    and run a single load drive against it."""
    boot = Bootstrapper(
        ServiceConfig(overlay=overlay, n_hosts=n_hosts, seed=seed,
                      settle_ms=settle_ms)
    )
    boot.build()
    if mode == "open":
        report = boot.drive_sync(
            mode="open", process=process, rate_per_s=rate_per_s,
            duration_ms=duration_ms, drain_ms=drain_ms, timeout_ms=timeout_ms,
        )
    else:
        report = boot.drive_sync(
            mode="closed", n_workers=n_workers,
            duration_ms=duration_ms, drain_ms=drain_ms, timeout_ms=timeout_ms,
        )
    boot.stop_sync()
    row: dict[str, Any] = {
        "overlay": overlay,
        "mode": mode,
        "process": process if mode == "open" else "-",
        "rate_per_s": rate_per_s if mode == "open" else float(n_workers),
    }
    rep = report.as_dict()
    for field in ("offered", "offered_per_s", "throughput_per_s",
                  "success_rate", "timed_out", "unfinished"):
        row[field] = rep[field]
    row.update(rep["latency_ms"])
    return row


def run_service_slo(
    n_hosts: int = 48,
    seed: int = 31,
    *,
    smoke: bool = False,
    rate_per_s: float = 30.0,
    duration_ms: float = 30_000.0,
    settle_ms: float = 30_000.0,
    drain_ms: float = 30_000.0,
    timeout_ms: float = 20_000.0,
    n_workers: int = 8,
    workers: int | None = None,
) -> ExperimentResult:
    """Sweep arrival processes × overlays through the service layer.

    ``smoke=True`` shrinks populations and windows to a seconds-scale CI
    check over the identical code path.  Cells are independent (each
    bootstraps its own population) and fan out through
    :func:`repro.runner.run_arms`; every cell derives its seed from its
    grid position, so rows are identical at any worker count.
    """
    if smoke:
        n_hosts = min(n_hosts, 24)
        rate_per_s = min(rate_per_s, 15.0)
        duration_ms = min(duration_ms, 8_000.0)
        settle_ms = min(settle_ms, 10_000.0)
        drain_ms = min(drain_ms, 10_000.0)
        # keep the op deadline inside the drain window so no-hit
        # searches report as timeouts rather than unfinished
        timeout_ms = min(timeout_ms, 8_000.0)
        n_workers = min(n_workers, 4)
    result = ExperimentResult(
        "SERVICE",
        "Service-level SLO percentiles under open- and closed-loop load",
    )
    grid: list[tuple[str, str, str]] = [
        (overlay, "open", process)
        for overlay in OVERLAY_ARMS
        for process in PROCESS_ARMS
    ] + [(overlay, "closed", "-") for overlay in OVERLAY_ARMS]

    def run_cell(spec: tuple[str, str, str]) -> dict[str, Any]:
        overlay, mode, process = spec
        cell_seed = seed + 101 * grid.index(spec)
        return _run_cell(
            overlay, mode, process, cell_seed,
            n_hosts=n_hosts, rate_per_s=rate_per_s, duration_ms=duration_ms,
            settle_ms=settle_ms, drain_ms=drain_ms, timeout_ms=timeout_ms,
            n_workers=n_workers,
        )

    for row in run_arms(run_cell, grid, workers=workers):
        result.add_row(**row)

    by_tail = {}
    for row in result.rows:
        if row["mode"] == "open" and row["overlay"] == "kademlia":
            by_tail[row["process"]] = row["p99"]
    if by_tail:
        result.notes.append(
            "kademlia open-loop p99 by arrival process: "
            + ", ".join(f"{k}={v:.0f}ms" for k, v in sorted(by_tail.items()))
        )
    return result
