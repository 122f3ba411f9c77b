"""Open- and closed-loop load drivers with SLO accounting.

The drivers issue protocol operations (Kademlia store/retrieve,
Gnutella search — see :mod:`repro.service.ops`) against a running
:class:`~repro.sim.engine.Simulation` and record per-operation latency
and success:

- :class:`OpenLoopDriver` issues operations at the times of an
  :class:`~repro.service.arrivals.ArrivalProcess`, *independently of
  completions* — the only loop shape that exposes saturation, because a
  closed loop slows its own offered load down when the service degrades
  (coordinated omission).  Latency is measured from the scheduled
  arrival, so time spent queued behind a saturated peer counts.
- :class:`ClosedLoopDriver` runs ``n_workers`` think-time loops — the
  locust-style shape used to measure best-case service capacity.

Per-peer capacity is modelled client-side: at most
``concurrency_per_origin`` operations of one origin run concurrently;
excess arrivals wait in a FIFO queue (the knob that turns offered
overload into the queueing delay a saturation-knee sweep measures).

Every operation is kept as an :class:`OpRecord`; reports quote
p50/p95/p99 over successful operations plus throughput.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.metrics.latency_metrics import delay_percentiles
from repro.rng import SeedLike, ensure_rng
from repro.service.arrivals import ArrivalProcess
from repro.sim.engine import EventHandle, Simulation

#: Percentiles every load report quotes.
SLO_PERCENTILES: tuple[float, ...] = (50, 95, 99)

#: ``on_done(ok)`` completion callback handed to an op's issue function.
DoneFn = Callable[[bool], None]


@dataclass(frozen=True)
class OpSpec:
    """One operation type in a driver's mix.

    ``pick_origin(rng)`` chooses the issuing peer (capacity is accounted
    per origin); ``issue(origin, on_done)`` starts the protocol
    operation and must eventually call ``on_done(ok)`` exactly once
    (extra calls are ignored — late replies after a timeout are normal).
    """

    name: str
    weight: float
    pick_origin: Callable[[np.random.Generator], Hashable]
    issue: Callable[[Hashable, DoneFn], None]

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(f"op weight must be positive: {self.name}")


@dataclass
class OpRecord:
    """Lifecycle of one issued operation (sim-clock ms)."""

    kind: str
    arrived_at: float
    started_at: float = math.nan
    finished_at: float = math.nan
    status: str = "pending"  # pending|ok|fail|timeout|unfinished
    _released: bool = field(default=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion latency (includes client queue wait)."""
        return self.finished_at - self.arrived_at


def _latency_summary(samples: Sequence[float]) -> dict[str, float]:
    if not samples:
        return {key: math.nan for key in ("mean", "p50", "p95", "p99")}
    out = delay_percentiles(samples, SLO_PERCENTILES)
    out["mean"] = float(np.mean(samples))
    return out


@dataclass
class LoadReport:
    """Aggregate outcome of one drive: counts, throughput, percentiles."""

    mode: str
    duration_ms: float
    offered: int
    issued: int
    succeeded: int
    failed: int
    timed_out: int
    unfinished: int
    throughput_per_s: float
    success_rate: float
    latency_ms: dict[str, float]
    per_kind: dict[str, dict[str, float]]

    @property
    def offered_per_s(self) -> float:
        return self.offered / (self.duration_ms / 1000.0)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe dict (what ``Bootstrapper.stats`` embeds)."""
        return {
            "mode": self.mode,
            "duration_ms": self.duration_ms,
            "offered": self.offered,
            "offered_per_s": round(self.offered_per_s, 3),
            "issued": self.issued,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "unfinished": self.unfinished,
            "throughput_per_s": round(self.throughput_per_s, 3),
            "success_rate": round(self.success_rate, 4),
            "latency_ms": {
                k: (None if math.isnan(v) else round(v, 3))
                for k, v in self.latency_ms.items()
            },
            "per_kind": {
                kind: {
                    k: (None if isinstance(v, float) and math.isnan(v) else v)
                    for k, v in stats.items()
                }
                for kind, stats in self.per_kind.items()
            },
        }


class _CapacityGate:
    """Per-origin concurrency limiter with FIFO overflow queues."""

    def __init__(self, concurrency: Optional[int]) -> None:
        if concurrency is not None and concurrency < 1:
            raise ConfigurationError("concurrency_per_origin must be >= 1")
        self.concurrency = concurrency
        self._inflight: dict[Hashable, int] = {}
        self._queues: dict[Hashable, deque] = {}

    def submit(self, origin: Hashable, start: Callable[[], None]) -> None:
        if self.concurrency is None:
            start()
            return
        if self._inflight.get(origin, 0) < self.concurrency:
            self._inflight[origin] = self._inflight.get(origin, 0) + 1
            start()
        else:
            self._queues.setdefault(origin, deque()).append(start)

    def release(self, origin: Hashable) -> None:
        if self.concurrency is None:
            return
        queue = self._queues.get(origin)
        if queue:
            queue.popleft()()  # slot passes straight to the next waiter
        else:
            self._inflight[origin] -= 1


class _DriverBase:
    """Shared machinery: weighted op choice, lifecycle, report."""

    mode = "abstract"

    def __init__(
        self,
        sim: Simulation,
        ops: Sequence[OpSpec],
        *,
        duration_ms: float,
        timeout_ms: Optional[float],
        concurrency_per_origin: Optional[int],
        rng: SeedLike,
    ) -> None:
        if not ops:
            raise ConfigurationError("need at least one op in the mix")
        if duration_ms <= 0:
            raise ConfigurationError("duration must be positive")
        if timeout_ms is not None and timeout_ms <= 0:
            raise ConfigurationError("timeout must be positive")
        self.sim = sim
        self.ops = list(ops)
        self.duration_ms = float(duration_ms)
        self.timeout_ms = timeout_ms
        self._gate = _CapacityGate(concurrency_per_origin)
        self._rng = ensure_rng(rng)
        self._weights = np.cumsum([spec.weight for spec in self.ops])
        self.records: list[OpRecord] = []

    # -- op lifecycle --------------------------------------------------------
    def _choose(self) -> OpSpec:
        u = self._rng.uniform(0.0, float(self._weights[-1]))
        return self.ops[int(np.searchsorted(self._weights, u, side="right"))]

    def _launch(self) -> OpRecord:
        spec = self._choose()
        origin = spec.pick_origin(self._rng)
        record = OpRecord(kind=spec.name, arrived_at=self.sim.now)
        self.records.append(record)
        deadline: Optional[EventHandle] = None
        if self.timeout_ms is not None:
            deadline = self.sim.schedule(
                self.timeout_ms, self._on_timeout, record, origin
            )

        def start() -> None:
            if record.status != "pending":
                # timed out while queued: give the slot straight back
                self._gate.release(origin)
                return
            record.started_at = self.sim.now
            spec.issue(origin, done)

        def done(ok: bool) -> None:
            if record.status != "pending":
                return  # late completion after timeout/drain — ignored
            if deadline is not None:
                deadline.cancel()
            self._finalize(record, "ok" if ok else "fail")
            if not record._released:
                record._released = True
                self._gate.release(origin)

        self._gate.submit(origin, start)
        return record

    def _on_timeout(self, record: OpRecord, origin: Hashable) -> None:
        if record.status != "pending":
            return
        self._finalize(record, "timeout")
        if not record._released and not math.isnan(record.started_at):
            # the op held a slot: the client abandons it and frees the slot
            record._released = True
            self._gate.release(origin)
        elif math.isnan(record.started_at):
            # still queued: mark released so the queued start() is a no-op
            record._released = True

    def _finalize(self, record: OpRecord, status: str) -> None:
        record.status = status
        record.finished_at = self.sim.now
        self._on_finalized(record)

    def _on_finalized(self, record: OpRecord) -> None:
        """Hook for subclasses (closed loop chains the next op here)."""

    def _sweep_unfinished(self) -> None:
        for record in self.records:
            if record.status == "pending":
                self._finalize(record, "unfinished")

    def _report(self, offered: int) -> LoadReport:
        by_status: dict[str, int] = {}
        for r in self.records:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        oks = [r.latency_ms for r in self.records if r.ok]
        per_kind: dict[str, dict[str, float]] = {}
        for spec in self.ops:
            mine = [r for r in self.records if r.kind == spec.name]
            if not mine:
                continue
            stats = _latency_summary([r.latency_ms for r in mine if r.ok])
            stats["issued"] = len(mine)
            stats["succeeded"] = sum(1 for r in mine if r.ok)
            per_kind[spec.name] = stats
        issued = len(self.records)
        succeeded = by_status.get("ok", 0)
        return LoadReport(
            mode=self.mode,
            duration_ms=self.duration_ms,
            offered=offered,
            issued=issued,
            succeeded=succeeded,
            failed=by_status.get("fail", 0),
            timed_out=by_status.get("timeout", 0),
            unfinished=by_status.get("unfinished", 0),
            throughput_per_s=succeeded / (self.duration_ms / 1000.0),
            success_rate=succeeded / issued if issued else 0.0,
            latency_ms=_latency_summary(oks),
            per_kind=per_kind,
        )


class OpenLoopDriver(_DriverBase):
    """Issue operations at an arrival process's times, ignoring completions."""

    mode = "open"

    def __init__(
        self,
        sim: Simulation,
        ops: Sequence[OpSpec],
        arrivals: ArrivalProcess,
        *,
        duration_ms: float = 30_000.0,
        timeout_ms: Optional[float] = 30_000.0,
        concurrency_per_origin: Optional[int] = None,
        rng: SeedLike = None,
    ) -> None:
        super().__init__(
            sim,
            ops,
            duration_ms=duration_ms,
            timeout_ms=timeout_ms,
            concurrency_per_origin=concurrency_per_origin,
            rng=rng,
        )
        self.arrivals = arrivals

    def run(self, *, drain_ms: float = 30_000.0) -> LoadReport:
        """Schedule the whole arrival sequence, run the sim through the
        window plus ``drain_ms``, and report.  Operations still pending
        at the end count as ``unfinished`` (a saturated service shows up
        here, not as silently dropped samples)."""
        times = self.arrivals.times(self.duration_ms)
        self.sim.schedule_many((float(t), self._launch, ()) for t in times)
        self.sim.run(until=self.sim.now + self.duration_ms + drain_ms)
        self._sweep_unfinished()
        return self._report(offered=len(times))


class ClosedLoopDriver(_DriverBase):
    """``n_workers`` issue-wait-think loops (locust-style virtual users)."""

    mode = "closed"

    def __init__(
        self,
        sim: Simulation,
        ops: Sequence[OpSpec],
        *,
        n_workers: int = 8,
        think_time_ms: float = 0.0,
        duration_ms: float = 30_000.0,
        timeout_ms: float = 30_000.0,
        concurrency_per_origin: Optional[int] = None,
        rng: SeedLike = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError("need at least one worker")
        if think_time_ms < 0:
            raise ConfigurationError("think time must be non-negative")
        if timeout_ms is None:
            raise ConfigurationError(
                "closed-loop driving requires a timeout (a lost reply "
                "would halt the worker forever)"
            )
        super().__init__(
            sim,
            ops,
            duration_ms=duration_ms,
            timeout_ms=timeout_ms,
            concurrency_per_origin=concurrency_per_origin,
            rng=rng,
        )
        self.n_workers = n_workers
        self.think_time_ms = float(think_time_ms)
        self._t_end = 0.0

    def run(self, *, drain_ms: float = 30_000.0) -> LoadReport:
        self._t_end = self.sim.now + self.duration_ms
        # stagger worker starts so they do not phase-lock on an idle sim
        starts = np.sort(self._rng.uniform(0.0, 100.0, size=self.n_workers))
        self.sim.schedule_many(
            (float(t), self._worker_tick, ()) for t in starts
        )
        self.sim.run(until=self._t_end + drain_ms)
        self._sweep_unfinished()
        return self._report(offered=len(self.records))

    def _worker_tick(self) -> None:
        if self.sim.now >= self._t_end:
            return  # the worker retires at the end of the window
        self._launch()

    def _on_finalized(self, record: OpRecord) -> None:
        if record.status == "unfinished":
            return
        # floor of 1 ms so a chain of synchronously-completing ops (e.g.
        # local-storage hits) cannot spin the loop without advancing time
        self.sim.schedule(max(self.think_time_ms, 1.0), self._worker_tick)
