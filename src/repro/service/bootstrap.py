"""Asyncio bootstrapper: stand a node population up as a *service*.

Batch experiments construct an underlay, an overlay, and a workload in
one script and tear everything down at the end.  A deployed P2P service
is operated differently: a control plane stands the population up,
traffic is driven against it, percentiles are read off, more traffic is
driven, and eventually the service is drained and stopped.
:class:`Bootstrapper` is that control plane — an asyncio front end over
the synchronous simulator, so an operator (or a test harness, or a CI
job) can do::

    boot = Bootstrapper(ServiceConfig(overlay="kademlia", n_hosts=64))
    await boot.start()                       # build + bootstrap + settle
    report = await boot.drive(process="poisson", rate_per_s=40.0)
    print(report.latency_ms["p99"])
    await boot.drain()
    await boot.stop()

Simulator work (population build, load drives) runs in the event loop's
default executor, keeping the loop responsive for control traffic; a
lock serialises access to the single-threaded simulation.

:class:`ControlServer` exposes the same lifecycle over two TCP sockets
in the classic bootstrapper split (control + data planes, cf. the ESR
bootstrapper's 7777/7778 pair): newline-delimited JSON commands on the
*control* socket (``{"cmd": "start"}``, ``{"cmd": "drive", ...}``), and
a broadcast-only *data* socket streaming lifecycle events and
:class:`~repro.service.load.LoadReport` payloads to every subscriber.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.overlay.gnutella.network import GnutellaNetwork
from repro.overlay.kademlia.network import KademliaNetwork
from repro.rng import ensure_rng
from repro.service.arrivals import make_arrivals
from repro.service.load import ClosedLoopDriver, LoadReport, OpenLoopDriver
from repro.service.ops import GnutellaServiceOps, KademliaServiceOps
from repro.sim.engine import Simulation
from repro.underlay.network import Underlay, UnderlayConfig
from repro.workloads.content import ContentCatalog

OVERLAYS = ("kademlia", "gnutella")


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of the population the bootstrapper stands up."""

    overlay: str = "kademlia"
    n_hosts: int = 64
    seed: int = 7
    settle_ms: float = 30_000.0
    #: kademlia: keys published before traffic starts
    n_seed_keys: int = 16
    #: kademlia: fraction of store ops in the default mix
    store_fraction: float = 0.3
    #: gnutella: shared files per node
    files_per_host: int = 6
    ultrapeer_fraction: float = 1 / 3
    #: gnutella: keep at most this many search records (None = unbounded;
    #: long-lived services should bound it so bookkeeping stays flat)
    search_retention: Optional[int] = None

    def __post_init__(self) -> None:
        if self.overlay not in OVERLAYS:
            raise ConfigurationError(
                f"unknown overlay {self.overlay!r} (want one of {OVERLAYS})"
            )
        if self.n_hosts < 4:
            raise ConfigurationError("service needs at least 4 hosts")
        if self.settle_ms <= 0:
            raise ConfigurationError("settle window must be positive")
        # comparisons written so that nan fails them
        if not 0.0 <= self.store_fraction <= 1.0:
            raise ConfigurationError("store_fraction must be in [0, 1]")
        if not 0.0 < self.ultrapeer_fraction <= 1.0:
            raise ConfigurationError("ultrapeer_fraction must be in (0, 1]")
        if self.files_per_host < 1:
            raise ConfigurationError("files_per_host must be >= 1")
        if self.search_retention is not None and self.search_retention < 1:
            raise ConfigurationError("search_retention must be >= 1")


class Bootstrapper:
    """Async control plane over one simulated overlay population.

    States: ``new`` → :meth:`start` → ``ready`` → (:meth:`drive` |
    :meth:`drain`)* → :meth:`stop` → ``stopped``.  All methods are
    idempotence-checked; driving before starting raises.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.state = "new"
        self.sim: Optional[Simulation] = None
        self.underlay: Optional[Underlay] = None
        self.network: Any = None
        self.ops: Any = None
        self.reports: list[LoadReport] = []
        self._drives = 0
        self._lock = asyncio.Lock()

    # -- synchronous core (also usable without an event loop) ----------------
    def build(self) -> dict[str, Any]:
        """Construct underlay + overlay, bootstrap, settle, seed content."""
        if self.state != "new":
            raise ConfigurationError(f"cannot start from state {self.state!r}")
        cfg = self.config
        self.underlay = Underlay.generate(
            UnderlayConfig(n_hosts=cfg.n_hosts, seed=cfg.seed)
        )
        self.sim = Simulation()
        bus, _ = self.underlay.message_bus(self.sim, with_accounting=False)
        rng = ensure_rng(cfg.seed + 1)
        if cfg.overlay == "kademlia":
            net = KademliaNetwork(self.underlay, self.sim, bus, rng=rng)
            net.add_all_hosts()
            net.bootstrap_all()
            self.sim.run(until=self.sim.now + cfg.settle_ms)
            ops = KademliaServiceOps(net, rng=ensure_rng(cfg.seed + 2))
            ops.seed_content(cfg.n_seed_keys, settle_ms=cfg.settle_ms)
        else:
            net = GnutellaNetwork(
                self.underlay, self.sim, bus, rng=rng,
                search_retention=cfg.search_retention,
            )
            net.add_population(
                self.underlay.hosts, ultrapeer_fraction=cfg.ultrapeer_fraction
            )
            net.bootstrap()
            net.join_all()
            self.sim.run(until=self.sim.now + cfg.settle_ms)
            catalog = ContentCatalog(rng=ensure_rng(cfg.seed + 3))
            ops = GnutellaServiceOps(net, catalog, rng=ensure_rng(cfg.seed + 2))
            ops.seed_content(files_per_host=cfg.files_per_host)
            # let the leaves' SHARE announcements land, as the Kademlia
            # arm lets its STOREs settle
            self.sim.run(until=self.sim.now + cfg.settle_ms)
        self.network = net
        self.ops = ops
        self.state = "ready"
        return self.stats()

    def default_mix(self):
        if isinstance(self.ops, KademliaServiceOps):
            return self.ops.mix(store_fraction=self.config.store_fraction)
        return self.ops.mix()

    def drive_sync(
        self,
        *,
        mode: str = "open",
        process: str = "poisson",
        rate_per_s: float = 20.0,
        duration_ms: float = 20_000.0,
        drain_ms: float = 20_000.0,
        timeout_ms: float = 30_000.0,
        concurrency_per_origin: Optional[int] = None,
        n_workers: int = 8,
        think_time_ms: float = 0.0,
        **process_kwargs: Any,
    ) -> LoadReport:
        """One load drive against the running population (blocking)."""
        if self.state != "ready":
            raise ConfigurationError(f"cannot drive in state {self.state!r}")
        self._drives += 1
        drive_seed = self.config.seed + 1000 * self._drives
        if mode == "open":
            driver = OpenLoopDriver(
                self.sim,
                self.default_mix(),
                make_arrivals(
                    process, rate_per_s, rng=drive_seed, **process_kwargs
                ),
                duration_ms=duration_ms,
                timeout_ms=timeout_ms,
                concurrency_per_origin=concurrency_per_origin,
                rng=drive_seed + 1,
            )
        elif mode == "closed":
            driver = ClosedLoopDriver(
                self.sim,
                self.default_mix(),
                n_workers=n_workers,
                think_time_ms=think_time_ms,
                duration_ms=duration_ms,
                timeout_ms=timeout_ms,
                concurrency_per_origin=concurrency_per_origin,
                rng=drive_seed + 1,
            )
        else:
            raise ConfigurationError(
                f"unknown drive mode {mode!r} (want 'open' or 'closed')"
            )
        report = driver.run(drain_ms=drain_ms)
        self.reports.append(report)
        return report

    def drain_sync(self, *, drain_ms: float = 60_000.0) -> dict[str, Any]:
        """Run the sim forward so in-flight work completes (bounded)."""
        if self.state != "ready":
            raise ConfigurationError(f"cannot drain in state {self.state!r}")
        before = self.sim.pending()
        self.sim.run(until=self.sim.now + drain_ms)
        return {"pending_before": before, "pending_after": self.sim.pending()}

    def stats(self) -> dict[str, Any]:
        """Control-plane view of the service (JSON-safe)."""
        out: dict[str, Any] = {
            "state": self.state,
            "overlay": self.config.overlay,
            "n_hosts": self.config.n_hosts,
            "drives": self._drives,
        }
        if self.sim is not None:
            out["sim_now_ms"] = self.sim.now
            out["events_processed"] = self.sim.events_processed
            out["pending_events"] = self.sim.pending()
        if self.reports:
            out["last_report"] = self.reports[-1].as_dict()
        return out

    def stop_sync(self) -> dict[str, Any]:
        if self.state == "stopped":
            return self.stats()
        if self.network is not None:
            stop = getattr(self.network, "stop_maintenance", None)
            if stop is None:
                stop = getattr(self.network, "stop_auto_maintenance", None)
            if stop is not None:
                stop()
        self.state = "stopped"
        return self.stats()

    # -- asyncio façade ------------------------------------------------------
    async def _in_executor(self, fn, *args, **kwargs):
        loop = asyncio.get_running_loop()
        async with self._lock:  # one simulator, one driver at a time
            return await loop.run_in_executor(None, lambda: fn(*args, **kwargs))

    async def start(self) -> dict[str, Any]:
        return await self._in_executor(self.build)

    async def drive(self, **spec: Any) -> LoadReport:
        return await self._in_executor(lambda: self.drive_sync(**spec))

    async def drain(self, *, drain_ms: float = 60_000.0) -> dict[str, Any]:
        return await self._in_executor(
            lambda: self.drain_sync(drain_ms=drain_ms)
        )

    async def stop(self) -> dict[str, Any]:
        return await self._in_executor(self.stop_sync)


class ControlServer:
    """Control/data TCP front end for a :class:`Bootstrapper`.

    Control socket: one JSON object per line in, one per line out —
    ``{"cmd": "ping" | "start" | "drive" | "drain" | "stats" | "stop"}``
    (extra keys are forwarded as keyword arguments, e.g. ``{"cmd":
    "drive", "process": "pareto", "rate_per_s": 50}``).  Replies are
    ``{"ok": true, "result": ...}`` or ``{"ok": false, "error": ...}``.

    Data socket: subscribers receive every lifecycle event as a JSON
    line (``{"event": "ready" | "report" | "stopped", ...}``) — the
    streaming side of the control/data split, so dashboards tail
    percentiles without polling the control plane.
    """

    def __init__(
        self,
        bootstrapper: Bootstrapper,
        *,
        host: str = "127.0.0.1",
        control_port: int = 0,
        data_port: int = 0,
    ) -> None:
        self.bootstrapper = bootstrapper
        self.host = host
        self._want_ports = (control_port, data_port)
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._data_server: Optional[asyncio.AbstractServer] = None
        self._subscribers: set[asyncio.Queue] = set()

    async def start(self) -> None:
        control_port, data_port = self._want_ports
        self._control_server = await asyncio.start_server(
            self._handle_control, self.host, control_port
        )
        self._data_server = await asyncio.start_server(
            self._handle_data, self.host, data_port
        )

    @property
    def control_address(self) -> tuple[str, int]:
        sock = self._control_server.sockets[0]
        return sock.getsockname()[:2]

    @property
    def data_address(self) -> tuple[str, int]:
        sock = self._data_server.sockets[0]
        return sock.getsockname()[:2]

    async def stop(self) -> None:
        for server in (self._control_server, self._data_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        for queue in list(self._subscribers):
            queue.put_nowait(None)  # unblock data handlers so they exit

    # -- data plane ----------------------------------------------------------
    def publish(self, event: dict[str, Any]) -> None:
        for queue in list(self._subscribers):
            queue.put_nowait(event)

    async def _handle_data(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.add(queue)
        try:
            while True:
                event = await queue.get()
                if event is None:
                    break
                writer.write((json.dumps(event) + "\n").encode())
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._subscribers.discard(queue)
            writer.close()

    # -- control plane -------------------------------------------------------
    async def _dispatch(self, cmd: str, kwargs: dict[str, Any]) -> Any:
        boot = self.bootstrapper
        if cmd == "ping":
            return "pong"
        if cmd == "start":
            result = await boot.start()
            self.publish({"event": "ready", "stats": result})
            return result
        if cmd == "drive":
            report = await boot.drive(**kwargs)
            payload = report.as_dict()
            self.publish({"event": "report", "report": payload})
            return payload
        if cmd == "drain":
            return await boot.drain(**kwargs)
        if cmd == "stats":
            return boot.stats()
        if cmd == "stop":
            result = await boot.stop()
            self.publish({"event": "stopped", "stats": result})
            return result
        raise ConfigurationError(f"unknown command {cmd!r}")

    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    cmd = request.pop("cmd")
                    result = await self._dispatch(cmd, request)
                    reply = {"ok": True, "result": result}
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 — wire boundary
                    reply = {"ok": False, "error": str(exc)}
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
