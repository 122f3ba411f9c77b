"""Bootstrapper: stand a node population up as a *service*.

Batch experiments construct an underlay, an overlay, and a workload in
one script and tear everything down at the end.  A deployed P2P service
is operated differently: a control plane stands the population up,
traffic is driven against it, percentiles are read off, more traffic is
driven, and eventually the service is stopped.
:class:`Bootstrapper` is that control plane over the synchronous
simulator::

    boot = Bootstrapper(ServiceConfig(overlay="kademlia", n_hosts=64))
    boot.build()                             # build + bootstrap + settle
    report = boot.drive_sync(process="poisson", rate_per_s=40.0)
    print(report.latency_ms["p99"])
    boot.stop_sync()
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Control plane over one simulated overlay population.

    States: ``new`` → :meth:`build` → ``ready`` → (:meth:`drive_sync`)* →
    :meth:`stop_sync` → ``stopped``.  Every call checks the state;
    driving before building raises.  A rejected call changes nothing.
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
        # the driver is built before the drive is counted, so a rejected
        # mode or arrival process leaves the count and every later seed
        # as they were
        drive_seed = self.config.seed + 1000 * (self._drives + 1)
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
        self._drives += 1
        self.reports.append(report)
        return report

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
        """Stop for good and return the final stats.

        A stopped service is never driven again, so it shuts every node
        down, takes the fault hook off the bus and drops the pending
        events.  What is left of a Kademlia population then holds no
        reference cycle, so it is freed as soon as the caller lets go of
        it, not whenever the cyclic garbage collector next runs.  (A
        Gnutella node points back at its network, so that population
        still waits for the collector.)
        """
        if self.state != "stopped" and self.network is not None:
            for node in self.network.nodes.values():
                node.shutdown()
            self.network.bus.set_fault_hook(None)
            self.sim.drop_pending()
        self.state = "stopped"
        return self.stats()
