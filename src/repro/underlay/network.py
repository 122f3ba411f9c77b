"""The :class:`Underlay` facade: topology + routing + latency + hosts +
traffic accounting behind one object.

This is the substrate every experiment starts from::

    underlay = Underlay.generate(UnderlayConfig(n_hosts=200, seed=42))
    sim = Simulation()
    bus = underlay.message_bus(sim)

The facade implements the :class:`~repro.sim.messages.LatencyProvider`
protocol over *host ids*.  Every delay comes from the one
:class:`~repro.underlay.latency.StreamingDelayKernel` an underlay
builds, and is served one way: the kernel's all-pairs matrix
(:attr:`Underlay.latency_matrix`) is built once, so per-message delay
lookups are O(1) array reads.  Above :data:`MATRIX_HOST_CAP` hosts the
matrix is refused rather than swapped to disk; the kernel's
:meth:`~repro.underlay.latency.StreamingDelayKernel.delay_block` still
computes any block there in O(rows x cols) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.rng import ensure_rng, spawn
from repro.sim.engine import Simulation
from repro.sim.messages import MessageBus
from repro.underlay.cost import CostModel, CostParams
from repro.underlay.hosts import Host, HostFactory
from repro.underlay.latency import LatencyConfig, LatencyModel, StreamingDelayKernel
from repro.underlay.routing import ASRouting
from repro.underlay.topology import InternetTopology, TopologyConfig, generate_topology
from repro.underlay.traffic import TrafficAccountant


#: Most hosts whose all-pairs latency matrix an underlay builds: n^2
#: float64 entries, ~3 GiB at the cap (10^5 hosts would need ~75 GiB).
MATRIX_HOST_CAP = 20_000


@dataclass(frozen=True)
class UnderlayConfig:
    """One-stop configuration for a generated underlay."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    cost: CostParams = field(default_factory=CostParams)
    n_hosts: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_hosts < 0:
            raise ConfigurationError("n_hosts must be non-negative")


class Underlay:
    """A fully materialised synthetic Internet with an attached host
    population.  Use :meth:`generate` for the common path."""

    def __init__(
        self,
        topology: InternetTopology,
        hosts: Sequence[Host],
        *,
        latency_config: LatencyConfig | None = None,
        cost_params: CostParams | None = None,
    ) -> None:
        self.topology = topology
        self.routing = ASRouting(topology)
        self.latency = LatencyModel(topology, self.routing, latency_config)
        self.cost_model = CostModel(cost_params)
        self.hosts: list[Host] = list(hosts)
        self._host_by_id: dict[int, Host] = {h.host_id: h for h in self.hosts}
        if len(self._host_by_id) != len(self.hosts):
            raise TopologyError("duplicate host ids in underlay")
        # Host is frozen, so the per-id ASN cannot go stale
        self._asn_by_id: dict[int, int] = {h.host_id: h.asn for h in self.hosts}
        self._index_of = {h.host_id: i for i, h in enumerate(self.hosts)}
        self._latency_matrix: Optional[np.ndarray] = None
        self._delay_kernel: Optional[StreamingDelayKernel] = None

    #: How per-message delays are served: always the all-pairs matrix.
    #: Kept as a constant because ``bench/workloads.py`` reports it.
    delay_backend = "matrix"

    # -- construction ----------------------------------------------------------
    @classmethod
    def generate(cls, config: UnderlayConfig | None = None) -> "Underlay":
        config = config or UnderlayConfig()
        rng = ensure_rng(config.seed)
        topo_rng, host_rng = spawn(rng, 2)
        topo_cfg = config.topology
        if topo_cfg.seed is None:
            # thread the master seed into topology generation
            topo_cfg = TopologyConfig(
                **{
                    **{f: getattr(topo_cfg, f) for f in topo_cfg.__dataclass_fields__},
                    "seed": topo_rng,
                }
            )
        topology = generate_topology(topo_cfg)
        factory = HostFactory(topology, rng=host_rng)
        hosts = factory.create_hosts(config.n_hosts)
        return cls(
            topology,
            hosts,
            latency_config=config.latency,
            cost_params=config.cost,
        )

    # -- host queries ------------------------------------------------------------
    @staticmethod
    def _host_id_of(endpoint: Hashable) -> int:
        """Bus endpoints are either bare host ids or ("service", host_id)
        tuples when several services share one host; both resolve here."""
        if isinstance(endpoint, tuple):
            endpoint = endpoint[-1]
        return int(endpoint)

    def host(self, host_id: int) -> Host:
        try:
            return self._host_by_id[host_id]
        except KeyError:
            raise TopologyError(f"unknown host id {host_id}") from None

    def asn_of(self, host_id: Hashable) -> int:
        try:
            return self._asn_by_id[host_id]
        except KeyError:  # ("service", host_id) endpoint, or unknown id
            return self.host(self._host_id_of(host_id)).asn

    def host_ids(self) -> list[int]:
        return [h.host_id for h in self.hosts]

    def asns_of(self, host_ids: Sequence[Hashable]) -> np.ndarray:
        """ASN per host id, as one int64 array — the gather step of the
        batched oracle/selection rankers."""
        return np.fromiter(
            (self.asn_of(h) for h in host_ids),
            dtype=np.int64,
            count=len(host_ids),
        )

    # -- latency -------------------------------------------------------------------
    @property
    def delay_kernel(self) -> StreamingDelayKernel:
        """The streaming delay kernel over this host population, built
        lazily once (O(n) columns + the small AS-delay matrix)."""
        if self._delay_kernel is None:
            self._delay_kernel = self.latency.delay_kernel(self.hosts)
        return self._delay_kernel

    @property
    def latency_matrix(self) -> np.ndarray:
        """All-pairs one-way host delay matrix (ms): the
        :attr:`delay_kernel`'s full matrix, computed lazily once.

        Refused with :class:`~repro.errors.ConfigurationError` above
        :data:`MATRIX_HOST_CAP` hosts; ``delay_kernel.delay_block``
        serves any block of it there.
        """
        if self._latency_matrix is None:
            n = len(self.hosts)
            if n > MATRIX_HOST_CAP:
                raise ConfigurationError(
                    f"refusing to build the {n}x{n} host latency matrix: it "
                    f"needs {n * n * 8 / 2**30:.1f} GiB and the cap is "
                    f"{MATRIX_HOST_CAP} hosts; use delay_kernel.delay_block()"
                )
            self._latency_matrix = self.delay_kernel.full_matrix()
        return self._latency_matrix

    def rtt_matrix(self) -> np.ndarray:
        return 2.0 * self.latency_matrix

    def one_way_delay(self, src: Hashable, dst: Hashable) -> float:
        """LatencyProvider protocol over host ids (ms): one read of
        :attr:`latency_matrix`."""
        i = self._index_for(src)
        j = self._index_for(dst)
        mat = self._latency_matrix
        if mat is None:  # build once; per-message lookups stay O(1) reads
            mat = self.latency_matrix
        return mat.item(i, j)

    def _index_for(self, endpoint: Hashable) -> int:
        """Matrix index of any endpoint form :meth:`_host_id_of` accepts."""
        try:
            return self._index_of[self._host_id_of(endpoint)]
        except KeyError as exc:
            raise TopologyError(f"unknown host id {exc.args[0]}") from None

    def one_way_delay_row(
        self, src: Hashable, dsts: Sequence[Hashable]
    ) -> np.ndarray:
        """One-way delay from ``src`` to each of ``dsts`` (ms) as one
        :attr:`latency_matrix` gather: the batch form of
        :meth:`one_way_delay`, value-identical entry by entry."""
        idx = self._index_of
        i = self._index_for(src)
        try:  # dsts are almost always bare host ids; resolve tuples lazily
            cols = [idx[d] for d in dsts]
        except (KeyError, TypeError):
            cols = [self._index_for(d) for d in dsts]
        mat = self._latency_matrix
        if mat is None:
            mat = self.latency_matrix
        return mat[i, cols].astype(float)

    # -- simulation plumbing ----------------------------------------------------------
    def message_bus(
        self,
        sim: Simulation,
        *,
        with_accounting: bool = True,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ) -> tuple[MessageBus, Optional[TrafficAccountant]]:
        """Create a message bus over this underlay plus (optionally) a
        traffic accountant already attached as observer.  ``loss_rate``
        injects in-flight packet loss (failure testing)."""
        bus = MessageBus(sim, self, loss_rate=loss_rate, loss_seed=loss_seed)
        accountant: Optional[TrafficAccountant] = None
        if with_accounting:
            accountant = TrafficAccountant(
                self.topology, self.routing, self.asn_of, clock=lambda: sim.now / 1000.0
            )
            bus.add_observer(accountant)
        return bus, accountant
