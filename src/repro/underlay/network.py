"""The :class:`Underlay` facade: topology + routing + latency + hosts +
traffic accounting behind one object.

This is the substrate every experiment starts from::

    underlay = Underlay.generate(UnderlayConfig(n_hosts=200, seed=42))
    sim = Simulation()
    bus = underlay.message_bus(sim)

The facade implements the :class:`~repro.sim.messages.LatencyProvider`
protocol over *host ids*.  Every delay comes from the one
:class:`~repro.underlay.latency.StreamingDelayKernel` an underlay
builds; the population size alone decides how it is served
(:attr:`Underlay.delay_backend`):

- ``"matrix"`` up to :data:`STREAM_AUTO_HOST_THRESHOLD` hosts: the
  kernel's all-pairs matrix is built once, so per-message delay lookups
  are O(1) array reads.
- ``"stream"`` above it: delays are computed on demand from the
  kernel's O(n)-memory columns, with a bounded LRU pair memo for
  repeated scalar lookups — the only way to serve 10^5–10^6-host
  underlays, where the matrix would need ~80 GB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.rng import ensure_rng, spawn
from repro.underlay._obs import note_cache_event, timed_build
from repro.sim.engine import Simulation
from repro.sim.messages import MessageBus
from repro.underlay.cost import CostModel, CostParams
from repro.underlay.hosts import Host, HostFactory
from repro.underlay.latency import LatencyConfig, LatencyModel, StreamingDelayKernel
from repro.underlay.routing import ASRouting
from repro.underlay.topology import InternetTopology, TopologyConfig, generate_topology
from repro.underlay.traffic import TrafficAccountant


#: Populations above this many hosts are served by the streaming kernel
#: instead of the precomputed matrix (matrix memory grows as n^2: 2048
#: hosts is ~32 MB of float64; 10^5 hosts would be ~80 GB).
STREAM_AUTO_HOST_THRESHOLD = 2048

#: Hard ceiling on materialising the host latency matrix in stream mode.
_STREAM_MATRIX_HARD_LIMIT = 20_000


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
        # asn -> hosts index: hosts_in_as and the oracle paths are called
        # per candidate list, so a linear scan over all hosts is the wrong
        # complexity class
        self._hosts_by_as: dict[int, list[Host]] = {}
        for h in self.hosts:
            self._hosts_by_as.setdefault(h.asn, []).append(h)
        self._host_ids_by_as: dict[int, frozenset[int]] = {
            asn: frozenset(h.host_id for h in hs)
            for asn, hs in self._hosts_by_as.items()
        }
        self._latency_matrix: Optional[np.ndarray] = None
        self._delay_kernel: Optional[StreamingDelayKernel] = None
        #: How per-message delays are served ("matrix" or "stream"),
        #: resolved from the population size.
        self.delay_backend = (
            "stream" if len(self.hosts) > STREAM_AUTO_HOST_THRESHOLD else "matrix"
        )

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

    def hosts_in_as(self, asn: int) -> list[Host]:
        """Hosts attached to ``asn`` (O(1) via the asn index)."""
        return list(self._hosts_by_as.get(asn, ()))

    def host_ids_in_as(self, asn: int) -> frozenset[int]:
        """Host-id set of one AS — membership tests for oracle ranking."""
        return self._host_ids_by_as.get(asn, frozenset())

    def as_hops(self, host_a: int, host_b: int) -> int:
        """AS-hop distance between two hosts' ASes."""
        return self.routing.hops(self.asn_of(host_a), self.asn_of(host_b))

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
            note_cache_event("delay_kernel", "miss")
            with timed_build("delay_kernel"):
                self._delay_kernel = self.latency.delay_kernel(self.hosts)
        else:
            note_cache_event("delay_kernel", "hit")
        return self._delay_kernel

    @property
    def latency_matrix(self) -> np.ndarray:
        """All-pairs one-way host delay matrix (ms): the
        :attr:`delay_kernel`'s full matrix, computed lazily once.

        In stream mode the matrix is still available for mid-size
        populations (some analyses genuinely want all pairs) but is
        refused beyond ``_STREAM_MATRIX_HARD_LIMIT`` hosts — use
        :meth:`one_way_delay_row` / :attr:`delay_kernel` there.
        """
        if self._latency_matrix is None:
            n = len(self.hosts)
            if self.delay_backend == "stream" and n > _STREAM_MATRIX_HARD_LIMIT:
                raise ConfigurationError(
                    f"refusing to materialise the {n}x{n} host latency matrix "
                    f"(~{n * n * 8 / 2**30:.0f} GiB) in stream mode; use "
                    "one_way_delay_row()/delay_kernel instead"
                )
            note_cache_event("host_latency", "miss")
            with timed_build("host_latency"):
                self._latency_matrix = self.delay_kernel.full_matrix()
        else:
            note_cache_event("host_latency", "hit")
        return self._latency_matrix

    def rtt_matrix(self) -> np.ndarray:
        return 2.0 * self.latency_matrix

    def one_way_delay(self, src: Hashable, dst: Hashable) -> float:
        """LatencyProvider protocol over host ids (ms).

        Matrix mode reads the precomputed matrix; stream mode computes
        through the kernel's LRU pair memo — same value either way.
        """
        idx = self._index_of
        try:
            i = idx[self._host_id_of(src)]
            j = idx[self._host_id_of(dst)]
        except KeyError as exc:
            raise TopologyError(f"unknown host id {exc.args[0]}") from None
        if self.delay_backend == "stream":
            kernel = self._delay_kernel
            if kernel is None:
                kernel = self.delay_kernel
            return kernel.delay_scalar(i, j)
        mat = self._latency_matrix
        if mat is None:  # build once; per-message lookups stay O(1) reads
            mat = self.latency_matrix
        return float(mat[i, j])

    def one_way_delay_row(
        self, src: Hashable, dsts: Sequence[Hashable]
    ) -> np.ndarray:
        """One-way delay from ``src`` to each of ``dsts`` (ms) as one
        row — a latency-matrix gather in matrix mode, a streamed
        :meth:`~repro.underlay.latency.StreamingDelayKernel.delay_row`
        in stream mode; the batch form of :meth:`one_way_delay`,
        value-identical entry by entry in either backend."""
        idx = self._index_of
        try:
            i = idx[self._host_id_of(src)]
            try:  # dsts are almost always bare host ids; resolve tuples lazily
                cols = [idx[d] for d in dsts]
            except (KeyError, TypeError):
                cols = [idx[self._host_id_of(d)] for d in dsts]
        except KeyError as exc:
            raise TopologyError(f"unknown host id {exc.args[0]}") from None
        if self.delay_backend == "stream":
            return self.delay_kernel.delay_row(i, cols)
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
