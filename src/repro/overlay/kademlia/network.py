"""Kademlia network orchestration: population, bootstrap, workload stats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import OverlayError
from repro.overlay.kademlia.id_space import key_for, random_id
from repro.overlay.kademlia.kbucket import Contact
from repro.overlay.kademlia.node import KademliaConfig, KademliaNode, LookupResult
from repro.rng import SeedLike, ensure_rng
from repro.sim.engine import Simulation
from repro.sim.messages import MessageBus
from repro.underlay.network import Underlay


@dataclass
class LookupStats:
    """Aggregate over a batch of lookups."""

    n: int
    success_rate: float
    mean_latency_ms: float
    median_latency_ms: float
    mean_rpcs: float

    @staticmethod
    def from_results(results: Sequence[LookupResult], value_lookups: bool) -> "LookupStats":
        results = list(results)
        if not results:
            raise OverlayError("no lookup results to aggregate")
        lat = np.array([r.latency_ms for r in results])
        ok = (
            np.array([r.found_value for r in results])
            if value_lookups
            else np.array([bool(r.closest) for r in results])
        )
        return LookupStats(
            n=len(results),
            success_rate=float(ok.mean()),
            mean_latency_ms=float(lat.mean()),
            median_latency_ms=float(np.median(lat)),
            mean_rpcs=float(np.mean([r.rpcs_sent for r in results])),
        )


class KademliaNetwork:
    """A Kademlia DHT over the underlay's host population."""

    def __init__(
        self,
        underlay: Underlay,
        sim: Simulation,
        bus: MessageBus,
        *,
        config: KademliaConfig | None = None,
        rng: SeedLike = None,
        use_coordinate_estimates: bool = True,
    ) -> None:
        self.underlay = underlay
        self.sim = sim
        self.bus = bus
        self.config = config or KademliaConfig()
        self._rng = ensure_rng(rng)
        self.nodes: dict[int, KademliaNode] = {}
        #: the heard-of contact table every node of this network shares
        #: (see KademliaNode._heard_of)
        self._heard: dict[tuple[int, int], Contact] = {}
        # When a proximity technique is on, nodes estimate the RTT of
        # heard-of contacts from network coordinates (§3.2 prediction);
        # modelled as the true RTT with multiplicative coordinate error.
        self._estimator = None
        cfg = self.config
        if use_coordinate_estimates and (cfg.proximity_buckets or cfg.proximity_routing):
            err_rng = ensure_rng(int(self._rng.integers(2**31)))

            def estimator(src: int, dst: int) -> float:
                true_rtt = 2.0 * self.underlay.one_way_delay(src, dst)
                return true_rtt * float(np.clip(err_rng.normal(1.0, 0.15), 0.5, 1.8))

            self._estimator = estimator

    def add_all_hosts(self) -> None:
        self.add_hosts(self.underlay.hosts)

    def add_hosts(self, hosts) -> None:
        """Add a subset of the underlay's hosts to this DHT."""
        for h in hosts:
            self._adopt(
                KademliaNode(
                    h, self.sim, self.bus, random_id(self._rng), self.config,
                    rtt_estimator=self._estimator,
                )
            )

    def _adopt(self, node: KademliaNode) -> None:
        """Make ``node`` a member: it shares this network's heard-of
        table, goes online and is registered.  Every
        path that builds nodes for this network goes through here."""
        node._heard = self._heard
        node.go_online()
        self.nodes[node.host_id] = node

    def bootstrap_all(
        self, *, seeds_per_node: int = 3, stagger_ms: float = 500.0
    ) -> None:
        """Every node seeds its table from a few random already-known nodes
        and performs a self-lookup; staggered so the mesh forms gradually
        (one batched insert for the whole population)."""
        ids = list(self.nodes)
        if len(ids) < 2:
            raise OverlayError("need at least two nodes to bootstrap")
        items = []
        others = len(ids) - 1
        k = min(seeds_per_node, others)
        for i, hid in enumerate(ids):
            # draw among everyone but node i without building that list:
            # index c of it is ids[c], or ids[c + 1] from position i on
            chosen = self._rng.choice(others, size=k, replace=False).tolist()
            seeds = [self.nodes[ids[c + (c >= i)]].contact() for c in chosen]
            delay = float(self._rng.uniform(0, stagger_ms)) + i * 2.0
            items.append((delay, self.nodes[hid].bootstrap, (seeds,)))
        self.sim.schedule_many(items)

    # -- workload -----------------------------------------------------------------
    def publish(self, owner: int, content: object) -> int:
        key = key_for(content)
        self.nodes[owner].store_value(key, owner)
        return key

    def lookup_value(
        self, origin: int, key: int, results: list[LookupResult]
    ) -> None:
        self.nodes[origin].iterative_find_value(key, results.append)

    def run_value_workload(
        self, n_publishes: int, n_lookups: int, *, settle_ms: float = 60_000.0
    ) -> LookupStats:
        """Publish random content from random owners, let STOREs settle,
        then issue lookups from random origins; returns aggregate stats.
        Only online nodes act (dead nodes cannot originate operations)."""
        ids = [hid for hid, n in self.nodes.items() if n.online]
        if len(ids) < 2:
            raise OverlayError("need at least two online nodes for a workload")
        keys = []
        for i in range(n_publishes):
            owner = ids[int(self._rng.integers(len(ids)))]
            keys.append(self.publish(owner, f"content-{i}"))
        self.sim.run(until=self.sim.now + settle_ms)
        results: list[LookupResult] = []
        for _ in range(n_lookups):
            origin = ids[int(self._rng.integers(len(ids)))]
            key = keys[int(self._rng.integers(len(keys)))]
            self.lookup_value(origin, key, results)
        self.sim.run(until=self.sim.now + settle_ms)
        return LookupStats.from_results(results, value_lookups=True)

    # -- analysis -------------------------------------------------------------------
    def mean_contact_rtt(self) -> float:
        """Mean measured RTT of routing-table entries with a measurement —
        the quantity PNS pushes down."""
        rtts = [
            c.rtt_ms
            for node in self.nodes.values()
            for c in node.routing_table.all_contacts()
            if np.isfinite(c.rtt_ms)
        ]
        return float(np.mean(rtts)) if rtts else float("nan")
