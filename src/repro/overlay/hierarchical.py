"""Plethora-style two-level locality DHT (Ferreira et al. [9]).

Plethora splits the overlay into a *global* DHT spanning everyone plus
*local* DHTs per locality domain (here: per region, the granularity an
AS-clustering of the kind TSO [31] / Brocade [36] would produce).
Content is always published globally; readers query their local DHT
first and fall back to the global one, caching what they fetched into
the local DHT so subsequent regional readers resolve locally.

Each DHT instance runs on its own message bus (separate "port"), all
over the same underlay, so traffic accounting can attribute local-plane
and global-plane bytes separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import OverlayError
from repro.overlay.kademlia.id_space import key_for
from repro.overlay.kademlia.network import KademliaNetwork
from repro.overlay.kademlia.node import KademliaConfig, LookupResult
from repro.rng import SeedLike, ensure_rng, spawn
from repro.sim.engine import Simulation
from repro.sim.messages import MessageBus
from repro.underlay.network import Underlay
from repro.underlay.traffic import TrafficAccountant


@dataclass
class HierarchicalLookup:
    """Outcome of a two-level lookup."""

    key: int
    origin: int
    resolved_locally: Optional[bool] = None
    values: set[int] = field(default_factory=set)
    done: bool = False


class HierarchicalDHT:
    """Global Kademlia + one local Kademlia per region, with read-through
    caching from global into local."""

    def __init__(
        self,
        underlay: Underlay,
        sim: Simulation,
        *,
        config: KademliaConfig | None = None,
        region_of: Optional[Callable[[int], int]] = None,
        rng: SeedLike = None,
    ) -> None:
        self.underlay = underlay
        self.sim = sim
        self.config = config or KademliaConfig()
        self._rng = ensure_rng(rng)
        self.region_of = region_of or (
            lambda hid: max(
                underlay.topology.asys(underlay.asn_of(hid)).region, 0
            )
        )
        regions = sorted({self.region_of(h.host_id) for h in underlay.hosts})
        if len(regions) < 2:
            raise OverlayError("hierarchy needs at least two regions")
        rngs = spawn(self._rng, len(regions) + 1)
        # one bus per plane so node endpoints do not clash
        self.global_bus, self.global_traffic = self._make_bus(sim)
        self.global_dht = KademliaNetwork(
            underlay, sim, self.global_bus, config=self.config, rng=rngs[0],
            use_coordinate_estimates=False,
        )
        self.global_dht.add_all_hosts()
        self.local_bus: dict[int, MessageBus] = {}
        self.local_traffic: dict[int, TrafficAccountant] = {}
        self.local_dht: dict[int, KademliaNetwork] = {}
        for i, region in enumerate(regions):
            bus, acct = self._make_bus(sim)
            members = [
                h for h in underlay.hosts if self.region_of(h.host_id) == region
            ]
            dht = KademliaNetwork(
                underlay, sim, bus, config=self.config, rng=rngs[i + 1],
                use_coordinate_estimates=False,
            )
            dht.add_hosts(members)
            self.local_bus[region] = bus
            self.local_traffic[region] = acct
            self.local_dht[region] = dht
        self.lookups: list[HierarchicalLookup] = []

    def _make_bus(self, sim: Simulation):
        bus = MessageBus(sim, self.underlay)
        acct = TrafficAccountant(
            self.underlay.topology, self.underlay.routing, self.underlay.asn_of,
            clock=lambda: sim.now / 1000.0,
        )
        bus.add_observer(acct)
        return bus, acct

    # -- lifecycle -----------------------------------------------------------------
    def bootstrap_all(self) -> None:
        self.global_dht.bootstrap_all()
        for dht in self.local_dht.values():
            if len(dht.nodes) >= 2:
                dht.bootstrap_all()

    # -- operations -------------------------------------------------------------------
    def publish(self, owner: int, content: object) -> int:
        """Publish globally and into the owner's local plane."""
        key = key_for(content)
        self.global_dht.nodes[owner].store_value(key, owner)
        region = self.region_of(owner)
        local = self.local_dht[region]
        if owner in local.nodes:
            local.nodes[owner].store_value(key, owner)
        return key

    def lookup(self, origin: int, content: object) -> HierarchicalLookup:
        """Local-first lookup with global fallback and local caching."""
        key = key_for(content)
        record = HierarchicalLookup(key=key, origin=origin)
        self.lookups.append(record)
        region = self.region_of(origin)
        local = self.local_dht[region]

        def on_global_done(res: LookupResult) -> None:
            record.resolved_locally = False
            record.values = set(res.values)
            record.done = True
            if res.found_value and origin in local.nodes:
                # read-through cache: future regional readers stay local
                local.nodes[origin].store_value(key, next(iter(res.values)))

        def on_local_done(res: LookupResult) -> None:
            if res.found_value:
                record.resolved_locally = True
                record.values = set(res.values)
                record.done = True
                return
            self.global_dht.nodes[origin].iterative_find_value(
                key, on_global_done
            )

        if origin in local.nodes and len(local.nodes) >= 2:
            local.nodes[origin].iterative_find_value(key, on_local_done)
        else:
            self.global_dht.nodes[origin].iterative_find_value(
                key, on_global_done
            )
        return record

    # -- analysis -------------------------------------------------------------------------
    def local_resolution_rate(self) -> float:
        done = [l for l in self.lookups if l.done and l.values]
        if not done:
            return 0.0
        return sum(1 for l in done if l.resolved_locally) / len(done)

    def success_rate(self) -> float:
        done = [l for l in self.lookups if l.done]
        if not done:
            return 0.0
        return sum(1 for l in done if l.values) / len(done)

    def plane_traffic(self) -> dict[str, int]:
        """Bytes by plane: the Plethora claim is that repeat reads shift
        load from the global plane to cheap local planes."""
        local = sum(a.summary.total_bytes for a in self.local_traffic.values())
        return {
            "global_bytes": self.global_traffic.summary.total_bytes,
            "local_bytes": local,
            "local_transit_bytes": sum(
                a.summary.transit_bytes for a in self.local_traffic.values()
            ),
        }
