"""Geographically Scoped Hashing — Leopard-style locality DHT (Yu et al. [33]).

Leopard's idea, quoted in the survey's §4: "both content identifiers and
latency information are processed together using a special hashing
function called Geographically Scoped Hashing to produce the final peer
and content identifiers."  Concretely, the top bits of a node id
encode the peer's *region*; the remaining bits are an ordinary random
id.  A peer's id therefore places it among the other peers of its
region in the XOR metric, so its routing table fills with regional
contacts.

The module provides the node-id scheme plus a :class:`ScopedKademlia`
wrapper that runs a standard :class:`KademliaNetwork` whose node ids are
scoped — routing logic is untouched, exactly as in the original design.
The GSH ablation measures what scoped node ids do to routing state and
traffic; region-scoped content keys are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OverlayError
from repro.overlay.kademlia.id_space import ID_BITS, random_id
from repro.overlay.kademlia.network import KademliaNetwork
from repro.overlay.kademlia.node import KademliaConfig, KademliaNode
from repro.rng import SeedLike, ensure_rng
from repro.sim.engine import Simulation
from repro.sim.messages import MessageBus
from repro.underlay.network import Underlay

#: Number of leading id bits reserved for the geographic scope.
DEFAULT_SCOPE_BITS = 4


@dataclass(frozen=True)
class ScopedHashing:
    """The GSH node-id codec: region -> 160-bit identifier in its slice."""

    scope_bits: int = DEFAULT_SCOPE_BITS

    def __post_init__(self) -> None:
        if not (1 <= self.scope_bits <= 16):
            raise OverlayError("scope_bits must be within 1..16")

    @property
    def n_scopes(self) -> int:
        return 1 << self.scope_bits

    @property
    def body_bits(self) -> int:
        return ID_BITS - self.scope_bits

    def scoped_node_id(self, region: int, rng: SeedLike = None) -> int:
        """Node id placed inside the region's id slice."""
        if not (0 <= region < self.n_scopes):
            raise OverlayError(
                f"region {region} out of range for {self.scope_bits} scope bits"
            )
        body = random_id(rng) & ((1 << self.body_bits) - 1)
        return (region << self.body_bits) | body


#: the codec every :class:`ScopedKademlia` uses
HASHING = ScopedHashing()


class ScopedKademlia:
    """A Kademlia DHT whose node ids carry the peer's geographic scope.

    ``region_of`` maps a host to its scope (defaults to the AS's region
    from the topology generator, i.e. what a geolocation source would
    coarsely report).
    """

    def __init__(
        self,
        underlay: Underlay,
        sim: Simulation,
        bus: MessageBus,
        *,
        config: KademliaConfig | None = None,
        rng: SeedLike = None,
    ) -> None:
        self.underlay = underlay
        self._rng = ensure_rng(rng)
        self.network = KademliaNetwork(
            underlay, sim, bus, config=config, rng=self._rng,
            use_coordinate_estimates=False,
        )
        self.sim = sim
        # region is a pure function of the AS; memoised so the per-contact
        # loops in the locality analysis don't re-walk the topology
        self._region_by_asn: dict[int, int] = {}

    def region_of(self, host_id: int) -> int:
        asn = self.underlay.asn_of(host_id)
        region = self._region_by_asn.get(asn)
        if region is None:
            region = (
                max(self.underlay.topology.asys(asn).region, 0)
                % HASHING.n_scopes
            )
            self._region_by_asn[asn] = region
        return region

    # -- population --------------------------------------------------------------
    def add_all_hosts(self) -> None:
        """Create nodes with region-scoped ids (bypasses the plain
        random-id path of KademliaNetwork)."""
        for h in self.underlay.hosts:
            node_id = HASHING.scoped_node_id(
                self.region_of(h.host_id), self._rng
            )
            self.network._adopt(
                KademliaNode(
                    h, self.network.sim, self.network.bus, node_id,
                    self.network.config,
                )
            )

    def bootstrap_all(self, **kwargs) -> None:
        self.network.bootstrap_all(**kwargs)

    # -- analysis --------------------------------------------------------------------
    def same_region_contact_fraction(self) -> float:
        """Fraction of routing-table contacts inside the owner's region —
        scoped ids drive this up, which is where the locality comes from."""
        same = total = 0
        for hid, node in self.network.nodes.items():
            mine = self.region_of(hid)
            for c in node.routing_table.all_contacts():
                total += 1
                same += self.region_of(c.host_id) == mine
        return same / total if total else 0.0
