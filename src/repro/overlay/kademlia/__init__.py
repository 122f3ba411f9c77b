"""Kademlia DHT with proximity neighbor selection (Kaune et al. [17])."""

from repro.overlay.kademlia.id_space import (
    ID_BITS,
    ID_SPACE,
    key_for,
    random_id,
)
from repro.overlay.kademlia.kbucket import Contact, KBucket
from repro.overlay.kademlia.network import KademliaNetwork, LookupStats
from repro.overlay.kademlia.node import KademliaConfig, KademliaNode, LookupResult
from repro.overlay.kademlia.routing_table import RoutingTable
from repro.overlay.kademlia.scoped import ScopedHashing, ScopedKademlia

__all__ = [
    "Contact",
    "ID_BITS",
    "ID_SPACE",
    "KBucket",
    "KademliaConfig",
    "KademliaNetwork",
    "KademliaNode",
    "LookupResult",
    "LookupStats",
    "RoutingTable",
    "ScopedHashing",
    "ScopedKademlia",
    "key_for",
    "random_id",
]
