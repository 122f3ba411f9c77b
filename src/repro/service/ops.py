"""Protocol operation adapters for the load drivers.

Each adapter turns one overlay's public workload API into
:class:`~repro.service.load.OpSpec` entries — the bridge between "a
running network" and "a stream of service operations with completion
callbacks":

- :class:`KademliaServiceOps` — ``store`` (publish a fresh key to the k
  closest nodes; completes when the underlying FIND_NODE converges) and
  ``retrieve`` (iterative FIND_VALUE over previously stored keys;
  success = value found).
- :class:`GnutellaServiceOps` — keyword ``search`` through the
  ultrapeer mesh; completes at the *first* QueryHit (the service-level
  "time to first result" users experience), via
  ``GnutellaNetwork.search_listener``.

Adapters draw origins uniformly from the online population with the
driver's RNG, so a seeded drive is fully deterministic.  The online-id
list is rebuilt only when membership changes, not once per operation.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.overlay.gnutella.network import GnutellaNetwork, SearchRecord
from repro.overlay.kademlia.id_space import key_for
from repro.overlay.kademlia.network import KademliaNetwork
from repro.rng import SeedLike, ensure_rng
from repro.service.load import DoneFn, OpSpec
from repro.workloads.content import ContentCatalog


class _OnlineOrigins:
    """Uniform origin draws over the online nodes, in ``net.nodes`` order.

    Every ``go_online`` / ``go_offline`` registers or unregisters the
    node on the bus, so the online-id list is rebuilt when the bus's
    ``registrations`` count moves and reused otherwise.
    """

    net: KademliaNetwork | GnutellaNetwork
    _protocol: str
    _online: list[int]
    _online_at = -1

    def online_ids(self) -> list[int]:
        """The online node ids; the list is shared, so read it only."""
        registrations = self.net.bus.registrations
        if registrations != self._online_at:
            self._online = [
                hid for hid, node in self.net.nodes.items() if node.online
            ]
            self._online_at = registrations
        return self._online

    def pick_origin(self, rng: np.random.Generator) -> int:
        ids = self.online_ids()
        if not ids:
            raise ConfigurationError(
                f"no online {self._protocol} nodes to issue from"
            )
        return ids[int(rng.integers(len(ids)))]


class KademliaServiceOps(_OnlineOrigins):
    """store/retrieve operations over a bootstrapped Kademlia network."""

    _protocol = "kademlia"

    def __init__(self, net: KademliaNetwork, *, rng: SeedLike = None) -> None:
        self.net = net
        self._rng = ensure_rng(rng)
        self._counter = itertools.count()
        #: keys known to be published (seeded + successfully stored);
        #: retrieve ops draw uniformly from here
        self.keys: list[int] = []

    # -- population helpers --------------------------------------------------
    def seed_content(self, n_keys: int, *, settle_ms: float = 30_000.0) -> list[int]:
        """Publish ``n_keys`` fresh keys from random online origins and
        run the sim until the STOREs settle, so retrieve ops have
        something to find from the first arrival on."""
        ids = self.online_ids()
        if len(ids) < 2:
            raise ConfigurationError("need at least two online nodes to seed")
        fresh = []
        for _ in range(n_keys):
            origin = ids[int(self._rng.integers(len(ids)))]
            key = key_for(f"svc-seed-{next(self._counter)}")
            self.net.nodes[origin].store_value(key, origin)
            fresh.append(key)
        self.net.sim.run(until=self.net.sim.now + settle_ms)
        self.keys.extend(fresh)
        return fresh

    # -- ops -----------------------------------------------------------------
    def _issue_store(self, origin: Hashable, on_done: DoneFn) -> None:
        key = key_for(f"svc-store-{next(self._counter)}")

        def stored(result) -> None:
            ok = bool(result.closest)
            if ok:
                self.keys.append(key)
            on_done(ok)

        self.net.nodes[origin].store_value(key, int(origin), on_done=stored)

    def _issue_retrieve(self, origin: Hashable, on_done: DoneFn) -> None:
        if not self.keys:
            on_done(False)
            return
        key = self.keys[int(self._rng.integers(len(self.keys)))]
        self.net.nodes[origin].iterative_find_value(
            key, lambda result: on_done(result.found_value)
        )

    def store_spec(self, weight: float = 1.0) -> OpSpec:
        return OpSpec("kad_store", weight, self.pick_origin, self._issue_store)

    def retrieve_spec(self, weight: float = 1.0) -> OpSpec:
        return OpSpec(
            "kad_retrieve", weight, self.pick_origin, self._issue_retrieve
        )

    def mix(self, *, store_fraction: float = 0.3) -> list[OpSpec]:
        """The standard DHT service mix: mostly reads, some writes."""
        if not 0.0 < store_fraction < 1.0:
            raise ConfigurationError("store_fraction must be in (0, 1)")
        return [
            self.store_spec(store_fraction),
            self.retrieve_spec(1.0 - store_fraction),
        ]


class GnutellaServiceOps(_OnlineOrigins):
    """Keyword-search operations over a joined Gnutella network.

    Installs itself as the network's ``search_listener``; a search
    completes successfully at its first hit — at issue time, latency 0,
    when the origin ultrapeer answers it from its own index — and
    otherwise runs into the op timeout.
    """

    _protocol = "gnutella"

    def __init__(
        self,
        net: GnutellaNetwork,
        catalog: ContentCatalog,
        *,
        rng: SeedLike = None,
    ) -> None:
        self.net = net
        self.catalog = catalog
        self._rng = ensure_rng(rng)
        self._pending: dict[int, DoneFn] = {}
        if net.search_listener is not None:
            raise ConfigurationError(
                "the gnutella network already has a search listener"
            )
        net.search_listener = self._on_first_hit

    def seed_content(self, *, files_per_host: int = 6) -> None:
        """Give every node a locality-correlated shared-file set (the
        testlab scheme) so searches have answerable targets."""
        shared = self.catalog.assign_shared_content(
            [self.net.underlay.host(hid) for hid in self.net.nodes],
            files_per_host=files_per_host,
        )
        for hid, files in shared.items():
            self.net.share_content(hid, files)

    def _issue_search(self, origin: Hashable, on_done: DoneFn) -> None:
        keyword = self.catalog.draw_query(self.net.underlay.asn_of(origin))
        guid = self.net.search(int(origin), keyword)
        record = self.net.searches.get(guid)
        if record is not None and record.hits:
            # an ultrapeer holding the keyword itself or through a leaf
            # answers inside ``search()``, before the guid is known here:
            # the search completed at issue time
            on_done(True)
        else:
            self._pending[guid] = on_done

    def _on_first_hit(self, record: SearchRecord) -> None:
        done = self._pending.pop(record.guid, None)
        if done is not None:
            done(True)

    def search_spec(self, weight: float = 1.0) -> OpSpec:
        return OpSpec("gnu_search", weight, self.pick_origin, self._issue_search)

    def mix(self) -> list[OpSpec]:
        return [self.search_spec()]
