"""Gnutella network orchestration and neighbor-selection policies.

:class:`GnutellaNetwork` owns the node population, the bootstrap procedure
of the testlab in [1] (hostcaches filled with a random subset of the
network's addresses), the neighbor-selection policy, the query workload
driver, and the *file-exchange stage* — the HTTP download that happens
outside the Gnutella mesh, where [1] showed that consulting the oracle a
second time is what really localises traffic.

Policies (§4 / Figure 6):

- ``UNBIASED`` — connect to a random permutation of the hostcache.
- ``BIASED`` — send the hostcache (truncated to ``oracle_list_limit``,
  the "cache 100 / cache 1000" parameter) to the ISP oracle and connect
  to the top-ranked entries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import networkx as nx

from repro.collection.oracle import ISPOracle
from repro.errors import OverlayError
from repro.overlay.gnutella.flood import FloodKernel
from repro.overlay.gnutella.node import (
    LEAF,
    ULTRAPEER,
    GnutellaConfig,
    GnutellaNode,
)
from repro.rng import SeedLike, ensure_rng
from repro.sim.engine import Simulation
from repro.sim.messages import MessageBus
from repro.underlay.hosts import Host
from repro.underlay.network import Underlay


class NeighborPolicy(enum.Enum):
    """Neighbor-selection policy: uniform random or oracle-biased."""
    UNBIASED = "unbiased"
    BIASED = "biased"


@dataclass
class SearchRecord:
    """Bookkeeping for one search: origin, keyword, hits, chosen source.

    ``issued_at``/``first_hit_at`` are sim-clock stamps (ms);
    ``first_hit_at`` stays ``nan`` until a hit arrives.  The
    :mod:`repro.service` drivers time a search themselves, from issue to
    the ``search_listener`` call.
    """
    guid: int
    origin: int
    keyword: int
    hits: list[int] = field(default_factory=list)
    downloaded_from: Optional[int] = None
    download_done: bool = False
    issued_at: float = 0.0
    first_hit_at: float = math.nan


class GnutellaNetwork:
    """A population of Gnutella servents over one underlay."""

    def __init__(
        self,
        underlay: Underlay,
        sim: Simulation,
        bus: MessageBus,
        *,
        config: GnutellaConfig | None = None,
        policy: NeighborPolicy = NeighborPolicy.UNBIASED,
        oracle: Optional[ISPOracle] = None,
        oracle_list_limit: Optional[int] = None,
        biased_download: bool = False,
        external_quota: int = 1,
        rng: SeedLike = None,
        search_retention: Optional[int] = None,
    ) -> None:
        if policy is NeighborPolicy.BIASED and oracle is None:
            raise OverlayError("BIASED policy requires an oracle")
        if external_quota < 0:
            raise OverlayError("external_quota must be non-negative")
        if search_retention is not None and search_retention < 1:
            raise OverlayError("search_retention must be >= 1")
        self.underlay = underlay
        self.sim = sim
        self.bus = bus
        self.config = config or GnutellaConfig()
        self.policy = policy
        self.oracle = oracle
        self.oracle_list_limit = oracle_list_limit
        self.biased_download = biased_download
        self.external_quota = external_quota
        self._rng = ensure_rng(rng)
        self.nodes: dict[int, GnutellaNode] = {}
        #: protocol-level drops (surfaced through :meth:`message_counts`):
        #: duplicate descriptors suppressed, TTL-expired non-forwards
        self.drop_counts: dict[str, int] = {"duplicate": 0, "ttl": 0}
        self.search_retention = search_retention
        #: how every PING, PONG, QUERY and QUERYHIT travels
        self.flood_kernel = FloodKernel(self)
        self._guid_counter = 0
        self.searches: dict[int, SearchRecord] = {}
        #: optional hook invoked with the :class:`SearchRecord` when its
        #: *first* hit arrives — the completion signal the
        #: :mod:`repro.service` load drivers attach to
        self.search_listener: Optional[Callable[[SearchRecord], None]] = None

    # -- population ------------------------------------------------------------
    def add_node(self, host: Host, role: str) -> GnutellaNode:
        if host.host_id in self.nodes:
            raise OverlayError(f"host {host.host_id} already in network")
        node = GnutellaNode(host, self.sim, self.bus, self, role, self.config)
        self.nodes[host.host_id] = node
        node.go_online()
        return node

    def add_population(
        self,
        hosts: Sequence[Host],
        *,
        ultrapeer_fraction: float = 1 / 3,
        by_capacity: bool = False,
    ) -> None:
        """Add hosts, assigning the ultrapeer role to a fraction of them —
        randomly, or to the highest-capacity hosts when ``by_capacity``."""
        hosts = list(hosts)
        if not hosts:
            raise OverlayError("cannot add an empty population")
        if not 0.0 < ultrapeer_fraction <= 1.0:  # also rejects nan
            raise OverlayError(
                f"ultrapeer_fraction must be in (0, 1], got {ultrapeer_fraction}"
            )
        n_up = max(1, round(len(hosts) * ultrapeer_fraction))
        if by_capacity:
            ranked = sorted(
                hosts, key=lambda h: h.resources.capacity_score(), reverse=True
            )
            ups = {h.host_id for h in ranked[:n_up]}
        else:
            idx = self._rng.choice(len(hosts), size=n_up, replace=False)
            ups = {hosts[int(i)].host_id for i in idx}
        for h in hosts:
            self.add_node(h, ULTRAPEER if h.host_id in ups else LEAF)

    def role_of(self, host_id: int) -> str:
        node = self.nodes.get(host_id)
        if node is None:
            raise OverlayError(f"unknown gnutella node {host_id}")
        return node.role

    def ultrapeers(self) -> list[GnutellaNode]:
        return [n for n in self.nodes.values() if n.role == ULTRAPEER]

    def leaves(self) -> list[GnutellaNode]:
        return [n for n in self.nodes.values() if n.role == LEAF]

    # -- bootstrap ----------------------------------------------------------------
    def bootstrap(self, cache_fill: int = 50) -> None:
        """Fill every node's hostcache with a random subset of all
        addresses, as in the testlab setup of [1]."""
        population = list(self.nodes)
        others = len(population) - 1
        for i, node in enumerate(self.nodes.values()):
            # a random subset of everyone but node i, drawn without
            # building that list: index c of it is population[c], or
            # population[c + 1] from position i on
            n = min(cache_fill, others, node.hostcache.capacity)
            if n == 0:
                continue
            chosen = self._rng.choice(others, size=n, replace=False).tolist()
            node.hostcache.add_all(population[c + (c >= i)] for c in chosen)

    def ranked_candidates(self, node: GnutellaNode) -> list[int]:
        """Apply the neighbor-selection policy to the node's hostcache.

        Under BIASED, the oracle ranking is post-processed so that the
        node's connection target still includes ``external_quota``
        candidates from other ASes — Figure 6's "minimal number of
        inter-AS connections necessary to keep the network connected".
        """
        snapshot = node.hostcache.snapshot(self.oracle_list_limit)
        if self.policy is NeighborPolicy.UNBIASED:
            perm = self._rng.permutation(len(snapshot))
            return [snapshot[int(i)] for i in perm]
        assert self.oracle is not None
        ranked = self.oracle.rank(node.host_id, snapshot)
        if self.external_quota == 0:
            return ranked
        want = node.desired_connections()
        my_asn = self.underlay.asn_of(node.host_id)
        head = ranked[:want]
        externals_in_head = sum(
            1 for c in head if self.underlay.asn_of(c) != my_asn
        )
        missing = self.external_quota - externals_in_head
        if missing <= 0:
            return ranked
        # Bindal-style external links are chosen at RANDOM among the
        # non-local candidates: a nearest-external choice would still sit
        # in the same region and the network would partition region-wise.
        tail_pool = [
            c for c in ranked[want:] if self.underlay.asn_of(c) != my_asn
        ]
        if not tail_pool:
            return ranked
        take = min(missing, len(tail_pool))
        idx = self._rng.choice(len(tail_pool), size=take, replace=False)
        tail_externals = [tail_pool[int(i)] for i in idx]
        # displace the worst internal head entries with nearby externals
        keep = [c for c in head if c not in tail_externals]
        keep = keep[: want - len(tail_externals)]
        rest = [c for c in ranked if c not in keep and c not in tail_externals]
        return keep + tail_externals + rest

    def join_all(self, stagger_ms: float = 2000.0) -> None:
        """Schedule every node's join (one batched insert), ultrapeers
        first so that leaves find an ultrapeer mesh to attach to."""
        items = []
        for node in self.ultrapeers() + self.leaves():
            delay = float(self._rng.uniform(0, stagger_ms)) if stagger_ms > 0 else 0.0
            if node.role == LEAF:
                delay += stagger_ms  # leaves join after the UP mesh settles
            items.append((delay, self._join_node, (node,)))
        self.sim.schedule_many(items)

    def _join_node(self, node: GnutellaNode) -> None:
        node.join(self.ranked_candidates(node))

    # -- floods -------------------------------------------------------------------
    def query_plane_active(self) -> bool:
        """Always ``True``: every flood goes through the kernel."""
        # kept only because bench/workloads.py still asks
        return True

    def ping_round(self) -> None:
        """Every node emits one PING round (call after joins settle)."""
        self.flood_kernel.expand_ping_round(self.nodes.values())

    # -- guid / search bookkeeping ---------------------------------------------------
    def next_guid(self) -> int:
        self._guid_counter += 1
        return self._guid_counter

    def register_query(self, guid: int, origin: int, keyword: int) -> None:
        self.searches[guid] = SearchRecord(
            guid=guid, origin=origin, keyword=keyword, issued_at=self.sim.now
        )
        if self.search_retention is not None:
            # bounded bookkeeping for open-ended service runs: drop the
            # oldest records (FIFO)
            while len(self.searches) > self.search_retention:
                del self.searches[next(iter(self.searches))]

    def record_hit(self, guid: int, responder: int) -> None:
        rec = self.searches.get(guid)
        if rec is not None and responder not in rec.hits:
            first = not rec.hits
            rec.hits.append(responder)
            if first:
                rec.first_hit_at = self.sim.now
                if self.search_listener is not None:
                    self.search_listener(rec)

    def record_download_complete(self, guid: int, receiver: int) -> None:
        rec = self.searches.get(guid)
        if rec is not None and rec.origin == receiver:
            rec.download_done = True

    # -- workload ------------------------------------------------------------------
    def share_content(self, host_id: int, keywords: Sequence[int]) -> None:
        """Add content to a node's share list and, for a leaf, announce it
        to its ultrapeers so they can answer queries on its behalf."""
        node = self.nodes[host_id]
        new = {int(k) for k in keywords} - node.shared
        node.shared.update(new)
        if node.role == LEAF and new and node.neighbors:
            for up in node.neighbors:
                node.send(up, "SHARE", (host_id, frozenset(new)),
                          16 + 4 * len(new))

    def search(self, origin: int, keyword: int) -> int:
        return self.nodes[origin].start_query(keyword)

    def download_stage(self, guid: int, file_size_bytes: int = 4_000_000) -> Optional[int]:
        """Pick a source among the hits and transfer the file over HTTP.

        Unbiased: a uniformly random hit.  With ``biased_download`` the
        oracle is consulted *again* with the QueryHit list — the
        modification that [1] found raises intra-AS exchanges from ~7% to
        ~40%.  Returns the chosen source, or None for a failed search.
        """
        rec = self.searches.get(guid)
        if rec is None:
            raise OverlayError(f"unknown search {guid}")
        if not rec.hits:
            return None
        candidates = [h for h in rec.hits if h != rec.origin]
        if not candidates:
            return None
        if self.biased_download and self.oracle is not None:
            # top-1 via the single-scan path: same overhead charge and
            # jitter draw as a full rank, no sort
            source = self.oracle.best(rec.origin, candidates)
        else:
            source = candidates[int(self._rng.integers(len(candidates)))]
        rec.downloaded_from = source
        # the transfer itself: responder -> requester, accounted on the bus
        self.bus.send(source, rec.origin, "HTTP_DOWNLOAD", guid, file_size_bytes)
        return source

    # -- analysis ----------------------------------------------------------------------
    def overlay_graph(self) -> nx.Graph:
        """Current overlay topology (UP-UP and UP-leaf edges)."""
        g = nx.Graph()
        for node in self.nodes.values():
            g.add_node(node.host_id, role=node.role, asn=node.asn)
        for node in self.nodes.values():
            for nb in node.neighbors:
                g.add_edge(node.host_id, nb)
            for leaf in node.leaves:
                g.add_edge(node.host_id, leaf)
        return g

    def message_counts(self) -> dict[str, int]:
        """Bus-level per-kind counts (every forwarded hop counts once),
        plus protocol-level drop totals: ``dropped_duplicate`` (copies of
        a descriptor arriving at a host its flood already reached) and
        ``dropped_ttl`` (descriptors an ultrapeer declined to forward at
        TTL expiry)."""
        counts = dict(self.bus.stats.by_kind)
        counts["dropped_duplicate"] = self.drop_counts["duplicate"]
        counts["dropped_ttl"] = self.drop_counts["ttl"]
        return counts

    def search_success_rate(self) -> float:
        if not self.searches:
            return 0.0
        ok = sum(1 for rec in self.searches.values() if rec.hits)
        return ok / len(self.searches)
