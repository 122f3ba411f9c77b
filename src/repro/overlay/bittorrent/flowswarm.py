"""Flow-level BitTorrent swarm: event-driven control plane over a
max-min fair data plane.

The swarm's *data plane* is the flow-level model of
:mod:`repro.sim.flows`; its *control plane* — tracker announces,
tit-for-tat rechoke, biased neighbor selection — is event-driven on the
simulation engine:

- each unchoked (uploader → downloader) relationship is a **flow**
  ceilinged by the uploader's per-slot share and crossing the
  downloader's access link (plus, optionally, capacitated transit trunks
  along its AS path);
- rates are the **max-min fair** allocation over those constraints,
  recomputed only on flow arrival/departure epochs (rechoke rounds, peer
  joins and completions), never on a time step — the default
  access-bottlenecked case solves in closed form via
  :func:`~repro.sim.flows.single_link_waterfill`, the capacitated-trunk
  case via :func:`~repro.sim.flows.max_min_rates`;
- between epochs rates are constant, so byte progress, per-class traffic
  accounting and per-AS transit billing are exact integrals.

Piece granularity is modeled as a *parallelism cap*: a downloader with
``m`` pieces left fetches from at most ``m`` uploaders at once (each
piece is bound to one uploader), and bindings are sticky — which is what
reproduces a piece-level swarm's endgame tail, where a slow uploader
holds the last piece while faster unchokers sit idle.

Peers, flows and the incidence structure live in struct-of-arrays
columns: one ``bincount`` sweep advances every flow, and a
thousand-peer swarm costs a handful of numpy kernels per epoch.  The
flow table is compiled **once per rechoke** — endpoints, AS-pair ids and
the piece bindings carried over by ``(up, down)`` pair — and between two
rechokes its rows only die, so a **completion epoch** pays for what
moved: bindings are a bool column, a downloader whose bindings already
fill its piece allowance is not re-ranked, the rest are ordered by one
:func:`~repro.sim.flows.grouped_order`, and teardown is a mask gather.
The **rechoke** is one array pass too: a neighbor index (owner row →
neighbor rows, in each peer's neighbor-set order) rebuilt only after a
join, tit-for-tat counters held as two columns of the flow table
(bytes received, bytes sent) plus the carried counters of downloaders
that have no piece yet, one stable ``grouped_order`` ranking every
owner's candidates, and Python entered only for the optimistic draws.
Every epoch still draws the same numbers from the same RNG streams.  The
fluid byte-level abstraction is what makes thousands-of-peer locality
sweeps (Cuevas et al., *Deep Diving into BitTorrent Locality*)
tractable.  ``tests/bittorrent_reference.py`` keeps an exact
piece-level, time-stepped swarm as the oracle:
``tests/test_flowswarm_equiv.py`` asserts distributional equivalence
against it on small swarms and pins this plane bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from repro.errors import OverlayError
from repro.overlay.bittorrent.torrent import Torrent
from repro.overlay.bittorrent.tracker import Tracker
from repro.rng import SeedLike, ensure_rng, spawn
from repro.sim.engine import EventHandle, Simulation
from repro.sim.flows import grouped_order, max_min_rates, single_link_waterfill
from repro.underlay.autonomous_system import LinkType
from repro.underlay.cost import TransitBillingLedger
from repro.underlay.network import Underlay

#: traffic classes, indexed by the pair-classification code
_INTRA, _PEERING, _TRANSIT = 0, 1, 2

#: sampling width of the per-AS transit billing ledger, in seconds
BILLING_BUCKET_S = 300.0


@dataclass(frozen=True)
class SwarmConfig:
    """Choking parameters: unchoke slots, rechoke interval, CAT mode."""
    regular_slots: int = 4
    optimistic_slots: int = 1
    rechoke_interval_s: float = 10.0
    cost_aware: bool = False          # CAT-style same-AS preference

    def __post_init__(self) -> None:
        if self.regular_slots < 1 or self.optimistic_slots < 0:
            raise OverlayError("invalid unchoke slot configuration")
        if self.rechoke_interval_s <= 0:
            raise OverlayError("rechoke interval must be positive")


@dataclass
class SwarmReport:
    """Outcome of one swarm run."""

    completed: int
    total_leechers: int
    mean_download_time_s: float
    median_download_time_s: float
    intra_as_bytes: float
    peering_bytes: float
    transit_bytes: float
    duration_s: float

    @property
    def completion_rate(self) -> float:
        return self.completed / self.total_leechers if self.total_leechers else 0.0

    @property
    def total_bytes(self) -> float:
        return self.intra_as_bytes + self.peering_bytes + self.transit_bytes

    @property
    def intra_as_fraction(self) -> float:
        t = self.total_bytes
        return self.intra_as_bytes / t if t else 0.0

    @property
    def transit_fraction(self) -> float:
        t = self.total_bytes
        return self.transit_bytes / t if t else 0.0


@dataclass(frozen=True)
class FlowPlaneConfig:
    """Data-plane knobs of the flow-level swarm.

    ``transit_capacity_mbps`` caps each paying AS's transit trunk; the
    default ``None`` leaves transit uncapacitated (access links are then
    the only bottlenecks).

    ``work_conserving`` selects the sender model.  ``False`` (default)
    mirrors real BitTorrent, where an uploader splits its capacity
    *equally* across its unchoke slots and a share left unclaimed by a
    slow receiver is not redistributed: each
    flow gets a rate ceiling of ``up_bps / n_slots``.  ``True`` drops the
    ceilings and lets progressive filling redistribute freely (pure
    max-min over access links), an idealised work-conserving swarm.
    """

    transit_capacity_mbps: Optional[float] = None
    work_conserving: bool = False

    def __post_init__(self) -> None:
        if (
            self.transit_capacity_mbps is not None
            and self.transit_capacity_mbps <= 0
        ):
            raise OverlayError("transit capacity must be positive")


class _FlowPeer:
    """Control-plane state of one swarm member (bytes live in columns)."""

    __slots__ = (
        "host_id", "row", "asn", "is_initial_seed", "complete",
        "neighbors", "join_time", "finish_time", "_rng",
    )

    def __init__(
        self, host_id: int, row: int, asn: int, *, is_seed: bool, rng
    ) -> None:
        self.host_id = host_id
        self.row = row
        self.asn = asn
        self.is_initial_seed = is_seed
        self.complete = is_seed
        self.neighbors: set[int] = set()
        self.join_time = 0.0
        self.finish_time: Optional[float] = None
        self._rng = rng


class FlowSwarmSimulation:
    """Single-torrent swarm on the flow-level data plane.

    ``run`` drives a discrete-event control plane whose epochs
    reallocate max-min fair flow rates, and returns a
    :class:`SwarmReport`.
    """

    def __init__(
        self,
        underlay: Underlay,
        torrent: Torrent,
        tracker: Tracker,
        *,
        config: SwarmConfig | None = None,
        flow_config: FlowPlaneConfig | None = None,
        rng: SeedLike = None,
    ) -> None:
        self.underlay = underlay
        self.torrent = torrent
        self.tracker = tracker
        self.config = config or SwarmConfig()
        self.flow_config = flow_config or FlowPlaneConfig()
        self._rng = ensure_rng(rng)
        self.engine = Simulation()

        self.peers: dict[int, _FlowPeer] = {}
        self._peer_rows: list[_FlowPeer] = []
        self._host_ids: list[int] = []
        # per-peer columns (capacity-doubled)
        self._bytes = np.zeros(16)
        self._up_bps = np.zeros(16)
        self._down_bps = np.zeros(16)
        self._uploaded = np.zeros(16)
        self._downloaded = np.zeros(16)
        self._asn_col = np.zeros(16, dtype=np.int64)
        self._complete_col = np.zeros(16, dtype=bool)
        self._leecher_col = np.zeros(16, dtype=bool)

        # flow columns, rebuilt per rechoke epoch, masked per completion
        self._f_up = np.zeros(0, dtype=np.int64)
        self._f_down = np.zeros(0, dtype=np.int64)
        self._f_pair = np.zeros(0, dtype=np.int64)
        self._f_rate = np.zeros(0)
        self._f_bytes = np.zeros(0)
        self._f_alive = np.zeros(0, dtype=bool)
        self._f_parked = np.zeros(0, dtype=bool)
        # sticky piece bindings: the rows kept transferring the last time
        # piece-granularity parking cut anything
        self._f_bound = np.zeros(0, dtype=bool)
        # tit-for-tat counters of each row: bytes ``down`` received from
        # ``up`` and bytes ``up`` sent to ``down`` since the endpoint's
        # last rechoke with data
        self._f_recv = np.zeros(0)
        self._f_sent = np.zeros(0)
        # received-bytes counters of downloaders still without data whose
        # (up, down) pair is not in the table, keyed ``down << 32 | up``
        self._carry_keys = np.zeros(0, dtype=np.int64)
        self._carry_vals = np.zeros(0)
        # neighbor index: owner row and neighbor row of every slot whose
        # neighbor was still leeching at the last rechoke, owners
        # ascending, each owner's slots in its neighbor-set order
        self._nbr_owner = np.zeros(0, dtype=np.int32)
        self._nbr_row = np.zeros(0, dtype=np.int32)
        self._nbr_stale = False

        # AS-pair classification registry (grows to at most |AS|^2)
        self._pair_id: dict[tuple[int, int], int] = {}
        self._pair_class: list[int] = []
        self._pair_payers: list[tuple[int, ...]] = []
        self._pair_trunks: list[tuple[int, ...]] = []
        self._pair_class_arr = np.zeros(0, dtype=np.int64)
        self._pair_extra_len = np.zeros(0, dtype=np.int64)
        # per paying AS transit trunk (only when capacitated)
        self._trunk_of_as: dict[int, int] = {}
        self._trunk_caps: list[float] = []
        # pair -> payers incidence (CSR-ish), for vectorised billing
        self._payer_asns: list[int] = []
        self._payer_idx: dict[int, int] = {}
        self._pp_pair = np.zeros(0, dtype=np.int64)
        self._pp_payer = np.zeros(0, dtype=np.int64)
        self._pp_dirty = False

        # accounting
        self.intra_as_bytes = 0.0
        self.peering_bytes = 0.0
        self.transit_bytes = 0.0
        self.paid_transit: dict[int, float] = {}
        self.billing = TransitBillingLedger(bucket_seconds=BILLING_BUCKET_S)
        self.reallocs_total = 0

        self._last_adv = self.engine.now
        self._last_activity = self.engine.now
        self._sync_handle: Optional[EventHandle] = None
        self._pending_joins = 0
        self._started = False

    # -- population ------------------------------------------------------------
    def _grow_columns(self, need: int) -> None:
        cap = self._bytes.size
        if need <= cap:
            return
        new = max(need, cap * 2)
        for name in ("_bytes", "_up_bps", "_down_bps", "_uploaded",
                     "_downloaded"):
            col = getattr(self, name)
            grown = np.zeros(new)
            grown[: col.size] = col
            setattr(self, name, grown)
        grown = np.zeros(new, dtype=np.int64)
        grown[: self._asn_col.size] = self._asn_col
        self._asn_col = grown
        for name in ("_complete_col", "_leecher_col"):
            col = getattr(self, name)
            grown = np.zeros(new, dtype=bool)
            grown[: col.size] = col
            setattr(self, name, grown)

    def add_peer(self, host_id: int, *, is_seed: bool = False) -> _FlowPeer:
        """Join a peer now: announce to the tracker, link neighbors."""
        if host_id in self.peers:
            raise OverlayError(f"peer {host_id} already in swarm")
        host = self.underlay.host(host_id)
        (peer_rng,) = spawn(self._rng, 1)
        row = len(self._peer_rows)
        self._grow_columns(row + 1)
        peer = _FlowPeer(
            host_id, row, host.asn, is_seed=is_seed, rng=peer_rng
        )
        peer.join_time = self.engine.now
        self.peers[host_id] = peer
        self._peer_rows.append(peer)
        self._host_ids.append(host_id)
        total = float(self.torrent.total_bytes)
        self._bytes[row] = total if is_seed else 0.0
        self._up_bps[row] = host.resources.bandwidth_up_kbps * 1000.0 / 8.0
        self._down_bps[row] = host.resources.bandwidth_down_kbps * 1000.0 / 8.0
        self._asn_col[row] = host.asn
        self._complete_col[row] = is_seed
        self._leecher_col[row] = not is_seed
        peer_list = self.tracker.announce(host_id)
        peer.neighbors.update(peer_list)
        for p in peer_list:
            other = self.peers.get(p)
            if other is not None:
                other.neighbors.add(host_id)
        self._nbr_stale = True
        return peer

    def populate(
        self,
        leechers: Sequence[int],
        seeds: Sequence[int],
        *,
        arrival_span_s: float = 0.0,
    ) -> None:
        """Schedule every join on the engine (seeds first, then leechers
        spread uniformly over ``arrival_span_s``) in one
        :meth:`~repro.sim.engine.Simulation.schedule_many` batch."""
        if arrival_span_s < 0:
            raise OverlayError("arrival span must be non-negative")
        items: list[tuple[float, object, tuple]] = [
            (0.0, self._join, (s, True)) for s in seeds
        ]
        if arrival_span_s > 0 and len(leechers) > 1:
            offsets = np.sort(
                self._rng.uniform(0.0, arrival_span_s, size=len(leechers))
            )
        else:
            offsets = np.zeros(len(leechers))
        items.extend(
            (float(off), self._join, (l, False))
            for off, l in zip(offsets, leechers)
        )
        self._pending_joins += len(items)
        self.engine.schedule_many(items)

    def _join(self, host_id: int, is_seed: bool) -> None:
        self._pending_joins -= 1
        self.add_peer(host_id, is_seed=is_seed)

    # -- AS-pair classification --------------------------------------------------
    def _pair(self, src_asn: int, dst_asn: int) -> int:
        """Classify one AS pair once: traffic class, paying ASes, and the
        capacitated transit trunks its route crosses."""
        key = (src_asn, dst_asn)
        pid = self._pair_id.get(key)
        if pid is not None:
            return pid
        if src_asn == dst_asn:
            cls, payers = _INTRA, ()
        else:
            plan = self.underlay.routing.route_plan(src_asn, dst_asn)
            cls = _TRANSIT if plan.link_class is LinkType.TRANSIT else _PEERING
            payers = tuple(p for _key, p in plan.links if p is not None)
        trunks: tuple[int, ...] = ()
        if self.flow_config.transit_capacity_mbps is not None and payers:
            cap = self.flow_config.transit_capacity_mbps * 1e6 / 8.0
            ids = []
            for payer in payers:
                trunk = self._trunk_of_as.get(payer)
                if trunk is None:
                    trunk = len(self._trunk_caps)
                    self._trunk_of_as[payer] = trunk
                    self._trunk_caps.append(cap)
                ids.append(trunk)
            trunks = tuple(sorted(set(ids)))
        pid = len(self._pair_class)
        self._pair_id[key] = pid
        self._pair_class.append(cls)
        self._pair_payers.append(payers)
        self._pair_trunks.append(trunks)
        self._pair_class_arr = np.asarray(self._pair_class, dtype=np.int64)
        self._pair_extra_len = np.asarray(
            [len(t) for t in self._pair_trunks], dtype=np.int64
        )
        self._pp_dirty = True
        return pid

    def _pairs(self, src_asns: np.ndarray, dst_asns: np.ndarray) -> np.ndarray:
        """:meth:`_pair` for a whole flow table.  Unseen pairs are
        classified in order of first appearance: pair ids order the float
        sums of the byte accounting, so they are part of the result."""
        stride = int(max(src_asns.max(initial=0), dst_asns.max(initial=0))) + 1
        keys, first, inverse = np.unique(
            src_asns * stride + dst_asns, return_index=True, return_inverse=True
        )
        ids = np.empty(keys.size, dtype=np.int64)
        for j in np.argsort(first):
            ids[j] = self._pair(*divmod(int(keys[j]), stride))
        return ids[inverse]

    def _payer_members(self) -> tuple[np.ndarray, np.ndarray]:
        """Pair → paying-AS incidence arrays for vectorised billing."""
        if self._pp_dirty:
            pp_pair: list[int] = []
            pp_payer: list[int] = []
            for pid, payers in enumerate(self._pair_payers):
                for asn in payers:
                    idx = self._payer_idx.get(asn)
                    if idx is None:
                        idx = len(self._payer_asns)
                        self._payer_idx[asn] = idx
                        self._payer_asns.append(asn)
                    pp_pair.append(pid)
                    pp_payer.append(idx)
            self._pp_pair = np.asarray(pp_pair, dtype=np.int64)
            self._pp_payer = np.asarray(pp_payer, dtype=np.int64)
            self._pp_dirty = False
        return self._pp_pair, self._pp_payer

    # -- control plane: rechoke + flow table -------------------------------------
    def _index_neighbors(self) -> None:
        """Rebuild the neighbor index: one slot per (peer, neighbor) that
        is a swarm member, owners in row order, each owner's slots in the
        iteration order of its ``neighbors`` set — that order breaks
        ranking ties and indexes the optimistic pick, so it is part of
        the result.  Sets only change on a join."""
        # drop the old buffers before the new ones are allocated
        self._nbr_owner = self._nbr_row = None
        sets = [p.neighbors for p in self._peer_rows]
        n = len(sets)
        counts = np.fromiter(map(len, sets), dtype=np.int64, count=n)
        hosts = np.fromiter(
            chain.from_iterable(sets), dtype=np.int64, count=int(counts.sum())
        )
        host_ids = np.asarray(self._host_ids, dtype=np.int64)
        row_of = np.full(
            int(max(hosts.max(initial=-1), host_ids.max(initial=-1))) + 1,
            -1, dtype=np.int32,
        )
        row_of[host_ids] = np.arange(n, dtype=np.int32)
        rows = row_of[hosts]
        owner = np.repeat(np.arange(n, dtype=np.int32), counts)
        member = rows >= 0  # the tracker may know hosts this swarm does not
        if not member.all():
            rows, owner = rows[member], owner[member]
        self._nbr_owner, self._nbr_row = owner, rows
        self._nbr_stale = False

    def _tft_values(
        self, owner: np.ndarray, cand: np.ndarray, wants: np.ndarray
    ) -> np.ndarray:
        """Each candidate's tit-for-tat counter as its owner ranks it:
        a leecher by the bytes it received from the candidate, a complete
        peer by the bytes it sent to it (serve fast downloaders).  Read
        from the last table's counter columns and the carried counters."""
        up, down = self._f_up, self._f_down
        recv = wants[down]  # still leeching: ranks by bytes received
        sent = ~wants[up]  # complete: ranks by bytes sent
        carried = wants[self._carry_keys >> 32]
        keys = np.concatenate([
            (down[recv] << 32) | up[recv],
            (up[sent] << 32) | down[sent],
            self._carry_keys[carried],
        ])
        if keys.size == 0:
            return np.zeros(cand.size)
        vals = np.concatenate([
            self._f_recv[recv], self._f_sent[sent], self._carry_vals[carried],
        ])
        by_key = np.argsort(keys)
        keys, vals = keys[by_key], vals[by_key]
        want = (owner.astype(np.int64) << 32) | cand
        at = np.searchsorted(keys, want)
        np.minimum(at, keys.size - 1, out=at)
        return np.where(keys[at] == want, vals[at], 0.0)

    def _restart_counters(
        self, has_data: np.ndarray, up: np.ndarray, down: np.ndarray
    ) -> None:
        """Counter columns for the new table ``(up, down)``.  A peer with
        data restarts from zero; a downloader still without data keeps
        what it received — in the new row's column when its pair is back
        in the table (so later folds add to it exactly as a dict entry
        would), carried by ``(down, up)`` pair when it is not."""
        old_up, old_down = self._f_up, self._f_down
        held = ~has_data[old_down] & (self._f_recv > 0.0)
        carried = ~has_data[self._carry_keys >> 32]
        keys = np.concatenate([
            (old_down[held] << 32) | old_up[held], self._carry_keys[carried]
        ])
        vals = np.concatenate([self._f_recv[held], self._carry_vals[carried]])
        self._f_recv = np.zeros(up.size)
        self._f_sent = np.zeros(up.size)
        if keys.size:
            by_key = np.argsort(keys)
            keys, vals = keys[by_key], vals[by_key]
            row_keys = (down << 32) | up
            at = np.minimum(np.searchsorted(keys, row_keys), keys.size - 1)
            back = keys[at] == row_keys
            self._f_recv[back] = vals[at[back]]
            still_out = np.ones(keys.size, dtype=bool)
            still_out[at[back]] = False
            keys, vals = keys[still_out], vals[still_out]
        self._carry_keys, self._carry_vals = keys, vals

    def _rechoke_and_rebuild(self) -> None:
        """Recompute every peer's unchoke set (tit-for-tat; CAT same-AS
        preference when configured) and materialise the flow table.

        Fluid interest: an incomplete peer wants data from anyone who has
        any bytes (piece-level overlap averages out at flow
        granularity).

        One array pass over every owner's candidates: a peer with data
        ranks its interested neighbors by counter, descending — a stable
        :func:`~repro.sim.flows.grouped_order`, so ties stay in
        neighbor-set order — and unchokes the first ``regular_slots``
        plus ``optimistic_slots`` drawn from the rest with its own RNG;
        only owners with a rest enter Python.  Rows come out owner by
        owner, regular slots in rank order, then optimistic ones in draw
        order.  A peer with data starts from zero counters; one without
        keeps what it received, carried by ``(down, up)`` pair.
        """
        n = len(self._peer_rows)
        complete = self._complete_col[:n]
        # a leecher can only serve *complete* pieces, so it needs at
        # least one piece's worth of bytes before it can upload
        has_data = complete | (
            self._bytes[:n] >= float(self.torrent.piece_size_bytes)
        )
        wants = ~complete
        asn_col = self._asn_col
        cfg = self.config
        regular = cfg.regular_slots
        optimistic = cfg.optimistic_slots
        if self._nbr_stale:
            self._index_neighbors()
        # a neighbor that completed never wants again: it leaves the
        # index until the next join rebuilds it
        live = wants[self._nbr_row]
        owner = self._nbr_owner = self._nbr_owner[live]
        cand = self._nbr_row = self._nbr_row[live]
        take = has_data[owner]
        owner, cand = owner[take], cand[take]
        # candidate-sized temporaries are dropped as soon as they are
        # used: at ramp-up they would otherwise set the peak RSS
        del live, take
        key = self._tft_values(owner, cand, wants)
        np.negative(key, out=key)  # descending counters
        if cfg.cost_aware:
            # same-AS candidates first
            same_as = asn_col[cand] == asn_col[owner]
            group = owner.astype(np.int64) * 2 + ~same_as
        else:
            group = owner
        ranked = cand[grouped_order(group, key)]
        del key, group, cand
        count = np.bincount(owner, minlength=n)
        start = np.cumsum(count) - count
        top = ranked[np.arange(ranked.size) - start[owner] < regular]
        del owner
        drawn: list[int] = []
        if optimistic:
            peers = self._peer_rows
            for o in np.flatnonzero(count > regular).tolist():
                s = int(start[o]) + regular
                rest = ranked[s : s + int(count[o]) - regular].tolist()
                draw = peers[o]._rng.integers
                for _ in range(min(optimistic, len(rest))):
                    drawn.append(rest.pop(int(draw(len(rest)))))
        del ranked
        # each owner's rows: its top ``regular`` by rank, then its draws
        n_top = np.minimum(count, regular)
        per = n_top + np.clip(count - regular, 0, optimistic)
        nf = int(per.sum())
        up = np.repeat(np.arange(n, dtype=np.int64), per)
        slot = np.arange(nf) - np.repeat(np.cumsum(per) - per, per)
        is_drawn = slot >= np.repeat(n_top, per)
        down = np.empty(nf, dtype=np.int64)
        down[~is_drawn] = top
        down[is_drawn] = drawn
        self._restart_counters(has_data, up, down)

        # rows are renumbered here and nowhere else, so this is the one
        # place a binding has to be found again by its (up, down) pair
        was_bound = (self._f_up[self._f_bound] << 32) | self._f_down[self._f_bound]
        self._f_up = up
        self._f_down = down
        self._f_pair = self._pairs(asn_col[up], asn_col[down])
        self._f_bound = np.isin((up << 32) | down, was_bound)
        self._f_rate = np.zeros(nf)
        self._f_bytes = np.zeros(nf)
        self._f_alive = np.ones(nf, dtype=bool)
        self._f_parked = np.zeros(nf, dtype=bool)

    # -- data plane --------------------------------------------------------------
    def _fold_flow_bytes(self, rows: np.ndarray) -> None:
        """Credit accumulated per-flow bytes to the tit-for-tat counters
        of the endpoints (on teardown, and before each rechoke ranks)."""
        moved = self._f_bytes[rows]
        self._f_recv[rows] += moved
        self._f_sent[rows] += moved
        self._f_bytes[rows] = 0.0

    def _apply_parking(self) -> None:
        """Piece-granularity parallelism cap (the fluid analogue of the
        reference's piece binding): a downloader with ``m`` pieces left
        can fetch from at most ``m`` uploaders concurrently — each piece
        is bound to one uploader, and the extra unchoke slots sit idle
        rather than duplicating a piece in flight.  Bindings are sticky
        (``self._f_bound``): a slow uploader keeps its piece until
        done, which is exactly what stretches the reference's endgame
        tail.  Within a downloader existing bindings rank first, then
        flows mid-transfer, then fresh ones (random within each tier),
        and a segment-rank cut keeps the top ``m``.

        Per epoch this draws one random key per affected row and ranks,
        with one :func:`~repro.sim.flows.grouped_order`, only the rows of
        downloaders whose bindings do not already number ``m`` — a piece
        finished, or a rechoke changed who serves them.  Rows are stable
        between rechokes, so "was kept last time" is a column written
        here; it is re-keyed by ``(up, down)`` only where the table is
        rebuilt.
        """
        self._f_parked[:] = False
        alive = np.flatnonzero(self._f_alive)
        if alive.size == 0:
            return
        n = len(self._peer_rows)
        down_a = self._f_down[alive]
        k = np.bincount(down_a, minlength=n)
        total = float(self.torrent.total_bytes)
        piece = float(self.torrent.piece_size_bytes)
        m = np.ceil((total - self._bytes[:n]) / piece)
        over = ((~self._complete_col[:n]) & (k > m))[down_a]
        sub = alive[over]
        if sub.size == 0:
            self._f_bound[:] = False
            return
        down_s = down_a[over]
        bound = self._f_bound[sub]
        draw = self._rng.random(sub.size)
        # a downloader holding exactly ``m`` bindings keeps exactly those
        # whatever it drew, so only the others' rows are ranked
        held = np.bincount(down_s, weights=bound, minlength=n)
        moved = (held != m)[down_s]
        kept = sub[bound & ~moved]
        if moved.any():
            rows = sub[moved]
            d = down_s[moved]
            # within a downloader: bound rows, then mid-transfer, then fresh
            tier = (~bound[moved]) * 2 + (self._f_bytes[rows] <= 0.0)
            order = grouped_order((d << 2) | tier, draw[moved])
            d_sorted = d[order]
            change = np.empty(rows.size, dtype=bool)
            change[0] = True
            np.not_equal(d_sorted[1:], d_sorted[:-1], out=change[1:])
            gstart = np.flatnonzero(change)
            pos = np.arange(rows.size) - gstart[np.cumsum(change) - 1]
            kept = np.concatenate([kept, rows[order[pos < m[d_sorted]]]])
        self._f_parked[sub] = True
        self._f_parked[kept] = False
        self._f_bound[:] = False
        self._f_bound[kept] = True

    def _reallocate(self) -> None:
        """Max-min rates for the live, unparked flow rows."""
        self._apply_parking()
        self._f_rate[:] = 0.0
        alive = np.flatnonzero(self._f_alive & ~self._f_parked)
        if alive.size == 0:
            self._schedule_sync()
            return
        n = len(self._peer_rows)
        up = self._f_up[alive]
        down = self._f_down[alive]
        pair = self._f_pair[alive]
        extra = self._pair_extra_len[pair]
        if self.flow_config.work_conserving:
            flow_cap = None
        else:
            # equal split of each uploader's capacity across its slots;
            # parked slots still count (their unclaimed share is wasted,
            # exactly as in the reference's equal split)
            slots = np.bincount(self._f_up[self._f_alive], minlength=n)
            flow_cap = self._up_bps[up] / slots[up]
        if flow_cap is not None and not extra.any():
            # access-bottlenecked fast path: the slot ceilings sum to the
            # uplink, so only the downlink is shared — closed form
            rates = single_link_waterfill(
                self._down_bps[:n], down, flow_cap
            )
        else:
            counts = 2 + extra
            indptr = np.zeros(alive.size + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            indices = np.zeros(indptr[-1], dtype=np.int64)
            starts = indptr[:-1]
            indices[starts] = up
            indices[starts + 1] = n + down
            if extra.any():
                trunk_base = 2 * n
                for j in np.flatnonzero(extra):
                    trunks = self._pair_trunks[pair[j]]
                    indices[starts[j] + 2 : indptr[j + 1]] = [
                        trunk_base + t for t in trunks
                    ]
            capacity = np.concatenate(
                [self._up_bps[:n], self._down_bps[:n],
                 np.asarray(self._trunk_caps)]
            )
            rates = max_min_rates(capacity, indptr, indices, flow_cap)
        self._f_rate[alive] = rates
        self.reallocs_total += 1
        self._schedule_sync()

    def _advance_to(self, t: float) -> None:
        """Integrate flow progress from the last epoch up to time ``t``."""
        dt = t - self._last_adv
        self._last_adv = t
        if dt <= 0.0 or self._f_rate.size == 0:
            return
        delta = self._f_rate * dt
        if not delta.any():
            return
        self._last_activity = t
        self._f_bytes += delta
        n = len(self._peer_rows)
        dl = np.bincount(self._f_down, weights=delta, minlength=n)
        ul = np.bincount(self._f_up, weights=delta, minlength=n)
        self._bytes[:n] += dl
        self._downloaded[:n] += dl
        self._uploaded[:n] += ul
        n_pairs = len(self._pair_class)
        pair_sum = np.bincount(
            self._f_pair, weights=delta, minlength=n_pairs
        )
        cls_sum = np.bincount(
            self._pair_class_arr, weights=pair_sum, minlength=3
        )
        self.intra_as_bytes += float(cls_sum[_INTRA])
        self.peering_bytes += float(cls_sum[_PEERING])
        self.transit_bytes += float(cls_sum[_TRANSIT])
        if cls_sum[_TRANSIT] > 0:
            pp_pair, pp_payer = self._payer_members()
            payer_bytes = np.bincount(
                pp_payer,
                weights=pair_sum[pp_pair],
                minlength=len(self._payer_asns),
            )
            when = t - dt  # interval start; buckets are coarse vs epochs
            paid = self.paid_transit
            for i in np.flatnonzero(payer_bytes):
                asn = self._payer_asns[i]
                moved = float(payer_bytes[i])
                paid[asn] = paid.get(asn, 0.0) + moved
                self.billing.record(asn, when, moved)

    # -- completions -------------------------------------------------------------
    def _schedule_sync(self) -> None:
        """(Re)schedule the data-plane sync at the earliest projected
        leecher completion under the current rates."""
        if self._sync_handle is not None:
            self._sync_handle.cancel()
            self._sync_handle = None
        n = len(self._peer_rows)
        if n == 0:
            return
        rate_in = np.bincount(
            self._f_down, weights=self._f_rate, minlength=n
        )
        pending = (~self._complete_col[:n]) & (rate_in > 0.0)
        if not pending.any():
            return
        total = float(self.torrent.total_bytes)
        remaining = total - self._bytes[:n][pending]
        eta = float((remaining / rate_in[pending]).min())
        self._sync_handle = self.engine.schedule(
            max(eta, 0.0), self._on_sync
        )

    def _on_sync(self) -> None:
        self._sync_handle = None
        self._advance_to(self.engine.now)
        self._complete_finished()
        self._reallocate()

    def _complete_finished(self) -> None:
        """Promote leechers whose byte column reached the torrent size."""
        n = len(self._peer_rows)
        total = float(self.torrent.total_bytes)
        done_rows = np.flatnonzero(
            (~self._complete_col[:n]) & (self._bytes[:n] >= total - 0.5)
        )
        if done_rows.size == 0:
            return
        now = self.engine.now
        for row in done_rows:
            peer = self._peer_rows[row]
            peer.complete = True
            peer.finish_time = now
            self._complete_col[row] = True
            self._bytes[row] = total
        # tear down the completed peers' inbound flows
        done = np.zeros(n, dtype=bool)
        done[done_rows] = True
        rows = np.flatnonzero(self._f_alive & done[self._f_down])
        if rows.size:
            self._fold_flow_bytes(rows)
            self._f_alive[rows] = False
            self._f_rate[rows] = 0.0

    # -- epochs ------------------------------------------------------------------
    def _on_rechoke(self) -> None:
        self._advance_to(self.engine.now)
        self._complete_finished()
        # rankings must see the bytes moved since the last rechoke
        self._fold_flow_bytes(np.flatnonzero(self._f_alive))
        self._rechoke_and_rebuild()
        self._reallocate()
        n = len(self._peer_rows)
        incomplete = (~self._complete_col[:n]) & self._leecher_col[:n]
        # arrival-span populations keep the rechoke loop alive until the
        # last scheduled join has fired
        if incomplete.any() or self._pending_joins > 0:
            self.engine.schedule(
                self.config.rechoke_interval_s, self._on_rechoke
            )

    # -- runs --------------------------------------------------------------------
    def start(self) -> None:
        """Arm the control plane (first rechoke at the current time)."""
        if self._started:
            return
        self._started = True
        self._last_adv = self.engine.now
        self.engine.schedule(0.0, self._on_rechoke)

    def run(self, *, max_time_s: float = 3600.0) -> SwarmReport:
        """Drive the engine until every leecher finishes (the event queue
        drains) or ``max_time_s``; returns the swarm report."""
        self.start()
        self.engine.run(until=max_time_s)
        self._advance_to(min(self.engine.now, max_time_s))
        self._complete_finished()
        return self.report()

    def download_times_by_as(self) -> dict[int, np.ndarray]:
        """Completed leechers' download times grouped by home AS — the
        per-ISP fairness view of a locality sweep (aggregate medians hide
        the ASes whose peers a biased tracker starves)."""
        out: dict[int, list[float]] = {}
        for p in self._peer_rows:
            if p.is_initial_seed or p.finish_time is None:
                continue
            out.setdefault(p.asn, []).append(p.finish_time - p.join_time)
        return {asn: np.asarray(ts) for asn, ts in out.items()}

    def report(self) -> SwarmReport:
        leechers = [p for p in self._peer_rows if not p.is_initial_seed]
        done = [p for p in leechers if p.finish_time is not None]
        times = (
            np.array([p.finish_time - p.join_time for p in done])
            if done
            else np.array([])
        )
        return SwarmReport(
            completed=len(done),
            total_leechers=len(leechers),
            mean_download_time_s=float(times.mean()) if times.size else float("nan"),
            median_download_time_s=float(np.median(times)) if times.size else float("nan"),
            intra_as_bytes=self.intra_as_bytes,
            peering_bytes=self.peering_bytes,
            transit_bytes=self.transit_bytes,
            duration_s=self._last_activity - (
                self._peer_rows[0].join_time if self._peer_rows else 0.0
            ),
        )
