"""Flow-level bandwidth sharing: max-min fair rates over a capacity graph.

The data plane of a swarm at scale is not per-packet or per-piece message
exchange but a set of concurrent *flows* (active transfers) sharing link
capacities.  This module models exactly that:

- a **link table** of capacitated resources (per-host access up/down
  links, optionally per-AS transit trunks);
- **flows**, each crossing a fixed set of links, receiving a rate from
  the classic **progressive-filling / bottleneck-elimination** algorithm
  (Bertsekas & Gallager): all unfrozen flows grow at the same pace until
  some link saturates, flows through saturated links freeze at their
  current rate, repeat until every flow is frozen.

The allocator is vectorised over link **incidence arrays** (CSR-style
membership of flows in links) in the spirit of the batched selection and
peer-state kernels: one ``bincount`` per filling round instead of a
python loop per flow, so thousand-flow allocations cost milliseconds.

Rates are only recomputed on flow **arrival/departure events** (and
whatever control-plane epochs the caller defines, e.g. rechoke rounds),
never on a fixed time step — between two events every rate is constant,
so byte progress is exact integration, not discretisation.

:class:`FlowNetwork` keeps flows in struct-of-arrays columns with
tombstoned removal and periodic compaction, which makes ``advance()``
(accrue ``rate * dt`` bytes per flow) and allocation both array sweeps.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs import active_registry

__all__ = [
    "FlowNetwork",
    "grouped_order",
    "max_min_rates",
    "single_link_waterfill",
]

#: Relative tolerance used to group links that saturate "together" in one
#: filling round; keeps the round count low when many identical access
#: classes hit their limit at the same fill level, and makes the result
#: independent of flow insertion order.
_SAT_RTOL = 1e-9


def max_min_rates(
    capacity: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    flow_cap: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Max-min fair rates for flows over capacitated links.

    Parameters
    ----------
    capacity:
        Per-link capacity, shape ``(L,)``.  ``np.inf`` marks an
        uncapacitated link (it never bottlenecks, it only exists so the
        caller can account bytes against it).
    indptr, indices:
        CSR membership: flow ``f`` crosses links
        ``indices[indptr[f]:indptr[f+1]]``.  Every flow must cross at
        least one finite-capacity link (or carry a finite ``flow_cap``),
        otherwise its fair rate would be unbounded and a
        :class:`~repro.errors.SimulationError` is raised.
    flow_cap:
        Optional per-flow rate ceilings, shape ``(F,)`` (``np.inf`` =
        uncapped).  A flow freezes when it hits its ceiling even if none
        of its links is saturated — this models non-work-conserving
        senders such as BitTorrent's equal split of upload capacity
        across unchoke slots, where a slot's share left unclaimed by a
        slow receiver is *not* redistributed.

    Returns
    -------
    Rates of shape ``(F,)`` satisfying the (cap-constrained) max-min
    property: no flow's rate can be raised without lowering the rate of
    a flow that is no faster, and each flow is stopped by a fully
    utilised bottleneck link or its own ceiling.

    The result is independent of the order flows appear in (progressive
    filling treats them symmetrically; ties in saturation are grouped
    under a relative tolerance).
    """
    capacity = np.asarray(capacity, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n_flows = indptr.size - 1
    n_links = capacity.size
    rates = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0:
        return rates
    if (capacity < 0).any():
        raise SimulationError("link capacities must be non-negative")
    if flow_cap is not None:
        flow_cap = np.asarray(flow_cap, dtype=np.float64)
        if flow_cap.shape != (n_flows,):
            raise SimulationError("flow_cap must have one entry per flow")
        if (flow_cap < 0).any():
            raise SimulationError("flow rate ceilings must be non-negative")
    counts = np.diff(indptr)
    if (counts <= 0).any():
        raise SimulationError("every flow must cross at least one link")
    member_flow = np.repeat(np.arange(n_flows), counts)
    member_link = indices
    if member_link.size and (
        member_link.min() < 0 or member_link.max() >= n_links
    ):
        raise SimulationError("flow references an unknown link index")

    active = np.ones(n_flows, dtype=bool)
    remaining = capacity.copy()
    # Zero-capacity links (and zero ceilings) freeze their flows at rate
    # 0 immediately.  Each round saturates >= 1 link or caps >= 1 flow.
    for _ in range(n_links + n_flows + 1):
        live = active[member_flow]
        if not live.any():
            break
        load = np.bincount(member_link[live], minlength=n_links)
        loaded = load > 0
        finite = loaded & np.isfinite(remaining)
        if finite.any():
            headroom = remaining[finite] / load[finite]
            link_fill = float(headroom.min())
        else:
            headroom = None
            link_fill = np.inf
        if flow_cap is not None:
            cap_fill = float((flow_cap[active] - rates[active]).min())
            fill = min(link_fill, cap_fill)
        else:
            fill = link_fill
        if not np.isfinite(fill):
            raise SimulationError(
                "unbounded max-min allocation: some flow crosses only "
                "uncapacitated links and has no rate ceiling"
            )
        if fill > 0.0:
            rates[active] += fill
            remaining[finite] -= fill * load[finite]
        # Saturate every link that reached (within tolerance of) the
        # bottleneck level this round, then freeze its flows.
        saturated = np.zeros(n_links, dtype=bool)
        if headroom is not None:
            saturated[np.flatnonzero(finite)] = (
                headroom <= fill * (1.0 + _SAT_RTOL)
            )
            remaining[saturated] = 0.0
            frozen = member_flow[saturated[member_link] & live]
            active[frozen] = False
        if flow_cap is not None:
            active &= rates < flow_cap * (1.0 - _SAT_RTOL)
    else:  # pragma: no cover - each round kills >= 1 link or flow
        raise SimulationError("progressive filling failed to converge")
    return rates


def grouped_order(group: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((value, group))``, several times faster.

    Rows come back by ascending ``group``, then ascending ``value``, rows
    equal in both in input order.  ``lexsort`` gets there with a stable
    merge sort over the floats.  Here the floats are ranked by one
    unstable sort — equal values share a rank, so where that sort left
    them does not matter — and ``(group, rank, row)`` is packed into one
    int64 per row; those words are distinct, so sorting them in place
    gives the one order, and the low bits of the sorted words are the
    permutation.  When the three fields do not fit one word the lexsort
    itself is returned.

    ``group`` holds non-negative integers; ``value`` must be free of NaN
    (NaNs never compare equal, so they would not tie).
    """
    group = np.asarray(group, dtype=np.int64)
    n = value.size
    bits = n.bit_length()  # holds a row index and a rank in 1..n
    if int(group.max(initial=0)).bit_length() + 2 * bits > 63:
        return np.lexsort((value, group))
    by_value = np.argsort(value)
    ranked = value[by_value]
    first = np.ones(n, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    rank = np.empty(n, dtype=np.int64)
    rank[by_value] = np.cumsum(first)
    packed = (((group << bits) | rank) << bits) | np.arange(n)
    packed.sort()
    return packed & ((1 << bits) - 1)


def single_link_waterfill(
    capacity: np.ndarray,
    link_of_flow: np.ndarray,
    flow_cap: np.ndarray,
) -> np.ndarray:
    """Closed-form max-min rates when every flow crosses exactly **one**
    capacitated link and carries its own rate ceiling.

    This is the classic single-link water-filling: on each link, flows
    whose ceiling lies below the water level get their ceiling, the rest
    split the leftover equally.  The result is identical to
    :func:`max_min_rates` on the equivalent instance, but it needs one
    :func:`grouped_order` and a handful of segment reductions instead of
    one filling round per distinct ceiling — the fast path for
    access-bottlenecked swarms, where each transfer is limited by the
    uploader's per-slot share (the ceiling) and the downloader's access
    link (the shared link), and ceilings take hundreds of distinct
    values.

    Parameters
    ----------
    capacity:
        Per-link capacity, shape ``(L,)`` (``np.inf`` = uncapacitated:
        every flow on such a link gets its ceiling).
    link_of_flow:
        The single link each flow crosses, shape ``(F,)``.
    flow_cap:
        Per-flow rate ceilings, shape ``(F,)`` (``np.inf`` = uncapped).
    """
    capacity = np.asarray(capacity, dtype=np.float64)
    link_of_flow = np.asarray(link_of_flow, dtype=np.int64)
    flow_cap = np.asarray(flow_cap, dtype=np.float64)
    n_flows = link_of_flow.size
    if flow_cap.shape != (n_flows,):
        raise SimulationError("flow_cap must have one entry per flow")
    rates = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0:
        return rates
    if (capacity < 0).any():
        raise SimulationError("link capacities must be non-negative")
    if (flow_cap < 0).any():
        raise SimulationError("flow rate ceilings must be non-negative")
    if link_of_flow.min() < 0 or link_of_flow.max() >= capacity.size:
        raise SimulationError("flow references an unknown link index")
    if (np.isinf(capacity[link_of_flow]) & np.isinf(flow_cap)).any():
        raise SimulationError(
            "unbounded max-min allocation: uncapped flow on an "
            "uncapacitated link"
        )

    order = grouped_order(link_of_flow, flow_cap)
    link = link_of_flow[order]
    cap = flow_cap[order]
    head = np.ones(n_flows, dtype=bool)  # first flow of each link group
    np.not_equal(link[1:], link[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    counts = np.append(starts[1:], n_flows) - starts
    gidx = np.cumsum(head) - 1
    pos = np.arange(n_flows) - starts[gidx]  # rank within the link group
    # infinite ceilings sort last within their group and only ever sit at
    # or past the pinning rank, so they can be zeroed out of the prefix
    # sums without changing any water level
    cap_fin = np.where(np.isfinite(cap), cap, 0.0)
    csum = np.cumsum(cap_fin)
    before = csum[starts - 1]  # ceilings summed ahead of each group
    before[0] = 0.0
    prefix_excl = csum - cap_fin - before[gidx]
    d = capacity[link[starts]][gidx]
    k = counts[gidx]
    # water = sum of min(c_i, c_t) over the group: flows below rank t at
    # their ceiling, the remaining k - t at c_t.  The first rank where it
    # reaches the link capacity pins the water level.
    water = prefix_excl + (k - pos) * cap
    sentinel = n_flows + 1
    first = np.minimum.reduceat(
        np.where(water >= d, pos, sentinel), starts
    )
    firstg = first[gidx]
    lam = np.full(starts.size, np.inf)
    bound = np.flatnonzero(first < sentinel)
    if bound.size:
        at = starts[bound] + first[bound]
        lam[bound] = (
            capacity[link[starts[bound]]] - prefix_excl[at]
        ) / (counts[bound] - first[bound])
    rates[order] = np.where(pos < firstg, cap, lam[gidx])
    return rates


class FlowNetwork:
    """Capacitated links plus active flows, with event-driven rates.

    Links are created up front (or appended later) via :meth:`add_link`;
    flows arrive with :meth:`add_flow` and leave with
    :meth:`remove_flow`.  :meth:`reallocate` recomputes the max-min
    rates — the caller invokes it once per arrival/departure batch, not
    per flow — and :meth:`advance` integrates ``rate * dt`` bytes of
    progress into every live flow.

    Flow storage is struct-of-arrays with tombstones: removal marks a
    row dead, and the columns compact when the dead fraction passes 1/2,
    so long-running swarms do not leak rows.
    """

    def __init__(self, capacities: Sequence[float] = ()) -> None:
        self._capacity: list[float] = [float(c) for c in capacities]
        for c in self._capacity:
            if c < 0:
                raise SimulationError("link capacities must be non-negative")
        # flow columns (parallel, length = allocated rows)
        self._flow_links: list[Optional[np.ndarray]] = []
        self._rate = np.zeros(0, dtype=np.float64)
        self._bytes_done = np.zeros(0, dtype=np.float64)
        self._alive = np.zeros(0, dtype=bool)
        self._meta: list[Any] = []
        self._id_of_row: list[int] = []
        self._row_of_id: dict[int, int] = {}
        self._next_id = 0
        self._dead = 0
        self._dirty = True  # rates stale (membership changed)
        self.reallocs_total = 0

    # -- links ----------------------------------------------------------------
    def add_link(self, capacity: float) -> int:
        """Register a link; returns its index.  ``np.inf`` is allowed for
        accounting-only links that never constrain rates."""
        if capacity < 0:
            raise SimulationError("link capacities must be non-negative")
        self._capacity.append(float(capacity))
        return len(self._capacity) - 1

    @property
    def n_links(self) -> int:
        return len(self._capacity)

    def capacity_of(self, link: int) -> float:
        return self._capacity[link]

    # -- flows ----------------------------------------------------------------
    def add_flow(self, links: Sequence[int], *, meta: Any = None) -> int:
        """Admit a flow crossing ``links``; returns its flow id.  The new
        flow's rate is 0 until the next :meth:`reallocate`."""
        arr = np.asarray(links, dtype=np.int64)
        if arr.size == 0:
            raise SimulationError("a flow must cross at least one link")
        if arr.min() < 0 or arr.max() >= len(self._capacity):
            raise SimulationError("flow references an unknown link index")
        fid = self._next_id
        self._next_id += 1
        row = len(self._flow_links)
        self._flow_links.append(arr)
        self._meta.append(meta)
        self._id_of_row.append(fid)
        self._row_of_id[fid] = row
        if row >= self._rate.size:
            grow = max(16, self._rate.size)
            self._rate = np.concatenate([self._rate, np.zeros(grow)])
            self._bytes_done = np.concatenate([self._bytes_done, np.zeros(grow)])
            self._alive = np.concatenate(
                [self._alive, np.zeros(grow, dtype=bool)]
            )
        self._rate[row] = 0.0
        self._bytes_done[row] = 0.0
        self._alive[row] = True
        self._dirty = True
        return fid

    def remove_flow(self, fid: int) -> float:
        """Retire a flow; returns the bytes it transferred in its lifetime."""
        row = self._row_of_id.pop(fid)
        self._alive[row] = False
        self._flow_links[row] = None
        self._meta[row] = None
        self._rate[row] = 0.0  # dead rows accrue nothing in advance()
        done = float(self._bytes_done[row])
        self._dead += 1
        self._dirty = True
        if self._dead * 2 > len(self._flow_links):
            self._compact()
        return done

    def _compact(self) -> None:
        keep = [r for r in range(len(self._flow_links)) if self._alive[r]]
        self._flow_links = [self._flow_links[r] for r in keep]
        self._meta = [self._meta[r] for r in keep]
        self._id_of_row = [self._id_of_row[r] for r in keep]
        n = len(keep)
        rate = np.zeros(max(n, 16), dtype=np.float64)
        done = np.zeros_like(rate)
        alive = np.zeros(rate.size, dtype=bool)
        if n:
            rate[:n] = self._rate[keep]
            done[:n] = self._bytes_done[keep]
            alive[:n] = True
        self._rate, self._bytes_done, self._alive = rate, done, alive
        self._row_of_id = {fid: r for r, fid in enumerate(self._id_of_row)}
        self._dead = 0

    def __len__(self) -> int:
        return len(self._row_of_id)

    def __contains__(self, fid: int) -> bool:
        return fid in self._row_of_id

    def flow_ids(self) -> Iterator[int]:
        return iter(list(self._row_of_id))

    def meta_of(self, fid: int) -> Any:
        return self._meta[self._row_of_id[fid]]

    def rate_of(self, fid: int) -> float:
        return float(self._rate[self._row_of_id[fid]])

    def bytes_of(self, fid: int) -> float:
        return float(self._bytes_done[self._row_of_id[fid]])

    # -- vector views (live rows, aligned) ------------------------------------
    def live_ids(self) -> list[int]:
        """Flow ids of the live rows, aligned with :meth:`live_rates`."""
        return [fid for fid in self._id_of_row if fid in self._row_of_id]

    def live_rates(self) -> np.ndarray:
        """Rates of the live rows (copy), aligned with :meth:`live_ids`."""
        rows = [self._row_of_id[fid] for fid in self.live_ids()]
        return self._rate[rows].copy()

    # -- the data-plane kernel -------------------------------------------------
    def reallocate(self) -> None:
        """Recompute max-min rates for the current flow set (no-op when
        membership has not changed since the last call)."""
        if not self._dirty:
            return
        rows = [self._row_of_id[fid] for fid in self._id_of_row
                if fid in self._row_of_id]
        if not rows:
            self._dirty = False
            return
        links = [self._flow_links[r] for r in rows]
        indptr = np.zeros(len(links) + 1, dtype=np.int64)
        np.cumsum([a.size for a in links], out=indptr[1:])
        indices = np.concatenate(links) if links else np.zeros(0, np.int64)
        rates = max_min_rates(
            np.asarray(self._capacity, dtype=np.float64), indptr, indices
        )
        self._rate[rows] = rates
        self._dirty = False
        self.reallocs_total += 1
        registry = active_registry()
        if registry is not None:
            registry.counter(
                "flow_reallocations_total",
                "Max-min rate recomputations (flow arrival/departure epochs).",
            ).inc()
            registry.gauge(
                "flows_active", "Flows live in the flow network."
            ).set(len(rows))

    def advance(self, dt: float) -> None:
        """Integrate ``rate * dt`` bytes into every live flow.

        Rates must be current (call :meth:`reallocate` after membership
        changes); between events rates are constant so this is exact.
        """
        if dt < 0:
            raise SimulationError(f"cannot advance backwards (dt={dt})")
        if self._dirty:
            raise SimulationError(
                "advance() with stale rates; call reallocate() first"
            )
        if dt == 0.0:
            return
        self._bytes_done += self._rate * dt

    def utilisation(self) -> np.ndarray:
        """Per-link carried rate / capacity (0 for idle or infinite links) —
        diagnostic used by the allocation property tests."""
        carried = np.zeros(len(self._capacity), dtype=np.float64)
        for fid in self._row_of_id:
            row = self._row_of_id[fid]
            carried[self._flow_links[row]] += self._rate[row]
        cap = np.asarray(self._capacity, dtype=np.float64)
        out = np.zeros_like(carried)
        ok = np.isfinite(cap) & (cap > 0)
        out[ok] = carried[ok] / cap[ok]
        return out
