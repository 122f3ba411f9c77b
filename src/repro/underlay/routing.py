"""Valley-free inter-AS routing over a presorted CSR state graph.

AS paths follow the Gao valley-free rule: a route climbs zero or more
customer→provider links, optionally crosses a single peering link, then
descends zero or more provider→customer links.  Among valid routes we pick
the fewest AS hops (breaking ties deterministically by expansion order),
which matches how the oracle of Aggarwal et al. ranks candidate peers "by
AS hops distance".

The search runs over ``(asn, phase)`` states with
``phase ∈ {UP, PEERED, DOWN}``.  The state graph is converted once into
CSR-style NumPy arrays whose neighbour lists are presorted in the exact
expansion order of the original per-node search (providers, then peers,
then customers, each ascending by ASN), and the BFS itself is
level-synchronous and vectorised: every frontier expansion is a handful
of array gathers instead of a Python loop, and many sources are explored
in one batch.  Tie-breaking is bit-for-bit identical to a sequential
FIFO search because within a level candidates are deduplicated by first
occurrence in frontier-major order.

Delay accumulates *during* routing: :meth:`ASRouting.delay_matrix` takes a
per-link propagation-cost matrix and carries an accumulated delay value on
every discovered state (two separate adds per link, preserving the exact
floating-point operation order of a per-path scalar loop), so the latency
model never reconstructs paths pair by pair.

Per-source results (hop vectors, predecessor trees) are cached; use
:meth:`ASRouting.precompute` to batch-build all sources up front and
:meth:`ASRouting.invalidate` to drop the caches after a topology change.
Byte accounting does not walk routes per message either:
:meth:`ASRouting.route_plan` compiles an ordered AS pair's route once
into the link keys it loads and the AS that pays for each transit link.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import RoutingError
from repro.underlay._obs import note_cache_event, timed_build
from repro.underlay.autonomous_system import LinkType
from repro.underlay.topology import InternetTopology

_UP, _PEERED, _DOWN = 0, 1, 2


class _StateGraph:
    """CSR adjacency of the ``(asn, phase)`` state graph.

    State ids are ``asn * 3 + phase``.  ``indptr``/``nxt`` follow the
    usual CSR convention: the out-neighbours of state ``s`` are
    ``nxt[indptr[s]:indptr[s + 1]]``, presorted in expansion order.
    """

    def __init__(self, topology: InternetTopology) -> None:
        n = topology.n_ases
        self.n = n
        self.n_states = 3 * n
        out_lists: list[list[int]] = []
        for asys in topology.ases:
            providers = sorted(asys.providers)
            peers = sorted(asys.peers)
            customers = sorted(asys.customers)
            up = (
                [p * 3 + _UP for p in providers]
                + [q * 3 + _PEERED for q in peers]
                + [c * 3 + _DOWN for c in customers]
            )
            down = [c * 3 + _DOWN for c in customers]
            out_lists.append(up)      # from (asn, UP)
            out_lists.append(down)    # from (asn, PEERED)
            out_lists.append(down)    # from (asn, DOWN)
        lengths = np.fromiter(
            (len(lst) for lst in out_lists), dtype=np.int64, count=self.n_states
        )
        self.indptr = np.concatenate(([0], np.cumsum(lengths)))
        flat = [s for lst in out_lists for s in lst]
        self.nxt = np.asarray(flat, dtype=np.int64)


class RoutePlan(NamedTuple):
    """One ordered AS pair's route, compiled for byte accounting.

    ``links`` holds one ``((min_asn, max_asn), payer_asn | None)`` entry
    per inter-AS link in route order: the undirected link key, and for a
    transit link the AS that pays for it (the customer side, whichever
    way the bytes flow) — ``None`` on a peering link.  ``link_class`` is
    the flow's most expensive link class: ``TRANSIT`` if any link is
    billed, else ``PEERING``, and ``None`` for a route that never leaves
    its AS.
    """

    links: tuple[tuple[tuple[int, int], int | None], ...]
    link_class: LinkType | None


class ASRouting:
    """All-pairs valley-free routing over an :class:`InternetTopology`."""

    def __init__(self, topology: InternetTopology) -> None:
        self.topology = topology
        self._n = topology.n_ases
        self._graph: _StateGraph | None = None
        # per-source caches: hop vector, predecessor tree, best (first
        # discovered) state per destination AS
        self._hops_cache: dict[int, np.ndarray] = {}
        self._pred_cache: dict[int, np.ndarray] = {}
        self._best_cache: dict[int, np.ndarray] = {}
        self._plan_cache: dict[tuple[int, int], RoutePlan] = {}

    # -- CSR state graph ----------------------------------------------------
    def _state_graph(self) -> _StateGraph:
        if self._graph is None:
            self._graph = _StateGraph(self.topology)
        return self._graph

    # -- batch BFS over (asn, phase) states --------------------------------
    def _batch_bfs(
        self,
        sources: Sequence[int],
        link_ms: np.ndarray | None = None,
        per_link_router_ms: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Level-synchronous BFS from every source at once.

        Returns ``(hops, best, delay)`` where ``hops`` is ``(S, n)``
        int32, ``best`` is ``(S, n)`` first-discovered state per
        destination, and ``delay`` (``None`` unless ``link_ms`` is given)
        is the per-state accumulated delay ``(S, n_states)``.  Per-source
        hop/predecessor caches are filled as a side effect.

        Tie-breaking matches a sequential FIFO search state for state:
        within a level, candidates are generated in frontier order with
        each state's neighbours in presorted expansion order, and the
        first discovery of a state (or of a destination AS) wins.
        """
        sg = self._state_graph()
        n, n_states = sg.n, sg.n_states
        indptr, nxt = sg.indptr, sg.nxt
        src_arr = np.asarray(list(sources), dtype=np.int64)
        n_src = src_arr.size
        accumulate = link_ms is not None

        hops = np.full((n_src, n), -1, dtype=np.int32)
        best = np.full((n_src, n), -1, dtype=np.int64)
        pred = np.full((n_src, n_states), -1, dtype=np.int64)
        visited = np.zeros((n_src, n_states), dtype=bool)
        delay = np.zeros((n_src, n_states), dtype=np.float64) if accumulate else None

        rows = np.arange(n_src, dtype=np.int64)
        start = src_arr * 3 + _UP
        hops[rows, src_arr] = 0
        best[rows, src_arr] = start
        visited[rows, start] = True

        f_row, f_state = rows, start
        depth = 0
        while f_state.size:
            starts = indptr[f_state]
            counts = indptr[f_state + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # concatenate every frontier state's neighbour slice in
            # frontier-major order (CSR gather without a Python loop)
            cum = np.cumsum(counts)
            offsets = np.repeat(starts - (cum - counts), counts)
            cand_state = nxt[np.arange(total, dtype=np.int64) + offsets]
            cand_row = np.repeat(f_row, counts)
            cand_pred = np.repeat(f_state, counts)

            fresh = ~visited[cand_row, cand_state]
            if not fresh.any():
                break
            cand_state = cand_state[fresh]
            cand_row = cand_row[fresh]
            cand_pred = cand_pred[fresh]

            # first discovery of each (source, state) wins, in candidate order
            _, first = np.unique(cand_row * n_states + cand_state, return_index=True)
            first.sort()
            new_row = cand_row[first]
            new_state = cand_state[first]
            new_pred = cand_pred[first]

            visited[new_row, new_state] = True
            pred[new_row, new_state] = new_pred
            if accumulate:
                # two separate adds keep the float operation order of the
                # scalar reference loop: ((d + link) + router) per link
                delay[new_row, new_state] = (
                    delay[new_row, new_pred] + link_ms[new_pred // 3, new_state // 3]
                ) + per_link_router_ms

            # first discovery of each (source, AS) sets hops and the
            # representative state used for path reconstruction
            asn = new_state // 3
            unseen = hops[new_row, asn] < 0
            if unseen.any():
                u_row = new_row[unseen]
                u_asn = asn[unseen]
                u_state = new_state[unseen]
                _, afirst = np.unique(u_row * n + u_asn, return_index=True)
                hops[u_row[afirst], u_asn[afirst]] = depth + 1
                best[u_row[afirst], u_asn[afirst]] = u_state[afirst]

            f_row, f_state = new_row, new_state
            depth += 1

        for i, src in enumerate(src_arr):
            s = int(src)
            self._hops_cache[s] = hops[i]
            self._pred_cache[s] = pred[i]
            self._best_cache[s] = best[i]
        return hops, best, delay

    def _ensure_tree(self, src: int) -> None:
        """BFS from ``src`` unless its predecessor tree is already cached."""
        if src in self._pred_cache:
            note_cache_event("bfs", "hit")
            return
        self.topology.asys(src)  # validates the ASN
        note_cache_event("bfs", "miss")
        with timed_build("bfs"):
            self._batch_bfs([src])

    # -- cache management ---------------------------------------------------
    def precompute(self) -> "ASRouting":
        """Batch-run the BFS for every source AS (one vectorised sweep)."""
        missing = [s for s in range(self._n) if s not in self._pred_cache]
        if missing:
            note_cache_event("bfs", "miss")
            with timed_build("bfs"):
                self._batch_bfs(missing)
        return self

    def invalidate(self) -> None:
        """Drop every cached BFS result (call after mutating the topology)."""
        self._graph = None
        self._hops_cache.clear()
        self._pred_cache.clear()
        self._best_cache.clear()
        self._plan_cache.clear()

    def warm_hops(self, hop_matrix: np.ndarray) -> None:
        """Seed the per-source hop cache from a precomputed all-pairs
        matrix (e.g. loaded from a substrate cache).  Predecessor trees
        are not derivable from hop counts, so :meth:`path` still runs the
        BFS on first use for each source."""
        mat = np.asarray(hop_matrix)
        if mat.shape != (self._n, self._n):
            raise RoutingError(
                f"hop matrix shape {mat.shape} does not match {self._n} ASes"
            )
        for src in range(self._n):
            self._hops_cache.setdefault(src, mat[src].astype(np.int32))

    # -- public API ---------------------------------------------------------
    def hops(self, src: int, dst: int) -> int:
        """AS-hop count of the shortest valley-free route (0 if same AS)."""
        row = self._hops_cache.get(src)
        if row is None:
            self._ensure_tree(src)
            row = self._hops_cache[src]
        h = int(row[dst])
        if h < 0:
            raise RoutingError(f"no valley-free route AS{src} -> AS{dst}")
        return h

    def hops_row(self, src: int) -> np.ndarray:
        """The full hop-count row from ``src`` (read-only int32 view).

        One cache lookup serves a whole candidate list: batched rankers
        gather ``row[dsts]`` instead of calling :meth:`hops` per pair.
        Unreachable destinations hold ``-1``; callers that index
        individual entries must treat negatives like the
        :class:`~repro.errors.RoutingError` raised by :meth:`hops`.
        """
        row = self._hops_cache.get(src)
        if row is None:
            self._ensure_tree(src)
            row = self._hops_cache[src]
        return row

    def path(self, src: int, dst: int) -> list[int]:
        """AS path including both endpoints; ``[src]`` when src == dst."""
        self._ensure_tree(src)
        if src == dst:
            return [src]
        best = int(self._best_cache[src][dst])
        if best < 0:
            raise RoutingError(f"no valley-free route AS{src} -> AS{dst}")
        pred = self._pred_cache[src]
        start = src * 3 + _UP
        rev: list[int] = []
        state = best
        while True:
            rev.append(state // 3)
            if state == start:
                break
            state = int(pred[state])
        rev.reverse()
        return rev

    def path_links(self, src: int, dst: int) -> list[tuple[int, int, LinkType]]:
        """The inter-AS links along the route as (a, b, type) triples."""
        p = self.path(src, dst)
        links = []
        for a, b in zip(p, p[1:]):
            links.append((a, b, self.topology.link_type(a, b)))
        return links

    def route_plan(self, src: int, dst: int) -> RoutePlan:
        """The route ``src`` -> ``dst`` as a :class:`RoutePlan`, compiled
        on first use and memoised until :meth:`invalidate`: accounting a
        message is then a few adds per link instead of a path walk."""
        pair = (src, dst)
        plan = self._plan_cache.get(pair)
        if plan is None:
            links = []
            link_class = None
            for a, b, link_type in self.path_links(src, dst):
                payer = None
                if link_type is LinkType.TRANSIT:
                    link_class = LinkType.TRANSIT
                    payer = a if b in self.topology.asys(a).providers else b
                elif link_class is None:
                    link_class = LinkType.PEERING
                links.append(((min(a, b), max(a, b)), payer))
            plan = self._plan_cache[pair] = RoutePlan(tuple(links), link_class)
        return plan

    def hop_matrix(self) -> np.ndarray:
        """All-pairs AS-hop matrix (int32).  Raises if any pair is unroutable."""
        self.precompute()
        mat = np.empty((self._n, self._n), dtype=np.int32)
        for src in range(self._n):
            mat[src] = self._hops_cache[src]
        if (mat < 0).any():
            bad = np.argwhere(mat < 0)[0]
            raise RoutingError(
                f"no valley-free route AS{bad[0]} -> AS{bad[1]}"
            )
        return mat

    def delay_matrix(
        self,
        link_ms: np.ndarray,
        per_link_router_ms: float,
        intra_as_ms: float,
    ) -> np.ndarray:
        """Directed AS-path delay matrix, accumulated during routing.

        ``link_ms[a, b]`` is the propagation cost of the direct link a–b;
        entry (src, dst) is ``sum over route links of (link_ms + router)``
        plus ``intra_as_ms`` per traversed AS, with ``intra_as_ms`` alone
        on the diagonal — exactly the per-path scalar decomposition, but
        computed for all pairs in one vectorised BFS sweep.
        """
        n = self._n
        link_ms = np.asarray(link_ms, dtype=np.float64)
        if link_ms.shape != (n, n):
            raise RoutingError(
                f"link delay matrix shape {link_ms.shape} does not match {n} ASes"
            )
        hops, best, delay = self._batch_bfs(
            range(n), link_ms=link_ms, per_link_router_ms=per_link_router_ms
        )
        if (hops < 0).any():
            bad = np.argwhere(hops < 0)[0]
            raise RoutingError(
                f"no valley-free route AS{bad[0]} -> AS{bad[1]}"
            )
        rows = np.arange(n)
        mat = delay[rows[:, None], best] + intra_as_ms * (hops + 1)
        mat[rows, rows] = intra_as_ms
        return mat
