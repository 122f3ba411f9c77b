"""Neighbor-selection strategies: the *usage* half of underlay awareness.

Every strategy consumes a querying host plus candidate host ids and
returns the candidates ranked best-first.  Strategies differ only in
which underlay information they consult — which makes them directly
pluggable into any overlay's join/neighbor-maintenance path and into the
framework's composite selector.

Concrete strategies (one per §2 information type, plus the strawman):

- :class:`RandomSelection` — underlay-oblivious baseline;
- :class:`ISPLocalitySelection` — ISP-location via an oracle or an
  IP-to-ISP mapping (biased neighbor selection);
- :class:`LatencySelection` — predicted RTT from a coordinate system or
  explicit measurement;
- :class:`GeoSelection` — geographic distance from a geolocation source;
- :class:`ResourceSelection` — candidate capacity (super-peer affinity);
- :class:`CompositeSelection` — weighted rank fusion of any of the above,
  the "different underlay information collected and used together" that
  the survey's framework vision calls for.

Batch ranking
-------------

Ranking sits on the critical path of every biased-neighbor-selection and
proximity experiment, so each strategy exposes two protocols on top of
:meth:`NeighborSelection.rank`:

- :meth:`NeighborSelection.score_many` — one batched call returning a
  float score per candidate (lower is better); the built-in strategies
  override it to pull whole rows from the underlay substrate (host
  latency row, position arrays, capacity records) instead of one Python
  callback per candidate.
- :meth:`NeighborSelection.top_k` — the best ``k`` candidates without a
  full sort (``np.argpartition`` over vectorised scores,
  ``heapq.nsmallest`` over scalar ones), so top-1/top-k callers (source
  selection, ``select``) never pay ``O(n log n)``.

Orderings are bit-identical to a stable sort by one scalar score per
candidate; ``tests/test_selection_batch.py`` holds that sort as its
oracle and asserts the equivalence over several seeds.
"""

from __future__ import annotations

import abc
import heapq
from typing import Callable, Optional, Sequence

import numpy as np

from repro.collection.ip_mapping import IPToISPMapping
from repro.collection.oracle import ISPOracle
from repro.errors import ConfigurationError
from repro.rng import SeedLike, ensure_rng
from repro.underlay.geometry import Position
from repro.underlay.network import Underlay


class NeighborSelection(abc.ABC):
    """Ranks candidate neighbours for a querying host."""

    name: str = "abstract"

    @abc.abstractmethod
    def rank(self, querying_host: int, candidates: Sequence[int]) -> list[int]:
        """Candidates sorted best-first.  Must be a permutation of the
        input (deduplicated, order of ties implementation-defined)."""

    def score_many(
        self, querying_host: int, candidates: Sequence[int]
    ) -> list[float]:
        """One float score per (deduplicated) candidate, lower = better.

        Sorting candidates by ``(score, input position)`` must reproduce
        :meth:`rank` exactly.  The generic fallback derives scores from a
        full ranking; strategies with a real scoring function override it
        with a batched computation.
        """
        cand = _dedup(candidates)
        position = {c: p for p, c in enumerate(self.rank(querying_host, cand))}
        return [float(position[c]) for c in cand]

    def top_k(
        self, querying_host: int, candidates: Sequence[int], k: int
    ) -> list[int]:
        """The best ``k`` candidates, identical to ``rank(...)[:k]``.

        The default pays the full ranking; score-based strategies
        override it with a single-scan/heap selection.
        """
        if k < 0:
            raise ConfigurationError("k must be non-negative")
        if k == 0:
            return []
        return self.rank(querying_host, candidates)[:k]

    def select(
        self, querying_host: int, candidates: Sequence[int], k: int
    ) -> list[int]:
        """Top-``k`` convenience wrapper (routed through :meth:`top_k`)."""
        return self.top_k(querying_host, candidates, k)


def _dedup(candidates: Sequence[int]) -> list[int]:
    """First occurrence of each candidate, input order (C-speed)."""
    return list(dict.fromkeys(candidates))


def _partition_smallest(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest scores, ordered exactly like the
    first ``k`` entries of a stable ascending sort.

    ``argpartition`` alone is not enough: it may keep *any* of the
    entries tied at the k-th value, while the stable-sort prefix keeps
    the ones with the smallest indices.  So the boundary tie group is
    resolved explicitly.  ``O(n + k log k)``; requires ``0 < k < n``.
    """
    kth = scores[np.argpartition(scores, k - 1)[:k]].max()
    strict = np.flatnonzero(scores < kth)
    tied = np.flatnonzero(scores == kth)[: k - len(strict)]
    chosen = np.concatenate((strict, tied))
    return chosen[np.argsort(scores[chosen], kind="stable")]


class ScoredSelection(NeighborSelection):
    """Base for strategies fully ordered by ``(float score, input index)``.

    Subclasses implement :meth:`score_many`; ``rank`` and ``top_k`` are
    derived from it.  Vectorised scores (an ndarray) order through a
    stable ``argsort`` / exact ``argpartition``; scalar score lists fall
    back to the tuple sort / ``heapq.nsmallest`` — all four paths are
    bit-identical (stable sorts break ties by input index, and
    :func:`_partition_smallest` resolves boundary ties the same way).
    """

    @abc.abstractmethod
    def score_many(
        self, querying_host: int, candidates: Sequence[int]
    ) -> list[float]:
        """Batched scores aligned with the deduplicated candidate order."""

    def rank(self, querying_host: int, candidates: Sequence[int]) -> list[int]:
        cand = _dedup(candidates)
        if len(cand) <= 1:
            return cand
        scores = self.score_many(querying_host, cand)
        if isinstance(scores, np.ndarray):
            order = np.argsort(scores, kind="stable")
            return np.asarray(cand)[order].tolist()
        order = sorted(range(len(cand)), key=lambda i: (scores[i], i))
        return [cand[i] for i in order]

    def top_k(
        self, querying_host: int, candidates: Sequence[int], k: int
    ) -> list[int]:
        if k < 0:
            raise ConfigurationError("k must be non-negative")
        if k == 0:
            return []
        cand = _dedup(candidates)
        if len(cand) <= 1 or k >= len(cand):
            return self.rank(querying_host, cand)[:k]
        scores = self.score_many(querying_host, cand)
        if isinstance(scores, np.ndarray):
            return [cand[i] for i in _partition_smallest(scores, k)]
        best = heapq.nsmallest(
            k, range(len(cand)), key=lambda i: (scores[i], i)
        )
        return [cand[i] for i in best]


class RandomSelection(ScoredSelection):
    """Underlay-oblivious baseline: a seeded random permutation."""
    name = "random"

    def __init__(self, rng: SeedLike = None) -> None:
        self._rng = ensure_rng(rng)

    def score_many(
        self, querying_host: int, candidates: Sequence[int]
    ) -> list[float]:
        cand = _dedup(candidates)
        perm = self._rng.permutation(len(cand))
        scores = [0.0] * len(cand)
        for position, i in enumerate(perm):
            scores[int(i)] = float(position)
        return scores


class ISPLocalitySelection(NeighborSelection):
    """Biased neighbor selection via the ISP oracle, or — without ISP
    cooperation — via a client-side IP-to-ISP mapping (same-AS first,
    unknown-hop candidates after).

    The mapping path memoises lookups within a call, so a ``rank`` over
    ``n`` distinct candidates costs exactly ``n + 1`` mapping queries
    (one for the querier) no matter how often a host id repeats.
    """

    name = "isp-location"

    def __init__(
        self,
        underlay: Underlay,
        *,
        oracle: Optional[ISPOracle] = None,
        mapping: Optional[IPToISPMapping] = None,
    ) -> None:
        if oracle is None and mapping is None:
            raise ConfigurationError("need an oracle or an IP-to-ISP mapping")
        self.underlay = underlay
        self.oracle = oracle
        self.mapping = mapping

    def _mapping_scores(
        self, querying_host: int, cand: Sequence[int]
    ) -> list[float]:
        assert self.mapping is not None
        memo: dict[int, int] = {}

        def lookup(host_id: int) -> int:
            asn = memo.get(host_id)
            if asn is None:
                asn = memo[host_id] = self.mapping.lookup(host_id)
            return asn

        my_asn = lookup(querying_host)
        return [0.0 if lookup(c) == my_asn else 1.0 for c in cand]

    def score_many(
        self, querying_host: int, candidates: Sequence[int]
    ) -> list[float]:
        cand = _dedup(candidates)
        if self.oracle is not None:
            return super().score_many(querying_host, cand)
        return self._mapping_scores(querying_host, cand)

    def rank(self, querying_host: int, candidates: Sequence[int]) -> list[int]:
        cand = _dedup(candidates)
        if self.oracle is not None:
            return self.oracle.rank(querying_host, cand)
        scores = self._mapping_scores(querying_host, cand)
        order = sorted(range(len(cand)), key=lambda i: (scores[i], i))
        return [cand[i] for i in order]

    def top_k(
        self, querying_host: int, candidates: Sequence[int], k: int
    ) -> list[int]:
        if k < 0:
            raise ConfigurationError("k must be non-negative")
        if k == 0:
            return []
        cand = _dedup(candidates)
        if self.oracle is not None:
            return self.oracle.top_k(querying_host, cand, k)
        if k >= len(cand):
            return self.rank(querying_host, cand)
        scores = self._mapping_scores(querying_host, cand)
        best = heapq.nsmallest(
            k, range(len(cand)), key=lambda i: (scores[i], i)
        )
        return [cand[i] for i in best]


class LatencySelection(ScoredSelection):
    """Lowest predicted RTT first.

    ``rtt_predictor(src_host, dst_host) -> ms`` can be a coordinate-system
    estimate (cheap, §3.2 prediction) or a PingService measurement
    (accurate, expensive).  A ``batch_predictor(src_host, candidates) ->
    array of ms`` — a latency-matrix row pull or
    :meth:`~repro.coords.base.CoordinateSystem.estimate_many` — replaces
    the per-candidate callbacks on the batch path; it must agree with the
    scalar predictor value-for-value.
    """

    name = "latency"

    def __init__(
        self,
        rtt_predictor: Callable[[int, int], float],
        *,
        batch_predictor: Optional[
            Callable[[int, Sequence[int]], np.ndarray]
        ] = None,
    ) -> None:
        self.rtt_predictor = rtt_predictor
        self.batch_predictor = batch_predictor

    @classmethod
    def from_underlay(cls, underlay: Underlay) -> "LatencySelection":
        """True-RTT selector over the underlay's host latency matrix —
        the zero-error control; the batch path is one row gather."""
        def scalar(a: int, b: int) -> float:
            return 2.0 * underlay.one_way_delay(a, b)

        def batch(src: int, candidates: Sequence[int]) -> np.ndarray:
            return 2.0 * underlay.one_way_delay_row(src, candidates)

        return cls(scalar, batch_predictor=batch)

    def score_many(
        self, querying_host: int, candidates: Sequence[int]
    ) -> list[float]:
        cand = _dedup(candidates)
        if self.batch_predictor is not None:
            return np.asarray(
                self.batch_predictor(querying_host, cand), dtype=float
            )
        return [float(self.rtt_predictor(querying_host, c)) for c in cand]


class GeoSelection(ScoredSelection):
    """Geographically closest first; candidates without a position (e.g.
    no GPS fix) rank last.  Distances are evaluated in one vectorised
    pass over the gathered position array."""

    name = "geolocation"

    def __init__(self, position_source: Callable[[int], Optional[Position]]) -> None:
        self.position_source = position_source

    def score_many(
        self, querying_host: int, candidates: Sequence[int]
    ) -> list[float]:
        cand = _dedup(candidates)
        my_pos = self.position_source(querying_host)
        if my_pos is None:
            # no own fix: keep the input order (all scores tie at zero)
            return [0.0] * len(cand)
        positions = [self.position_source(c) for c in cand]
        have = [i for i, p in enumerate(positions) if p is not None]
        scores = np.full(len(cand), np.inf)
        if have:
            xs = np.array([positions[i].x for i in have], dtype=float)
            ys = np.array([positions[i].y for i in have], dtype=float)
            # elementwise hypot matches Position.distance_to bit-for-bit
            scores[have] = np.hypot(my_pos.x - xs, my_pos.y - ys)
        return scores


class ResourceSelection(ScoredSelection):
    """Highest capacity first — attach to strong peers."""

    name = "peer-resources"

    def __init__(self, capacity_of: Callable[[int], float]) -> None:
        self.capacity_of = capacity_of

    @classmethod
    def from_underlay(cls, underlay: Underlay) -> "ResourceSelection":
        """Capacity straight from host records, memoised per host (the
        records are immutable substrate, so one attribute walk each)."""
        cache: dict[int, float] = {}

        def capacity(host_id: int) -> float:
            score = cache.get(host_id)
            if score is None:
                score = cache[host_id] = (
                    underlay.host(host_id).resources.capacity_score()
                )
            return score

        return cls(capacity)

    def score_many(
        self, querying_host: int, candidates: Sequence[int]
    ) -> list[float]:
        cand = _dedup(candidates)
        return [-float(self.capacity_of(c)) for c in cand]


class CompositeSelection(NeighborSelection):
    """Weighted Borda rank fusion of several strategies.

    Each component ranks the candidates; a candidate's fused score is the
    weighted sum of its normalised ranks.  This is the mechanism that
    lets an application say "mostly latency, but break ties toward my
    ISP" — the per-application QoS tailoring of §2.  Ties in the fused
    score break toward the smaller host id (not the input position), so
    the fusion is independent of candidate-list order.
    """

    name = "composite"

    def __init__(
        self, components: Sequence[tuple[NeighborSelection, float]]
    ) -> None:
        if not components:
            raise ConfigurationError("composite needs at least one component")
        if any(w < 0 for _s, w in components):
            raise ConfigurationError("weights must be non-negative")
        total = sum(w for _s, w in components)
        if total <= 0:
            raise ConfigurationError("at least one weight must be positive")
        self.components = [(s, w / total) for s, w in components]

    def score_many(
        self, querying_host: int, candidates: Sequence[int]
    ) -> list[float]:
        cand = _dedup(candidates)
        n = len(cand)
        if n <= 1:
            return [0.0] * n
        index_of = {c: i for i, c in enumerate(cand)}
        denom = n - 1
        fused = np.zeros(n)
        positions = np.empty(n)
        for strategy, weight in self.components:
            for position, c in enumerate(strategy.rank(querying_host, cand)):
                positions[index_of[c]] = position
            fused += weight * (positions / denom)
        return fused

    def rank(self, querying_host: int, candidates: Sequence[int]) -> list[int]:
        cand = _dedup(candidates)
        if len(cand) <= 1:
            return cand
        scores = self.score_many(querying_host, cand)
        # lexsort: primary key fused score, ties by host id (ids are
        # unique after dedup, so this equals the (score, id) tuple sort)
        order = np.lexsort((np.asarray(cand), scores))
        return [cand[i] for i in order]

    def top_k(
        self, querying_host: int, candidates: Sequence[int], k: int
    ) -> list[int]:
        if k < 0:
            raise ConfigurationError("k must be non-negative")
        if k == 0:
            return []
        cand = _dedup(candidates)
        if len(cand) <= 1 or k >= len(cand):
            return self.rank(querying_host, cand)[:k]
        scores = self.score_many(querying_host, cand)
        ids = np.asarray(cand)
        # as in _partition_smallest, but boundary ties resolve by host id
        kth = scores[np.argpartition(scores, k - 1)[:k]].max()
        strict = np.flatnonzero(scores < kth)
        tied = np.flatnonzero(scores == kth)
        keep = k - len(strict)
        if keep < len(tied):
            tied = tied[np.argsort(ids[tied], kind="stable")[:keep]]
        chosen = np.concatenate((strict, tied))
        order = chosen[np.lexsort((ids[chosen], scores[chosen]))]
        return [cand[i] for i in order]
