"""The ISP oracle: an "ISP component in the network" (Aggarwal et al. [1]).

The oracle is a service operated *by the ISP*.  A peer hands it a list of
candidate neighbours (its hostcache); the oracle ranks the list by
proximity in the ISP metric space — same AS first, then increasing
valley-free AS-hop distance — and hands it back.  The peer then connects
to the top-ranked candidates.  This is exactly the biased neighbor
selection of §4 / Figure 5 / Figure 6.

Because the ranking uses only information the ISP already has (routing
tables), the oracle answers locally with negligible network cost — the
survey's argument for why ISPs can afford to run one.

``rank()`` is deterministic: ties within the same AS-hop distance keep
the candidate order stable (so experiments are reproducible), unless a
``rng`` is supplied to shuffle within tiers like a load-balancing oracle
would.
"""

from __future__ import annotations

import enum
import heapq
from typing import Optional, Sequence

import numpy as np

from repro.collection.base import CollectionMethod, InfoSource, UnderlayInfoType
from repro.errors import CollectionError, RoutingError
from repro.obs.registry import MetricRegistry
from repro.rng import SeedLike, ensure_rng
from repro.underlay.network import Underlay


class OraclePolicy(enum.Enum):
    """Whose interest the ranking serves (§6 "ISP Internal Information").

    - ``HONEST`` — the oracle of [1]: pure AS-hop ordering (default).
      Serves the ISP's locality interest and is neutral toward users.
    - ``COOPERATIVE`` — the ISP additionally uses information only it has
      (its subscribers' access plans) for the users' benefit: AS-hop
      distance first, then the strongest candidate — the joint-venture
      upside §5.3 envisions.
    - ``MALICIOUS`` — the §6 trust failure: the "oracle" endpoint is not
      actually controlled by the ISP and ranks *farthest first*,
      maximising inter-AS traffic and hurting everyone.  Clients cannot
      tell the difference from the protocol alone — which is the point.
    """

    HONEST = "honest"
    COOPERATIVE = "cooperative"
    MALICIOUS = "malicious"


class ISPOracle(InfoSource):
    """AS-hop-distance ranking service over candidate peer lists."""

    _lists_ctr = None
    _candidates_ctr = None

    def __init__(
        self,
        underlay: Underlay,
        *,
        policy: OraclePolicy = OraclePolicy.HONEST,
        rng: SeedLike = None,
    ) -> None:
        self.lists_ranked = 0
        self.candidates_ranked = 0
        super().__init__()
        self.underlay = underlay
        self.policy = policy
        self._rng = ensure_rng(rng) if rng is not None else None

    def instrument(self, registry: MetricRegistry, *, service=None) -> None:
        super().instrument(registry, service=service)
        self._lists_ctr = registry.counter(
            "oracle_lists_ranked_total", "Candidate lists ranked by the oracle."
        )
        self._candidates_ctr = registry.counter(
            "oracle_candidates_ranked_total",
            "Individual candidates the oracle examined.",
        )

    @property
    def info_type(self) -> UnderlayInfoType:
        return UnderlayInfoType.ISP_LOCATION

    @property
    def method(self) -> CollectionMethod:
        return CollectionMethod.ISP_COMPONENT_IN_NETWORK

    def _keyed(
        self, querying_host: int, candidates: Sequence[int], limit: Optional[int]
    ) -> list[tuple]:
        """Charge one ranking request and build the policy-keyed tuples.

        The hop lookups are one row gather (``hops_row`` + fancy index)
        instead of a routing call per candidate, and the policy branch is
        taken once per list, not once per candidate.  Key values, tie
        order, overhead charge, counters, and the jitter draw (one
        ``rng.random(len(cand))`` call) are identical to keying each
        candidate by its own ``routing.hops`` call.
        """
        if limit is not None and limit < 1:
            raise CollectionError("limit must be >= 1 when given")
        cand = list(candidates)
        if limit is not None:
            cand = cand[:limit]
        my_asn = self.underlay.asn_of(querying_host)
        self.lists_ranked += 1
        self.candidates_ranked += len(cand)
        if self._lists_ctr is not None:
            self._lists_ctr.inc()
            self._candidates_ctr.inc(len(cand))
        # one request + one response carrying the list
        self.overhead.charge(
            queries=1, messages=2, bytes_on_wire=64 + 8 * len(cand)
        )
        asns = self.underlay.asns_of(cand)
        hop_row = self.underlay.routing.hops_row(my_asn)
        hops = hop_row[asns] if len(cand) else np.empty(0, dtype=np.int64)
        if len(cand) and (hops < 0).any():
            bad = int(np.argmax(hops < 0))
            raise RoutingError(
                f"no valley-free route AS{my_asn} -> AS{int(asns[bad])}"
            )
        if self.policy is OraclePolicy.COOPERATIVE:
            # the ISP knows its subscribers' plans: break hop ties
            # toward the strongest candidate
            keyed = [
                (
                    (int(h), -self.underlay.host(c).resources.capacity_score()),
                    idx,
                    c,
                )
                for idx, (c, h) in enumerate(zip(cand, hops))
            ]
        elif self.policy is OraclePolicy.HONEST:
            keyed = [
                ((int(h),), idx, c)
                for idx, (c, h) in enumerate(zip(cand, hops))
            ]
        else:  # MALICIOUS: farthest first
            keyed = [
                ((-int(h),), idx, c)
                for idx, (c, h) in enumerate(zip(cand, hops))
            ]
        if self._rng is not None:
            # shuffle within equal-key tiers
            jitter = self._rng.random(len(keyed))
            keyed = [
                (key, float(j), c) for (key, _idx, c), j in zip(keyed, jitter)
            ]
        return keyed

    def rank(
        self,
        querying_host: int,
        candidates: Sequence[int],
        *,
        limit: Optional[int] = None,
    ) -> list[int]:
        """Return ``candidates`` sorted by AS-hop distance from the querier.

        ``limit`` caps the size of the list the peer is willing to send —
        the "list size 100 / 1000" parameter in the Gnutella experiments
        of [1].  Ranking cost is charged per candidate actually examined.
        """
        keyed = self._keyed(querying_host, candidates, limit)
        keyed.sort(key=lambda t: (t[0], t[1]))
        return [c for _k, _i, c in keyed]

    def top_k(
        self,
        querying_host: int,
        candidates: Sequence[int],
        k: int,
        *,
        limit: Optional[int] = None,
    ) -> list[int]:
        """The ``k`` best-ranked candidates — ``rank(...)[:k]`` without
        the full sort (``heapq.nsmallest`` single scan over the keyed
        list).  The overhead charge is that of ranking the whole list:
        the peer still ships its entire hostcache to the service."""
        if k < 0:
            raise CollectionError("k must be non-negative")
        keyed = self._keyed(querying_host, candidates, limit)
        if k == 0:
            return []
        best = heapq.nsmallest(k, keyed, key=lambda t: (t[0], t[1]))
        return [c for _k, _i, c in best]

    def best(
        self, querying_host: int, candidates: Sequence[int]
    ) -> Optional[int]:
        """Top-ranked candidate, or ``None`` for an empty list — one scan
        through the keyed list via :meth:`top_k`, never a full sort."""
        top = self.top_k(querying_host, candidates, 1)
        return top[0] if top else None

    def same_as_candidates(
        self, querying_host: int, candidates: Sequence[int]
    ) -> list[int]:
        """Only the candidates inside the querier's own AS (order kept).

        Uses the underlay's precomputed ``asn -> host`` index, so the
        filter is one set lookup per candidate regardless of population
        size."""
        my_asn = self.underlay.asn_of(querying_host)
        local_ids = self.underlay.host_ids_in_as(my_asn)
        self.overhead.charge(queries=1, messages=2,
                             bytes_on_wire=64 + 8 * len(list(candidates)))
        return [
            c for c in candidates
            if self.underlay._host_id_of(c) in local_ids
        ]
