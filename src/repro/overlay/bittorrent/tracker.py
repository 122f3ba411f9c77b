"""BitTorrent tracker with neighbor-selection policies.

- ``RANDOM`` — the standard tracker: a uniform random subset of the swarm.
- ``BIASED`` — Bindal et al. [3]: the tracker (or an ISP traffic-shaping
  device acting as one) returns peers from the requester's own AS plus at
  most ``external_quota`` outside peers, keeping the swarm connected across
  ISP boundaries with the minimum external degree.
- ``ORACLE`` — the tracker hands the candidate set to an
  :class:`~repro.collection.oracle.ISPOracle` for AS-hop ranking and
  returns the top entries (the same idea, using the ISP's oracle service).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

from repro.collection.oracle import ISPOracle
from repro.errors import OverlayError
from repro.rng import SeedLike, ensure_rng
from repro.underlay.network import Underlay


class TrackerPolicy(enum.Enum):
    """Peer-list policy: random, Bindal-biased, or oracle-ranked."""
    RANDOM = "random"
    BIASED = "biased"
    ORACLE = "oracle"


class Tracker:
    """Swarm membership registry answering announces with a peer list."""
    def __init__(
        self,
        underlay: Underlay,
        *,
        policy: TrackerPolicy = TrackerPolicy.RANDOM,
        peer_list_size: int = 35,
        external_quota: int = 2,
        oracle: Optional[ISPOracle] = None,
        rng: SeedLike = None,
    ) -> None:
        if policy is TrackerPolicy.ORACLE and oracle is None:
            raise OverlayError("ORACLE tracker policy requires an oracle")
        if peer_list_size < 1:
            raise OverlayError("peer_list_size must be >= 1")
        if external_quota < 1:
            # at least one external link keeps AS clusters connected
            raise OverlayError("external_quota must be >= 1")
        self.underlay = underlay
        self.policy = policy
        self.peer_list_size = peer_list_size
        self.external_quota = external_quota
        self.oracle = oracle
        self._rng = ensure_rng(rng)
        # Announce-ordered registry: id -> position.  Samples are drawn
        # over positions, never over the interpreter's hash order, so the
        # seeded RNG is the only source of list-order variation.
        self._swarm: dict[int, int] = {}
        self._order: list[int] = []  # position -> id
        self._asns: list[int] = []  # position -> ASN
        self._by_as: dict[int, list[int]] = {}  # ASN -> ascending positions
        self.announces = 0

    @property
    def swarm(self) -> dict[int, int]:
        """Registered peers in announce order (supports ``in``/``len``/
        iteration; the values are the tracker's own bookkeeping)."""
        return self._swarm

    def announce(self, host_id: int) -> list[int]:
        """Register ``host_id`` and return a policy-dependent peer list.

        Every policy threads the tracker's seeded RNG through sampling
        *and* list order: RANDOM and BIASED lists come back shuffled (for
        BIASED the AS composition, not the position of same-AS entries,
        carries the locality bias), while ORACLE keeps the oracle's rank
        order — ranking is that policy's entire point.

        RANDOM and BIASED cost O(list size): the sample is drawn over
        the positions of everyone else, found by stepping over the
        requester's own position (for outside peers, over its whole
        AS's).  ORACLE stays O(swarm) — the oracle ranks the whole list.
        An id the underlay does not know raises before anything is
        registered, counted or drawn.
        """
        my_asn = self.underlay.asn_of(host_id)
        self.announces += 1
        me = self._swarm.get(host_id)
        if me is None:
            me = self._swarm[host_id] = len(self._order)
            self._order.append(host_id)
            self._asns.append(my_asn)
            self._by_as.setdefault(my_asn, []).append(me)
        n_others = len(self._order) - 1
        if not n_others:
            return []
        if self.policy is TrackerPolicy.RANDOM:
            order = self._order
            return [
                order[i + (i >= me)]
                for i in self._draw(n_others, self.peer_list_size)
            ]
        if self.policy is TrackerPolicy.ORACLE:
            assert self.oracle is not None
            others = self._order[:me] + self._order[me + 1:]
            return self.oracle.rank(host_id, others)[: self.peer_list_size]
        return self._biased_list(me, n_others)

    def _draw(self, pool_size: int, n: int) -> list[int]:
        """``min(n, pool_size)`` distinct indices into a pool."""
        return self._rng.choice(
            pool_size, size=min(n, pool_size), replace=False
        ).tolist()

    def _biased_list(self, me: int, n_others: int) -> list[int]:
        order = self._order
        mine = self._by_as[self._asns[me]]  # same-AS positions, ``me`` among them
        my_rank = bisect_left(mine, me)
        n_internal = len(mine) - 1

        def internal(j: int) -> int:
            return order[mine[j + (j >= my_rank)]]

        picked = self._draw(
            n_internal, max(0, self.peer_list_size - self.external_quota)
        )
        combined = [internal(j) for j in picked]
        combined += [
            order[_nth_absent(mine, i)]
            for i in self._draw(
                n_others - n_internal,
                min(self.external_quota, self.peer_list_size),
            )
        ]
        # External peers are capped by the quota; when the external pool
        # is short, top the list back up from unused same-AS peers so the
        # returned degree does not depend on AS population splits.
        short = min(self.peer_list_size, n_others) - len(combined)
        if short > 0:
            picked.sort()
            combined += [
                internal(_nth_absent(picked, j))
                for j in self._draw(n_internal - len(picked), short)
            ]
        self._rng.shuffle(combined)
        return combined


def _nth_absent(taken: Sequence[int], i: int) -> int:
    """The ``i``-th (from 0) non-negative integer not in the ascending
    ``taken``: ``taken[j] - j`` integers are absent below ``taken[j]``,
    so it lies past every ``j`` where that count is at most ``i``."""
    return i + bisect_right(
        range(len(taken)), i, key=lambda j: taken[j] - j
    )
