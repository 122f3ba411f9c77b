"""Traffic accounting over the AS topology.

The accountant observes every delivered message (or bulk transfer) and
attributes its bytes to the inter-AS links its route traverses, classified
as *intra-AS*, *peering* or *transit*.  Transit bytes are additionally
charged to the paying AS (the customer side of each customer-provider link,
in both directions, matching how transit billing works), and sampled into
time buckets so the cost model can apply peak-rate (95th percentile)
billing as described in the survey's §2.1.

Observing a message is a dict add.  At call time the accountant reads
the clock, resolves both ASNs and looks up the compiled route
(:meth:`~repro.underlay.routing.ASRouting.route_plan`, ``None`` when the
message stays inside one AS), and adds the message and its bytes into a
pending cell keyed ``(bucket, plan, kind)``.  Every public table is a
read-only property that first *settles* the pending cells, in the order
they were first seen, with the integer adds an eager accountant would
have made per message: every table then holds the same values in the
same key order as if each message had been charged on arrival.  The
plan is captured when the message is observed, so an
:meth:`~repro.underlay.routing.ASRouting.invalidate` before the next
read cannot move bytes already sent onto the new route.
:meth:`TrafficAccountant.observe_sends` takes a batch kernel's whole
expansion — ``(src, dst, kind) -> sends`` — in one call.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional

from repro.errors import ConfigurationError
from repro.underlay.autonomous_system import LinkType
from repro.underlay.cost import TransitBillingLedger
from repro.underlay.routing import ASRouting
from repro.underlay.topology import InternetTopology


@dataclass
class TrafficSummary:
    """Aggregated byte counters."""

    intra_as_bytes: int = 0
    peering_bytes: int = 0
    transit_bytes: int = 0
    messages: int = 0

    @property
    def total_bytes(self) -> int:
        return self.intra_as_bytes + self.peering_bytes + self.transit_bytes

    @property
    def intra_as_fraction(self) -> float:
        """Fraction of end-to-end flows' bytes that never left the source AS."""
        total = self.total_bytes
        return self.intra_as_bytes / total if total else 0.0


def _settled(attr: str, doc: str) -> property:
    """A read-only table of the accountant: the pending cells settle
    before ``attr`` is returned."""

    def read(self: "TrafficAccountant"):
        self._settle()
        return getattr(self, attr)

    return property(read, doc=doc)


class TrafficAccountant:
    """Attributes message bytes to AS links; implements the
    :class:`repro.sim.messages.TrafficObserver` protocol.

    Parameters
    ----------
    topology, routing:
        The underlay to account against.
    asn_of:
        Maps a bus endpoint id to its ASN.
    clock:
        Optional callable returning current (simulation) time in seconds;
        enables time-bucketed transit sampling for percentile billing.
    bucket_seconds:
        Width of the billing sample buckets (5 minutes by default, the
        industry-standard sampling interval).
    """

    def __init__(
        self,
        topology: InternetTopology,
        routing: ASRouting,
        asn_of: Callable[[Hashable], int],
        *,
        clock: Optional[Callable[[], float]] = None,
        bucket_seconds: float = 300.0,
    ) -> None:
        self.topology = topology
        self.routing = routing
        self._asn_of = asn_of
        self._clock = clock
        self.bucket_seconds = float(bucket_seconds)
        self.reset()

    # -- TrafficObserver ------------------------------------------------------
    def _bucket(self) -> int:
        if self._clock is None:
            return 0
        return int(self._clock() // self.bucket_seconds)

    def observe(
        self, src: Hashable, dst: Hashable, size_bytes: int, kind: str
    ) -> None:
        """Account one message of ``size_bytes`` at the current clock."""
        if size_bytes < 0:
            raise ConfigurationError(
                f"cannot account a message of {size_bytes} bytes"
            )
        a = self._asn_of(src)
        b = self._asn_of(dst)
        plan = None if a == b else self.routing.route_plan(a, b)
        bucket = self._bucket()
        # the ledger skips empty charges, so a zero-byte message gets a
        # cell of its own: it must not place a payer in the ledger
        key = (bucket, plan, kind) if size_bytes else (bucket, plan, kind, 0)
        cell = self._pending.get(key)
        if cell is None:
            self._pending[key] = [1, size_bytes]
        else:
            cell[0] += 1
            cell[1] += size_bytes

    def observe_sends(
        self,
        sends: Mapping[tuple[Hashable, Hashable, str], int],
        size_of: Mapping[str, int],
    ) -> None:
        """Account ``sends[(src, dst, kind)]`` messages of ``size_of[kind]``
        bytes per entry, all at one clock reading — exactly what that
        many :meth:`observe` calls at the current clock would record,
        in the order the entries are given."""
        if any(size < 0 for size in size_of.values()):
            raise ConfigurationError(f"cannot account negative sizes {size_of}")
        asn_of = self._asn_of
        # edges first fold into AS pairs (a flood crosses far fewer AS
        # pairs than overlay edges), then each pair finds its cell;
        # either fold keeps first-seen order
        by_pair: dict[tuple[int, int, str], int] = {}
        for (src, dst, kind), n in sends.items():
            if n < 1:
                raise ConfigurationError(f"cannot account {n} message(s)")
            pair = (asn_of(src), asn_of(dst), kind)
            by_pair[pair] = by_pair.get(pair, 0) + n
        bucket = self._bucket()
        route_plan = self.routing.route_plan
        pending = self._pending
        for (a, b, kind), n in by_pair.items():
            size = size_of[kind]
            plan = None if a == b else route_plan(a, b)
            key = (bucket, plan, kind) if size else (bucket, plan, kind, 0)
            cell = pending.get(key)
            if cell is None:
                pending[key] = [n, n * size]
            else:
                cell[0] += n
                cell[1] += n * size

    def _settle(self) -> None:
        """Charge the pending cells to the tables, first-seen first."""
        pending = self._pending
        if not pending:
            return
        self._pending = {}
        summary = self._summary
        kind_bytes = self._kind_bytes
        link_bytes = self._link_bytes
        paid = self._paid_transit_bytes
        samples = self._transit_samples
        charge = self._billing.charge
        for (bucket, plan, kind, *_zero), (n, nbytes) in pending.items():
            summary.messages += n
            if plan is None:
                summary.intra_as_bytes += nbytes
                kind_bytes[kind][0] += nbytes
                continue
            kind_bytes[kind][1] += nbytes
            for key, payer in plan.links:
                link_bytes[key] += nbytes
                if payer is not None:
                    paid[payer] += nbytes
                    samples[key][bucket] += nbytes
                    charge(payer, bucket, nbytes)
            # the flow is classified by its most expensive link class
            if plan.link_class is LinkType.TRANSIT:
                summary.transit_bytes += nbytes
            else:
                summary.peering_bytes += nbytes

    # -- tables (each settles first) ------------------------------------------
    summary = _settled(
        "_summary", "Message count and bytes by intra-AS / peering / transit."
    )
    link_bytes = _settled(
        "_link_bytes", "Bytes per inter-AS link keyed by ``(min_asn, max_asn)``."
    )
    paid_transit_bytes = _settled(
        "_paid_transit_bytes", "Transit bytes charged to each paying (customer) AS."
    )
    transit_samples = _settled(
        "_transit_samples",
        "Per transit link: ``{bucket_index: bytes}`` for percentile billing.",
    )
    kind_bytes = _settled(
        "_kind_bytes", "Per message kind: ``[intra_as_bytes, inter_as_bytes]``."
    )
    billing = _settled(
        "_billing",
        "Per paying AS: bucketed transit samples for percentile billing — "
        "the same ledger shape the flow-level data plane writes.",
    )

    # -- queries ----------------------------------------------------------------
    def reset(self) -> None:
        """Zero every table and drop the pending cells (e.g. after a
        warm-up phase).  Compiled route plans belong to the routing and
        are kept."""
        #: (bucket, plan, kind) -> [messages, bytes], in first-seen order
        self._pending: dict[tuple, list[int]] = {}
        self._summary = TrafficSummary()
        self._link_bytes: dict[tuple[int, int], int] = defaultdict(int)
        self._paid_transit_bytes: dict[int, int] = defaultdict(int)
        self._transit_samples: dict[tuple[int, int], dict[int, int]] = (
            defaultdict(lambda: defaultdict(int))
        )
        self._kind_bytes: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._billing = TransitBillingLedger(bucket_seconds=self.bucket_seconds)

    def peak_transit_mbps(self, link: tuple[int, int], percentile: float = 95.0) -> float:
        """Billable rate of a transit link: the given percentile of the
        per-bucket rates (Mbps)."""
        import numpy as np

        samples = self.transit_samples.get((min(link), max(link)))
        if not samples:
            return 0.0
        buckets = np.array(sorted(samples))
        rates = np.array([samples[int(b)] for b in buckets], dtype=float)
        rates_mbps = rates * 8.0 / 1e6 / self.bucket_seconds
        return float(np.percentile(rates_mbps, percentile))
