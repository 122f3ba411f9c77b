"""Traffic accounting over the AS topology.

The accountant observes every delivered message (or bulk transfer) and
attributes its bytes to the inter-AS links its route traverses, classified
as *intra-AS*, *peering* or *transit*.  Transit bytes are additionally
charged to the paying AS (the customer side of each customer-provider link,
in both directions, matching how transit billing works), and sampled into
time buckets so the cost model can apply peak-rate (95th percentile)
billing as described in the survey's §2.1.

The cost of a message is a few integer adds per link of its route: the
route itself is compiled once per ordered AS pair
(:meth:`~repro.underlay.routing.ASRouting.route_plan`), and ``observe``
takes a ``count`` so a batch kernel can account every copy that crossed
one overlay edge in a single call.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

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

    @property
    def transit_fraction(self) -> float:
        total = self.total_bytes
        return self.transit_bytes / total if total else 0.0


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
        self.summary = TrafficSummary()
        #: bytes per inter-AS link keyed by (min_asn, max_asn)
        self.link_bytes: dict[tuple[int, int], int] = defaultdict(int)
        #: transit bytes charged to each paying (customer) AS
        self.paid_transit_bytes: dict[int, int] = defaultdict(int)
        #: per transit link: {bucket_index: bytes} for percentile billing
        self.transit_samples: dict[tuple[int, int], dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        #: per paying AS: bucketed transit samples for percentile billing —
        #: the same ledger shape the flow-level data plane writes
        self.billing = TransitBillingLedger(bucket_seconds=self.bucket_seconds)
        #: per message-kind byte counters (kind -> (intra, inter))
        self.kind_bytes: dict[str, list[int]] = defaultdict(lambda: [0, 0])

    # -- TrafficObserver ------------------------------------------------------
    #: batch kernels may hand over one ``observe(..., count=n)`` per
    #: distinct ``(src, dst, kind)`` of an expansion instead of n calls
    accepts_aggregates = True

    def observe(
        self, src: Hashable, dst: Hashable, size_bytes: int, kind: str,
        count: int = 1,
    ) -> None:
        """Account ``count`` messages of ``size_bytes`` each — exactly
        what ``count`` single calls at the current clock would record."""
        if size_bytes < 0 or count < 1:
            raise ConfigurationError(
                f"cannot account {count} message(s) of {size_bytes} bytes"
            )
        asn_src = self._asn_of(src)
        asn_dst = self._asn_of(dst)
        nbytes = size_bytes * count
        summary = self.summary
        summary.messages += count
        if asn_src == asn_dst:
            summary.intra_as_bytes += nbytes
            self.kind_bytes[kind][0] += nbytes
            return
        self.kind_bytes[kind][1] += nbytes
        links, link_class = self.routing.route_plan(asn_src, asn_dst)
        bucket = (
            int(self._clock() // self.bucket_seconds) if self._clock is not None else 0
        )
        link_bytes = self.link_bytes
        for key, payer in links:
            link_bytes[key] += nbytes
            if payer is not None:
                self.paid_transit_bytes[payer] += nbytes
                self.transit_samples[key][bucket] += nbytes
                self.billing.record(payer, bucket * self.bucket_seconds, nbytes)
        # the flow is classified by its most expensive link class
        if link_class is LinkType.TRANSIT:
            summary.transit_bytes += nbytes
        else:
            summary.peering_bytes += nbytes

    # -- queries ----------------------------------------------------------------
    def reset(self) -> None:
        """Zero every table (e.g. after a warm-up phase).  Compiled route
        plans belong to the routing and are kept."""
        self.summary = TrafficSummary()
        self.link_bytes.clear()
        self.paid_transit_bytes.clear()
        self.transit_samples.clear()
        self.kind_bytes.clear()
        self.billing = TransitBillingLedger(bucket_seconds=self.bucket_seconds)

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
