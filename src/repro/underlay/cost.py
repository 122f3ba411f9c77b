"""ISP cost model: transit vs peering economics (Figure 2 of the survey).

Following Norton's business case for ISP peering [24], which the survey
summarises in §2.1:

- **Transit** is billed per Mbps of peak utilisation (sampled peak, usually
  the 95th percentile of 5-minute samples over a month).  The *per-Mbps
  price is roughly constant*, so total transit cost grows proportionally
  with traffic.
- **Peering** links carry a *flat* cost (circuit + colocation + equipment
  amortisation), so the effective cost per Mbps is inversely proportional
  to the traffic exchanged.

The crossover traffic level — where peering becomes cheaper than transit —
is the economic argument for locality of P2P traffic: biased neighbor
selection shifts P2P bytes from transit links onto peering links whose
marginal cost is zero.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology -> cost)
    from repro.underlay.topology import InternetTopology


@dataclass(frozen=True)
class CostParams:
    """Representative 2008-era prices (USD / month)."""

    transit_usd_per_mbps_month: float = 12.0
    peering_flat_usd_month: float = 2500.0   # circuit + colo + amortised gear
    billing_percentile: float = 95.0

    def __post_init__(self) -> None:
        if self.transit_usd_per_mbps_month <= 0:
            raise ConfigurationError("transit price must be positive")
        if self.peering_flat_usd_month <= 0:
            raise ConfigurationError("peering flat cost must be positive")
        if not (0 < self.billing_percentile <= 100):
            raise ConfigurationError("billing percentile must be in (0, 100]")


class CostModel:
    """Monthly-cost calculations for transit and peering links."""

    def __init__(self, params: CostParams | None = None) -> None:
        self.params = params or CostParams()

    # -- billing primitives ---------------------------------------------------
    def billable_mbps(
        self, sample_rates_mbps: Sequence[float], percentile: float | None = None
    ) -> float:
        """Sampled-peak billing: the percentile of the 5-minute rate samples."""
        rates = np.asarray(list(sample_rates_mbps), dtype=float)
        if rates.size == 0:
            return 0.0
        if (rates < 0).any():
            raise ConfigurationError("rate samples must be non-negative")
        p = self.params.billing_percentile if percentile is None else percentile
        return float(np.percentile(rates, p))

    def transit_monthly_cost(self, billable_mbps: float) -> float:
        """Total monthly transit bill for the given billable rate."""
        if billable_mbps < 0:
            raise ConfigurationError("billable rate must be non-negative")
        return billable_mbps * self.params.transit_usd_per_mbps_month

    def peering_monthly_cost(self, traffic_mbps: float = 0.0) -> float:
        """Monthly cost of a peering link — flat, independent of traffic."""
        if traffic_mbps < 0:
            raise ConfigurationError("traffic must be non-negative")
        return self.params.peering_flat_usd_month

    # -- Figure 2 relations ----------------------------------------------------
    def transit_cost_per_mbps(self, traffic_mbps: float) -> float:
        """~Constant: the defining property of transit pricing."""
        if traffic_mbps <= 0:
            raise ConfigurationError("traffic must be positive for unit cost")
        return self.transit_monthly_cost(traffic_mbps) / traffic_mbps

    def peering_cost_per_mbps(self, traffic_mbps: float) -> float:
        """~1/traffic: flat cost amortised over exchanged traffic."""
        if traffic_mbps <= 0:
            raise ConfigurationError("traffic must be positive for unit cost")
        return self.peering_monthly_cost(traffic_mbps) / traffic_mbps

    def crossover_mbps(self) -> float:
        """Traffic level above which peering is cheaper than transit."""
        return (
            self.params.peering_flat_usd_month
            / self.params.transit_usd_per_mbps_month
        )

    def per_as_bills(
        self,
        samples_by_as: Mapping[int, Mapping[int, float]],
        *,
        bucket_seconds: float = 300.0,
        percentile: float | None = None,
    ) -> dict[int, float]:
        """Monthly transit bill per paying AS from bucketed byte samples.

        ``samples_by_as[asn][bucket] = bytes`` is the shape both the
        message-level :class:`~repro.underlay.traffic.TrafficAccountant`
        and the flow-level swarm data plane produce; each AS is billed
        at the configured percentile of its per-bucket Mbps rates —
        the one code path for sampled-peak transit billing.
        """
        if bucket_seconds <= 0:
            raise ConfigurationError("bucket width must be positive")
        bills: dict[int, float] = {}
        for asn, buckets in samples_by_as.items():
            rates = np.fromiter(buckets.values(), dtype=float)
            mbps = self.billable_mbps(
                rates * 8.0 / 1e6 / bucket_seconds, percentile
            )
            bills[int(asn)] = self.transit_monthly_cost(mbps)
        return bills

    def figure2_series(
        self, traffic_mbps: Sequence[float]
    ) -> list[dict[str, float]]:
        """Regenerate the Figure 2 curves: total and per-Mbps cost for both
        link classes across a traffic sweep."""
        rows = []
        for t in traffic_mbps:
            if t <= 0:
                raise ConfigurationError("traffic sweep values must be positive")
            rows.append(
                {
                    "traffic_mbps": float(t),
                    "transit_total_usd": self.transit_monthly_cost(t),
                    "peering_total_usd": self.peering_monthly_cost(t),
                    "transit_per_mbps_usd": self.transit_cost_per_mbps(t),
                    "peering_per_mbps_usd": self.peering_cost_per_mbps(t),
                }
            )
        return rows


class TransitBillingLedger:
    """Per-AS sampled-peak transit accounting (satellite of the flow plane).

    Records transit bytes against the *paying* AS in fixed-width time
    buckets (five-minute samples by default, matching industry billing),
    and turns them into monthly bills via
    :meth:`CostModel.per_as_bills`.  Both the message-level
    :class:`~repro.underlay.traffic.TrafficAccountant` and the
    flow-level swarm data plane feed one of these, so percentile
    billing has exactly one implementation.
    """

    def __init__(self, *, bucket_seconds: float = 300.0) -> None:
        if bucket_seconds <= 0:
            raise ConfigurationError("bucket width must be positive")
        self.bucket_seconds = float(bucket_seconds)
        #: payer ASN -> {bucket index -> bytes}
        self.samples: dict[int, dict[int, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: payer ASN -> lifetime transit bytes
        self.total_bytes: dict[int, float] = defaultdict(float)

    def record(self, payer_asn: int, time_s: float, nbytes: float) -> None:
        """Charge ``nbytes`` of transit to ``payer_asn`` at ``time_s``."""
        self.charge(payer_asn, int(time_s // self.bucket_seconds), nbytes)

    def charge(self, payer_asn: int, bucket: int, nbytes: float) -> None:
        """Charge ``nbytes`` of transit to ``payer_asn`` in sample bucket
        ``bucket``.  A caller that already knows the bucket index passes
        it here: turning it back into a time and flooring again can land
        one bucket low when the width is not exact in binary."""
        if nbytes < 0:
            raise ConfigurationError("transit bytes must be non-negative")
        if nbytes == 0:
            return
        self.samples[payer_asn][bucket] += nbytes
        self.total_bytes[payer_asn] += nbytes

    def bills(
        self, model: CostModel, *, percentile: float | None = None
    ) -> dict[int, float]:
        """Monthly transit bill per paying AS (USD)."""
        return model.per_as_bills(
            self.samples,
            bucket_seconds=self.bucket_seconds,
            percentile=percentile,
        )

    def bills_by_tier(
        self,
        model: CostModel,
        topology: "InternetTopology",
        *,
        percentile: float | None = None,
    ) -> dict[str, dict[str, float]]:
        """Bills aggregated per ISP tier: count, total and mean USD plus
        total transit bytes — the per-tier rows of the locality sweep."""
        per_as = self.bills(model, percentile=percentile)
        out: dict[str, dict[str, float]] = {}
        for asn, bill in per_as.items():
            tier = topology.asys(asn).tier.name.lower()
            row = out.setdefault(
                tier, {"ases": 0, "total_usd": 0.0, "mean_usd": 0.0,
                       "transit_bytes": 0.0}
            )
            row["ases"] += 1
            row["total_usd"] += bill
            row["transit_bytes"] += self.total_bytes[asn]
        for row in out.values():
            row["mean_usd"] = row["total_usd"] / row["ases"] if row["ases"] else 0.0
        return out
