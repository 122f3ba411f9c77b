"""Latency model: host-to-host one-way delay over the AS topology.

Delay decomposes as::

    delay(a, b) = access(a) + access(b)
                + sum over AS path links of (propagation + router penalty)
                + intra-AS internal delay at each traversed AS
                + per-pair jitter

Propagation uses the speed of light in fibre (~0.005 ms/km) over the
geographic distance between AS positions along the *routed* (valley-free)
path — so two geographically close hosts in different ISPs can see a large
delay when their route climbs through distant transit carriers, which is
exactly the geolocation/latency de-correlation the survey's §2.4 warns
about.

The per-pair jitter is a *counter-hash* kernel: a SplitMix64-style mix of
the sorted host-id pair and the jitter seed produces one uniform per pair,
mapped through the inverse normal CDF and clipped — symmetric and
deterministic with **no per-pair RNG state**, so every block, row and
matrix entry of a pair sees exactly the same multiplier (see
:func:`pair_jitter`).  It gives the matrix mild triangle-inequality
violations like real RTT datasets.

:class:`StreamingDelayKernel` is the one place a host-pair delay is
computed: rows and blocks come straight from struct-of-arrays host
columns (access-latency vector, ASN vector, positions) plus the small
``(n_ases, n_ases)`` AS-delay matrix, with no ``(n_hosts, n_hosts)``
intermediate.  The all-pairs matrix ``Underlay.latency_matrix`` serves
is its :meth:`~StreamingDelayKernel.full_matrix`, written block by
block with every block at most :data:`BUDGET` bytes, so building it
costs the matrix plus about 13 x :data:`BUDGET` of temporaries at any
population.

The all-pairs AS delay matrix is accumulated *during* the routing BFS
(:meth:`~repro.underlay.routing.ASRouting.delay_matrix`), not
reconstructed path by path, and is built lazily on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.underlay.geometry import pairwise_distances, positions_to_array
from repro.underlay.hosts import Host
from repro.underlay.routing import ASRouting
from repro.underlay.topology import InternetTopology

#: Speed of light in fibre: ~200 000 km/s  ->  0.005 ms per km.
PROPAGATION_MS_PER_KM = 0.005

#: Bytes of output per block when the kernel assembles its full matrix:
#: a block of ``rows x n`` float64 entries has ``BUDGET // (8 n)`` rows
#: (at least one), so :meth:`StreamingDelayKernel.delay_block`'s
#: broadcast temporaries, about 13 times the block, stay near 3 MiB at
#: any population instead of growing with it.  Chosen from a sweep of
#: 64 KiB to 4 MiB at 600, 2,000 and 5,000 hosts (docs/performance.md,
#: "Peak memory"): build time did not move, scratch memory grew with it.
BUDGET = 256 * 1024


# -- counter-hash jitter kernel ------------------------------------------------

_U64_30 = np.uint64(30)
_U64_27 = np.uint64(27)
_U64_31 = np.uint64(31)
_U64_11 = np.uint64(11)
_SM_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MULT2 = np.uint64(0x94D049BB133111EB)
_SM_GAMMA = 0x9E3779B97F4A7C15
_U53_INV = 2.0 ** -53


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (bijective avalanche mix) on uint64 arrays."""
    x = (x ^ (x >> _U64_30)) * _SM_MULT1
    x = (x ^ (x >> _U64_27)) * _SM_MULT2
    return x ^ (x >> _U64_31)


# Acklam's rational approximation of the inverse normal CDF
# (|relative error| < 1.15e-9 over (0, 1)); the central branch covers
# ~95% of draws, the tail branches are hit only by pairs whose jitter
# the clip would mostly saturate anyway.
_PPF_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_PPF_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_PPF_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_PPF_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_PPF_LOW = 0.02425


def _norm_ppf(u: np.ndarray) -> np.ndarray:
    """Vectorised inverse standard-normal CDF for ``u`` in (0, 1)."""
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    out = np.empty_like(u)
    central = (u > _PPF_LOW) & (u < 1.0 - _PPF_LOW)
    q = u[central] - 0.5
    r = q * q
    out[central] = (
        (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
        / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    )
    low = u <= _PPF_LOW
    if low.any():
        q = np.sqrt(-2.0 * np.log(u[low]))
        out[low] = (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    high = u >= 1.0 - _PPF_LOW
    if high.any():
        q = np.sqrt(-2.0 * np.log(1.0 - u[high]))
        out[high] = -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    return out


def pair_jitter(
    ids_a: np.ndarray,
    ids_b: np.ndarray,
    *,
    jitter_seed: int,
    jitter_std_frac: float,
) -> np.ndarray:
    """Canonical deterministic per-pair jitter multiplier (mean ~1).

    A SplitMix64-style counter hash of the *sorted* host-id pair and the
    seed yields one uniform per pair; the inverse normal CDF turns it
    into a clipped ``N(1, jitter_std_frac)`` draw.  Stateless and
    symmetric, so the row, block and full-matrix delay paths all see
    bit-identical multipliers for the same pair — no RNG object
    is ever constructed.  Inputs broadcast like any NumPy binary op.
    """
    a = np.asarray(ids_a, dtype=np.uint64)
    b = np.asarray(ids_b, dtype=np.uint64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    if jitter_std_frac == 0:
        return np.ones(np.broadcast(lo, hi).shape, dtype=np.float64)
    seed = np.uint64((jitter_seed * _SM_GAMMA) & 0xFFFFFFFFFFFFFFFF)
    h = _mix64(lo ^ _mix64(hi ^ seed))
    # 53 high bits -> uniform strictly inside (0, 1)
    u = ((h >> _U64_11).astype(np.float64) + 0.5) * _U53_INV
    z = _norm_ppf(u)
    return np.clip(1.0 + jitter_std_frac * z, 0.5, 2.0)


@dataclass(frozen=True)
class LatencyConfig:
    """Parameters of the delay model (all in milliseconds / km)."""

    propagation_ms_per_km: float = PROPAGATION_MS_PER_KM
    per_link_router_ms: float = 1.0   # queueing/processing per inter-AS link
    intra_as_ms: float = 1.5          # internal delay of one traversed AS
    jitter_std_frac: float = 0.08     # lognormal-ish per-pair multiplier spread
    jitter_seed: int = 7

    def __post_init__(self) -> None:
        if self.propagation_ms_per_km <= 0:
            raise ConfigurationError("propagation speed must be positive")
        if self.per_link_router_ms < 0 or self.intra_as_ms < 0:
            raise ConfigurationError("delay components must be non-negative")
        if self.jitter_std_frac < 0:
            raise ConfigurationError("jitter fraction must be non-negative")


class LatencyModel:
    """AS-level delays, and the streaming host kernel built on them.

    The AS-pair delay matrix is built lazily on first use and cached.
    Host-pair delays are :class:`StreamingDelayKernel`'s job.
    """

    def __init__(
        self,
        topology: InternetTopology,
        routing: ASRouting,
        config: LatencyConfig | None = None,
    ) -> None:
        self.topology = topology
        self.routing = routing
        self.config = config or LatencyConfig()
        self._as_delay: Optional[np.ndarray] = None

    @property
    def as_delay(self) -> np.ndarray:
        """AS-path delay matrix for every AS pair, built lazily once."""
        if self._as_delay is None:
            self._as_delay = self._build_as_delay_matrix()
        return self._as_delay

    def _build_as_delay_matrix(self) -> np.ndarray:
        """Delay contributed by the AS path for every AS pair (symmetric
        up to routing asymmetry; we use the src->dst route).

        The per-link and per-AS terms accumulate inside the routing BFS
        itself — no per-pair path reconstruction.
        """
        cfg = self.config
        pos = self.topology.positions_array()
        geo = pairwise_distances(pos)
        link_ms = geo * cfg.propagation_ms_per_km
        mat = self.routing.delay_matrix(
            link_ms,
            per_link_router_ms=cfg.per_link_router_ms,
            intra_as_ms=cfg.intra_as_ms,
        )
        # Valley-free forward and reverse routes can differ slightly; the
        # delay a flow experiences is effectively the mean of both legs
        # (and the coordinate systems of §3.2 consume symmetric RTTs), so
        # the model uses the symmetrised matrix.
        return 0.5 * (mat + mat.T)

    def as_pair_delay(self, asn_a: int, asn_b: int) -> float:
        """AS-path delay component between two ASes (ms)."""
        mat = self._as_delay
        if mat is None:
            mat = self.as_delay
        return float(mat[asn_a, asn_b])

    def delay_kernel(self, hosts: Sequence[Host]) -> "StreamingDelayKernel":
        """Build the O(n)-memory streaming kernel over ``hosts``.

        Materialises only the SoA host columns and binds the (small)
        AS-delay matrix; rows/blocks are computed on demand.
        """
        return StreamingDelayKernel.from_hosts(hosts, self.as_delay, self.config)


class StreamingDelayKernel:
    """Streaming host-pair delay kernel over struct-of-arrays columns.

    Holds O(n) state — host-id, ASN, and access-latency vectors plus the
    ``(n, 2)`` position array — and the shared ``(n_ases, n_ases)``
    AS-delay matrix, and computes any rectangular block of the host
    delay matrix on demand with no ``(n_hosts, n_hosts)`` intermediate.
    :meth:`delay_block` holds the host-pair delay formula; every other
    path — :meth:`delay_row`, :meth:`full_matrix` and so
    ``Underlay.latency_matrix`` — is a block of it.
    """

    def __init__(
        self,
        host_ids: np.ndarray,
        asns: np.ndarray,
        access_ms: np.ndarray,
        positions: np.ndarray,
        as_delay: np.ndarray,
        config: LatencyConfig,
    ) -> None:
        self.host_ids = np.ascontiguousarray(host_ids, dtype=np.uint64)
        self.asns = np.ascontiguousarray(asns, dtype=np.int64)
        self.access_ms = np.ascontiguousarray(access_ms, dtype=np.float64)
        self.positions = np.ascontiguousarray(positions, dtype=np.float64)
        self.as_delay = as_delay
        self.config = config
        n = len(self.host_ids)
        if not (len(self.asns) == len(self.access_ms) == len(self.positions) == n):
            raise ConfigurationError("streaming kernel columns disagree on n_hosts")
        self.n_hosts = n

    @classmethod
    def from_hosts(
        cls,
        hosts: Sequence[Host],
        as_delay: np.ndarray,
        config: LatencyConfig,
    ) -> "StreamingDelayKernel":
        hosts = list(hosts)
        return cls(
            np.array([h.host_id for h in hosts], dtype=np.uint64),
            np.array([h.asn for h in hosts], dtype=np.int64),
            np.array([h.access_latency_ms for h in hosts], dtype=np.float64),
            positions_to_array([h.position for h in hosts]),
            as_delay,
            config,
        )

    # -- block computation ----------------------------------------------------
    def delay_block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Delay block ``(len(rows), len(cols))`` in ms, O(rows x cols)
        work and memory — never O(n^2) in the host population."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        cfg = self.config
        acc_r = self.access_ms[rows]
        acc_c = self.access_ms[cols]
        asn_r = self.asns[rows]
        asn_c = self.asns[cols]
        base = acc_r[:, None] + acc_c[None, :] + self.as_delay[np.ix_(asn_r, asn_c)]
        diff = self.positions[rows][:, None, :] - self.positions[cols][None, :, :]
        geo = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        same_as = asn_r[:, None] == asn_c[None, :]
        base = base + np.where(same_as, geo * cfg.propagation_ms_per_km, 0.0)
        ids_r = self.host_ids[rows]
        ids_c = self.host_ids[cols]
        jitter = pair_jitter(
            ids_r[:, None],
            ids_c[None, :],
            jitter_seed=cfg.jitter_seed,
            jitter_std_frac=cfg.jitter_std_frac,
        )
        out = base * jitter
        out[ids_r[:, None] == ids_c[None, :]] = 0.0
        return out

    def delay_row(self, row: int, cols: Sequence[int]) -> np.ndarray:
        """One delay row: host index ``row`` to each host index in
        ``cols`` (ms) — a 1-row :meth:`delay_block`."""
        return self.delay_block((row,), cols)[0]

    def full_matrix(self) -> np.ndarray:
        """The all-pairs matrix, assembled from row blocks of at most
        :data:`BUDGET` bytes each, so the build needs the matrix plus
        a fixed amount of scratch memory, whatever ``n_hosts`` is."""
        n = self.n_hosts
        all_cols = np.arange(n, dtype=np.intp)
        out = np.empty((n, n), dtype=np.float64)
        step = block_rows(n)
        for start in range(0, n, step):
            stop = min(start + step, n)
            out[start:stop] = self.delay_block(
                np.arange(start, stop, dtype=np.intp), all_cols
            )
        return out


def block_rows(n_hosts: int) -> int:
    """Rows in each block of :meth:`StreamingDelayKernel.full_matrix`.

    As many rows of ``n_hosts`` float64 entries as fit in
    :data:`BUDGET` bytes, and at least one.
    """
    return max(1, BUDGET // (8 * max(n_hosts, 1)))
