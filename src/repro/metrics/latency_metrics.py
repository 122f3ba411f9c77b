"""Latency metrics: delay distributions."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ReproError


def percentile_key(p: float) -> str:
    """Distinct name for a percentile: ``p50`` for integral values,
    ``p99.9`` for fractional ones.  Truncating to ``int`` would collapse
    e.g. 99 and 99.9 onto the same ``"p99"`` key and silently drop one."""
    p = float(p)
    return f"p{int(p)}" if p == int(p) else f"p{p:g}"


def delay_percentiles(
    delays_ms: Sequence[float], percentiles: Sequence[float] = (50, 90, 99)
) -> dict[str, float]:
    """Named percentiles of a delay sample (p50/p90/p99 by default)."""
    d = np.asarray(list(delays_ms), dtype=float)
    if d.size == 0:
        raise ReproError("no delay samples")
    out = {percentile_key(p): float(np.percentile(d, p)) for p in percentiles}
    if len(out) != len(percentiles):
        raise ReproError(f"duplicate percentiles requested: {tuple(percentiles)}")
    return out
