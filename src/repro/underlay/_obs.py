"""Shared observability helpers for the underlay substrate.

Unlike the simulation components (which pick up the active registry at
construction time), substrate state is long-lived and often *outlives*
any single ``obs.observe()`` scope — an :class:`Underlay` built outside
a scope is read inside it, and one underlay can serve several scopes.
Cache events therefore look up the active registry at event time, so
whichever scope is running when a lazy matrix builds (or is reused) gets
the sample.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs import active_registry

#: Counter of lazy substrate builds and reuses, labelled by ``kind``
#: (``bfs``, ``as_delay``, ``delay_kernel``, ``host_latency``) and
#: ``event`` (``hit`` / ``miss``).
CACHE_COUNTER = "underlay_substrate_cache_total"

#: Histogram of wall-clock seconds spent building substrate state,
#: labelled by ``kind``.
BUILD_SECONDS = "underlay_substrate_build_seconds"


def note_cache_event(kind: str, event: str) -> None:
    """Record one cache hit/miss on the active registry (no-op
    outside an observation scope)."""
    reg = active_registry()
    if reg is None:
        return
    reg.counter(
        CACHE_COUNTER,
        "Substrate cache events (BFS trees, delay matrices, delay kernel).",
        ("kind", "event"),
    ).inc(kind=kind, event=event)


@contextmanager
def timed_build(kind: str) -> Iterator[None]:
    """Time a substrate build and record it on the active registry."""
    reg = active_registry()
    if reg is None:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        reg.histogram(
            BUILD_SECONDS,
            "Wall-clock seconds spent building substrate state.",
            ("kind",),
        ).observe(time.perf_counter() - t0, kind=kind)
