"""Observability: the trace plane.

Stdlib only and **off by default**: no component emits anything unless
an :func:`observe` scope is active when it is built.  Every number an
experiment reports comes from the components' own counters
(``bus.stats``, ``requests.stats``, ``injector.stats``, ``sent_counts``,
``OverheadCounter``); the tracer adds the ordered event stream behind
them, folded into a running digest and a per-``"component.kind"``
tally.  The one-liner:

    from repro import obs

    with obs.observe() as tracer:
        result = run_fig5(n_hosts=60)
    print(tracer.digest(), tracer.emitted)   # golden-trace fingerprint
    print(tracer.counts["bus.send"])

Inside the scope, every :class:`~repro.sim.engine.Simulation`,
:class:`~repro.sim.messages.MessageBus`,
:class:`~repro.sim.requests.RequestManager` and
:class:`~repro.faults.FaultInjector` constructed picks up the active
tracer at construction time; components built outside a scope carry a
single ``is None`` check on their hot paths and no other cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.tracing import TraceEvent, Tracer

__all__ = [
    "TraceEvent",
    "Tracer",
    "active_tracer",
    "observe",
]

# Stack, not a single slot: observe() scopes may nest (an experiment
# under test inside a traced meta-experiment), innermost wins.
_ACTIVE: list[Tracer] = []


def active_tracer() -> Optional[Tracer]:
    """The tracer of the innermost active scope, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def observe() -> Iterator[Tracer]:
    """Activate an observation scope with a fresh :class:`Tracer`, so two
    scopes never bleed into each other."""
    tracer = Tracer()
    _ACTIVE.append(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.pop()
