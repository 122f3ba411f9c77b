"""Fault injection & recovery: the controllable failure model (§5.4).

The survey's open evaluation question is how underlay-aware overlays
behave under churn and network failure.  This package provides the
missing instrument: a deterministic, clock-driven fault model that
interposes on the simulation's transport (:class:`~repro.sim.messages.MessageBus`)
without modifying any protocol.  Peer departures are modelled only as
crash faults, each with an optional recovery time.

- :class:`FaultSchedule` — timed loss/delay/partition/crash faults,
  programmatic or loaded from a dict/JSON spec.
- :class:`FaultInjector` — turns a schedule into simulation events; an
  empty schedule is a complete no-op (bit-for-bit identical traces).
- Recovery lives in :class:`~repro.sim.requests.RequestManager`
  (timeout + capped exponential backoff + max-retries), which the
  Kademlia and Gnutella nodes use for their RPC-style exchanges.

See ``docs/faults.md`` for the fault model, the spec format, and the
retry semantics; ``experiments/resilience_faults.py`` sweeps fault
severity for underlay-aware vs unaware overlays.
"""

from repro.faults.injector import FaultInjector, InjectorStats
from repro.faults.schedule import (
    CrashFault,
    DelayFault,
    FaultSchedule,
    LossFault,
    PartitionFault,
)

__all__ = [
    "CrashFault",
    "DelayFault",
    "FaultInjector",
    "FaultSchedule",
    "InjectorStats",
    "LossFault",
    "PartitionFault",
]
