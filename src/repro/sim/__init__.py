"""Discrete-event simulation kernel.

Public surface:

- :class:`~repro.sim.engine.Simulation` — deterministic event loop.
- :class:`~repro.sim.process.PeriodicProcess` — recurring protocol loops.
- :class:`~repro.sim.messages.MessageBus` / :class:`~repro.sim.messages.Message`
  — latency-aware unicast between endpoints.
- :class:`~repro.sim.requests.RequestManager` / :class:`~repro.sim.requests.RetryPolicy`
  — RPC timeouts with capped exponential backoff.
- :class:`~repro.sim.flows.FlowNetwork` / :func:`~repro.sim.flows.max_min_rates`
  / :func:`~repro.sim.flows.single_link_waterfill` — flow-level max-min
  fair bandwidth sharing over capacitated links.
"""

from repro.sim.engine import EventHandle, Simulation
from repro.sim.flows import FlowNetwork, max_min_rates, single_link_waterfill
from repro.sim.messages import BusStats, Message, MessageBus
from repro.sim.process import PeriodicProcess
from repro.sim.requests import RequestManager, RequestStats, RetryPolicy

__all__ = [
    "BusStats",
    "EventHandle",
    "FlowNetwork",
    "Message",
    "MessageBus",
    "PeriodicProcess",
    "RequestManager",
    "RequestStats",
    "RetryPolicy",
    "Simulation",
    "max_min_rates",
    "single_link_waterfill",
]
