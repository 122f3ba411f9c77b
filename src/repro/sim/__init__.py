"""Discrete-event simulation kernel.

Public surface:

- :class:`~repro.sim.engine.Simulation` — deterministic event loop.
- :class:`~repro.sim.process.PeriodicProcess` — recurring maintenance loops.
- :class:`~repro.sim.messages.MessageBus` / :class:`~repro.sim.messages.Message`
  — latency-aware unicast between endpoints.
- :class:`~repro.sim.churn.ChurnProcess` / :class:`~repro.sim.churn.ChurnConfig`
  — peer session dynamics.
- :class:`~repro.sim.requests.RequestManager` / :class:`~repro.sim.requests.RetryPolicy`
  — RPC timeouts with capped exponential backoff.
- :class:`~repro.sim.flows.FlowNetwork` / :func:`~repro.sim.flows.max_min_rates`
  / :func:`~repro.sim.flows.single_link_waterfill` — flow-level max-min
  fair bandwidth sharing over capacitated links.
"""

from repro.sim.churn import ChurnConfig, ChurnProcess, draw_duration
from repro.sim.engine import EventHandle, Simulation
from repro.sim.flows import FlowNetwork, max_min_rates, single_link_waterfill
from repro.sim.messages import BusStats, Message, MessageBus
from repro.sim.process import PeriodicProcess, call_after
from repro.sim.requests import RequestManager, RequestStats, RetryPolicy

__all__ = [
    "BusStats",
    "ChurnConfig",
    "ChurnProcess",
    "EventHandle",
    "FlowNetwork",
    "Message",
    "MessageBus",
    "PeriodicProcess",
    "RequestManager",
    "RequestStats",
    "RetryPolicy",
    "Simulation",
    "call_after",
    "draw_duration",
    "max_min_rates",
    "single_link_waterfill",
]
