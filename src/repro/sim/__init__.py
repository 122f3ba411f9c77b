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
- :class:`~repro.sim.queryplane.SeenFilter` /
  :class:`~repro.sim.queryplane.BoundedRouteTable` /
  :class:`~repro.sim.queryplane.SendLog` — bounded duplicate
  suppression, reverse-path routing state, and the message-level
  trace digest behind the frontier-batched query plane.
"""

from repro.sim.churn import ChurnConfig, ChurnProcess, draw_duration
from repro.sim.engine import EventHandle, Simulation
from repro.sim.flows import FlowNetwork, max_min_rates, single_link_waterfill
from repro.sim.messages import BusStats, Message, MessageBus
from repro.sim.process import PeriodicProcess, call_after
from repro.sim.queryplane import (
    QUERY_AUTO_NODE_THRESHOLD,
    BoundedRouteTable,
    SeenFilter,
    SendLog,
    flood_trace_digest,
)
from repro.sim.requests import RequestManager, RequestStats, RetryPolicy

__all__ = [
    "BoundedRouteTable",
    "BusStats",
    "ChurnConfig",
    "ChurnProcess",
    "EventHandle",
    "FlowNetwork",
    "Message",
    "MessageBus",
    "PeriodicProcess",
    "QUERY_AUTO_NODE_THRESHOLD",
    "RequestManager",
    "RequestStats",
    "RetryPolicy",
    "SeenFilter",
    "SendLog",
    "Simulation",
    "call_after",
    "draw_duration",
    "flood_trace_digest",
    "max_min_rates",
    "single_link_waterfill",
]
