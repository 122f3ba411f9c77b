"""Outside-in tracer for the benchmark's traced repetition.

The benchmark touches no file under ``src/``: layers are measured from
outside by wrapping a fixed table of *public* callables (class
attributes, or the importing module's name for ``from x import f``
functions) before any simulator object is built.  Callbacks that enter
a layer through a public registration point are wrapped where they are
handed over: message handlers at ``MessageBus.register``, the fault
hook at ``MessageBus.set_fault_hook``, and event callbacks at
``Simulation.schedule*`` — so an event the engine fires is charged to
the layer that owns the callback, and ``sim.engine`` keeps only the
heap and the drain loop.

A span is one call crossing a layer boundary.  Spans live on an
in-memory stack; closing one adds its duration to the parent span's
child time (the parent link) and its *self* time — duration minus child
time — to its layer.  Tens of millions of spans per run make keeping
each one impractical, so they are folded as they close into per-layer
``self_s``/``calls`` and a ``(parent layer, layer)`` edge table.  A call
made while already inside the same layer is not a boundary crossing and
is passed straight through.
"""

from __future__ import annotations

import importlib
from functools import partial
from time import perf_counter
from typing import Any, Callable

#: layer -> public callables entering it, as "module:attr" or
#: "module:Class.attr".  The module is the one whose namespace holds the
#: reference callers use (the importing module for by-name imports).
TABLE: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("underlay.generate", ("repro.underlay.network:Underlay.generate",)),
    ("underlay.latency", (
        "repro.underlay.network:Underlay.one_way_delay",
        "repro.underlay.network:Underlay.one_way_delay_row",
        "repro.underlay.latency:StreamingDelayKernel.delay_row",
    )),
    ("underlay.asn_of", (
        "repro.underlay.network:Underlay.asn_of",
        "repro.underlay.network:Underlay.asns_of",
    )),
    ("underlay.routing", ("repro.underlay.routing:ASRouting.path_links",)),
    ("underlay.traffic", ("repro.underlay.traffic:TrafficAccountant.observe",)),
    ("underlay.cost", (
        "repro.underlay.cost:TransitBillingLedger.record",
        "repro.underlay.cost:TransitBillingLedger.bills_by_tier",
    )),
    # Simulation.schedule_at/schedule_many are patched separately (they
    # also wrap the callback they are handed); run is an ordinary span
    ("sim.engine", ("repro.sim.engine:Simulation.run",)),
    ("sim.messages", (
        "repro.sim.messages:MessageBus.send",
        "repro.sim.messages:MessageBus.send_many",
        "repro.sim.messages:MessageBus.account_external",
    )),
    ("sim.requests", (
        "repro.sim.requests:RequestManager.issue",
        "repro.sim.requests:RequestManager.issue_many",
        "repro.sim.requests:RequestManager.resolve",
    )),
    ("sim.flows", (
        "repro.overlay.bittorrent.flowswarm:max_min_rates",
        "repro.overlay.bittorrent.flowswarm:single_link_waterfill",
        "repro.sim.flows:FlowNetwork.reallocate",
        "repro.sim.flows:FlowNetwork.advance",
    )),
    ("overlay.gnutella.flood", (
        "repro.overlay.gnutella.flood:FloodKernel.expand_query",
        "repro.overlay.gnutella.flood:FloodKernel.expand_ping_round",
    )),
    ("overlay.gnutella", (
        "repro.overlay.gnutella.network:GnutellaNetwork.add_population",
        "repro.overlay.gnutella.network:GnutellaNetwork.bootstrap",
        "repro.overlay.gnutella.network:GnutellaNetwork.join_all",
        "repro.overlay.gnutella.network:GnutellaNetwork.share_content",
        "repro.overlay.gnutella.network:GnutellaNetwork.ping_round",
        "repro.overlay.gnutella.network:GnutellaNetwork.search",
        "repro.overlay.gnutella.network:GnutellaNetwork.download_stage",
        "repro.overlay.gnutella.network:GnutellaNetwork.overlay_graph",
    )),
    ("overlay.kademlia.routing_table", (
        "repro.overlay.kademlia.routing_table:RoutingTable.closest",
        "repro.overlay.kademlia.routing_table:RoutingTable.update",
        "repro.overlay.kademlia.routing_table:RoutingTable.remove",
    )),
    ("overlay.kademlia", (
        "repro.overlay.kademlia.network:KademliaNetwork.add_all_hosts",
        "repro.overlay.kademlia.network:KademliaNetwork.bootstrap_all",
        "repro.overlay.kademlia.node:KademliaNode.store_value",
        "repro.overlay.kademlia.node:KademliaNode.iterative_find_value",
    )),
    ("overlay.bittorrent.tracker", (
        "repro.overlay.bittorrent.tracker:Tracker.announce",
    )),
    ("overlay.bittorrent.flowswarm", (
        "repro.overlay.bittorrent.flowswarm:FlowSwarmSimulation.populate",
        "repro.overlay.bittorrent.flowswarm:FlowSwarmSimulation.run",
        "repro.overlay.bittorrent.flowswarm:FlowSwarmSimulation.download_times_by_as",
    )),
    ("collection.oracle", (
        "repro.collection.oracle:ISPOracle.rank",
        "repro.collection.oracle:ISPOracle.top_k",
        "repro.collection.oracle:ISPOracle.best",
    )),
    ("service.load", ("repro.service.load:OpenLoopDriver.run",)),
    ("faults.injector", ("repro.faults.injector:FaultInjector.start",)),
    ("metrics", (
        "repro.metrics.locality:as_modularity",
        "repro.metrics.locality:intra_as_edge_fraction",
        "repro.metrics.message_stats:gnutella_table_row",
    )),
)

LAYERS: tuple[str, ...] = tuple(layer for layer, _ in TABLE)

#: owning layer of a handler / hook / event callback, by the module that
#: defines it (first matching prefix wins, so specific rows come first)
_LAYER_OF_MODULE: tuple[tuple[str, str], ...] = (
    ("repro.sim.messages", "sim.messages"),
    ("repro.sim.requests", "sim.requests"),
    ("repro.sim.flows", "sim.flows"),
    ("repro.sim", "sim.engine"),
    ("repro.overlay.gnutella.flood", "overlay.gnutella.flood"),
    ("repro.overlay.gnutella", "overlay.gnutella"),
    ("repro.overlay.kademlia.routing_table", "overlay.kademlia.routing_table"),
    ("repro.overlay.kademlia", "overlay.kademlia"),
    ("repro.overlay.bittorrent.tracker", "overlay.bittorrent.tracker"),
    ("repro.overlay.bittorrent", "overlay.bittorrent.flowswarm"),
    ("repro.service", "service.load"),
    ("repro.faults", "faults.injector"),
    ("repro.collection", "collection.oracle"),
    ("repro.metrics", "metrics"),
)

_ROOT = -1  # layer index of the driver's own frame at the stack bottom


def _resolve(path: str) -> tuple[Any, str]:
    """``"module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Patches the table in, folds spans as they close, patches out.

    Constructing one resolves the table, which imports every module it
    names; a child that will not trace still constructs one, so traced
    and untraced repetitions start their clocks with the same modules
    loaded."""

    def __init__(self) -> None:
        self._targets = [
            (idx, *_resolve(path))
            for idx, (_layer, paths) in enumerate(TABLE)
            for path in paths
        ]
        n = len(LAYERS)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        # edge (parent, child) at index (parent + 1) * n + child; the
        # root frame is parent -1
        self.edge_s = [0.0] * ((n + 1) * n)
        self.edge_calls = [0] * ((n + 1) * n)
        self._stack: list[list] = [[0.0, _ROOT]]
        self._undo: list[tuple[Any, str, Any]] = []
        self._layer_of_module: dict[str, int | None] = {}

    # -- spans ---------------------------------------------------------------
    def span(self, idx: int, fn: Callable) -> Callable:
        """``fn`` wrapped so each boundary-crossing call is one span."""
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        edge_s, edge_calls = self.edge_s, self.edge_calls
        n = len(LAYERS)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[1] == idx:  # already inside this layer
                return fn(*args, **kwargs)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent[0] += dur
                self_s[idx] += dur - frame[0]
                calls[idx] += 1
                edge = (parent[1] + 1) * n + idx
                edge_s[edge] += dur
                edge_calls[edge] += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def _owner_layer(self, callback: Callable) -> int | None:
        """Layer index owning ``callback`` (None: not a simulator layer)."""
        while isinstance(callback, partial):
            callback = callback.func
        bound_to = getattr(callback, "__self__", None)
        module = (
            type(bound_to).__module__
            if bound_to is not None
            else getattr(callback, "__module__", None) or ""
        )
        try:
            return self._layer_of_module[module]
        except KeyError:
            idx = None
            for prefix, layer in _LAYER_OF_MODULE:
                if module == prefix or module.startswith(prefix + "."):
                    idx = LAYERS.index(layer)
                    break
            self._layer_of_module[module] = idx
            return idx

    def owned(self, callback: Callable) -> Callable:
        """``callback`` as a span of the layer that defines it."""
        idx = self._owner_layer(callback)
        return callback if idx is None else self.span(idx, callback)

    # -- patching ------------------------------------------------------------
    def _set(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new: Any = type(raw)(wrap(raw.__func__))
        else:
            new = wrap(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def patch(self) -> None:
        """Apply every wrapper.  Call before any simulator object is
        built: objects that captured an unwrapped bound method earlier
        would bypass the trace."""
        if self._undo:
            raise RuntimeError("tracer is already patched in")
        for idx, owner, attr in self._targets:
            self._set(owner, attr, partial(self.span, idx))
        self._patch_handover_points()

    def _patch_handover_points(self) -> None:
        from repro.sim.engine import Simulation
        from repro.sim.messages import MessageBus

        owned = self.owned
        engine = LAYERS.index("sim.engine")

        def register(orig):
            def traced_register(bus, endpoint, handler):
                return orig(bus, endpoint, owned(handler))
            return traced_register

        def set_fault_hook(orig):
            def traced_set_fault_hook(bus, hook):
                return orig(bus, None if hook is None else owned(hook))
            return traced_set_fault_hook

        # Simulation.schedule() delegates to schedule_at(), so patching
        # schedule_at and schedule_many sees every event exactly once
        def schedule_at(orig):
            spanned = self.span(engine, orig)
            def traced_schedule_at(sim, when, callback, *args):
                return spanned(sim, when, owned(callback), *args)
            return traced_schedule_at

        def schedule_many(orig):
            spanned = self.span(engine, orig)
            def traced_schedule_many(sim, items):
                return spanned(
                    sim, ((d, owned(cb), a) for d, cb, a in items)
                )
            return traced_schedule_many

        self._set(MessageBus, "register", register)
        self._set(MessageBus, "set_fault_hook", set_fault_hook)
        self._set(Simulation, "schedule_at", schedule_at)
        self._set(Simulation, "schedule_many", schedule_many)

    def unpatch(self) -> None:
        """Restore every patched attribute to the exact object it held."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def patched(self) -> list[tuple[Any, str, Any]]:
        """(owner, attribute, original) for every live patch."""
        return list(self._undo)

    # -- results -------------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """Per-layer self time and calls, plus the parent->child edges
        that carried any call (``"driver"`` is the benchmark's own frame)."""
        n = len(LAYERS)
        edges = []
        for parent in range(_ROOT, n):
            for child in range(n):
                k = (parent + 1) * n + child
                if self.edge_calls[k]:
                    edges.append({
                        "parent": "driver" if parent == _ROOT else LAYERS[parent],
                        "layer": LAYERS[child],
                        "calls": self.edge_calls[k],
                        "total_s": self.edge_s[k],
                    })
        return {
            "layers": {
                layer: {"self_s": self.self_s[i], "calls": self.calls[i]}
                for i, layer in enumerate(LAYERS)
            },
            "edges": edges,
        }
