"""Golden-trace regression tests.

Run a full scenario inside an ``obs.observe()`` scope twice with the same
seed and assert the trace digests are identical — any refactor that
changes *behaviour* (message order, event schedule, lookup paths), not
just outputs, flips the digest.  Then run with a different seed and
assert the digest *changes*, which guards the other failure mode: a
digest that ignores the event stream would pass the determinism check
vacuously.

These scenarios are deliberately small (seconds, not minutes); the
digest covers every sim schedule/fire/cancel and every bus send and
drop, so even the small runs fingerprint over a hundred thousand events.

The Kademlia scenario also checks an invariant on the same stream: the
engine clock never runs backwards.  Run untraced, it must end exactly
where the traced run ends: the untraced bus pushes its deliveries onto
the heap itself, the traced one goes through ``Simulation.schedule``.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from repro import obs
from repro.experiments.fig5_gnutella_oracle import run_fig5
from repro.overlay.kademlia import KademliaConfig, KademliaNetwork, key_for
from repro.sim import Simulation
from repro.underlay import Underlay, UnderlayConfig


@functools.lru_cache(maxsize=None)
def _fig5_trace_once(seed: int, repeat: int) -> tuple[str, int]:
    # ``repeat`` only distinguishes independent runs of the same seed
    with obs.observe() as tracer:
        run_fig5(n_hosts=60, cache_fill=40, seed=seed)
    return tracer.digest(), tracer.emitted


def _kademlia_trace(
    seed: int, hook: Optional[Callable[[obs.TraceEvent], None]] = None
) -> tuple[str, int]:
    with obs.observe() as tracer:
        if hook is not None:
            tracer.subscribe(hook)
        underlay = Underlay.generate(UnderlayConfig(n_hosts=30, seed=seed))
        sim = Simulation()
        bus, _acct = underlay.message_bus(sim)
        net = KademliaNetwork(
            underlay, sim, bus, config=KademliaConfig(k=4, alpha=2), rng=seed
        )
        net.add_all_hosts()
        net.bootstrap_all()
        sim.run()
        net.run_value_workload(n_publishes=5, n_lookups=10)
    return tracer.digest(), tracer.emitted


def test_fig5_gnutella_oracle_trace_is_deterministic():
    digest_a, emitted_a = _fig5_trace_once(11, 0)
    digest_b, emitted_b = _fig5_trace_once(11, 1)
    assert emitted_a > 10_000  # the digest actually covers the run
    assert emitted_a == emitted_b
    assert digest_a == digest_b


def test_fig5_gnutella_oracle_trace_tracks_the_seed():
    digest_a, _ = _fig5_trace_once(11, 0)
    digest_c, _ = _fig5_trace_once(12, 0)
    assert digest_a != digest_c


def test_kademlia_lookup_trace_is_deterministic():
    digest_a, emitted_a = _kademlia_trace(seed=3)
    digest_b, emitted_b = _kademlia_trace(seed=3)
    assert emitted_a > 1_000
    assert emitted_a == emitted_b
    assert digest_a == digest_b


def test_kademlia_lookup_trace_tracks_the_seed():
    digest_a, _ = _kademlia_trace(seed=3)
    digest_c, _ = _kademlia_trace(seed=4)
    assert digest_a != digest_c


def test_kademlia_engine_clock_is_monotone():
    """The scenario builds one Simulation: successive ``fire`` events
    never go back in time, and no event is scheduled before the clock."""
    fired: list[float] = []
    backwards: list[tuple[float, float]] = []

    def check(ev: obs.TraceEvent) -> None:
        if ev.component != "sim":
            return
        if ev.kind == "fire":
            fired.append(ev.time)
        elif ev.kind == "schedule" and ev.attrs["at"] < ev.time:
            backwards.append((ev.time, ev.attrs["at"]))

    _kademlia_trace(seed=3, hook=check)
    assert len(fired) > 500
    assert all(a <= b for a, b in zip(fired, fired[1:]))
    assert backwards == []


def _kademlia_outcome(seed: int) -> dict:
    """The traced scenario plus six node lookups, in whatever ``obs``
    scope is active; returns everything a run leaves behind."""
    underlay = Underlay.generate(UnderlayConfig(n_hosts=30, seed=seed))
    sim = Simulation()
    bus, _acct = underlay.message_bus(sim)
    net = KademliaNetwork(
        underlay, sim, bus, config=KademliaConfig(k=4, alpha=2), rng=seed
    )
    net.add_all_hosts()
    net.bootstrap_all()
    sim.run()
    stats = net.run_value_workload(n_publishes=5, n_lookups=10)
    found: list = []
    for i, node in enumerate(list(net.nodes.values())[:6]):
        node.iterative_find_node(key_for(f"probe-{i}"), found.append)
    sim.run()
    return {
        "events": sim.events_processed,
        "bus": bus.stats,
        "contacts": {
            hid: node.routing_table.all_contacts()
            for hid, node in net.nodes.items()
        },
        "stats": stats,
        "found": found,
    }


def test_untraced_run_equals_traced_run():
    untraced = _kademlia_outcome(3)
    with obs.observe() as tracer:
        traced = _kademlia_outcome(3)
    assert tracer.emitted > untraced["events"] > 500
    assert len(untraced["found"]) == 6
    assert all(untraced["contacts"].values())
    for key in untraced:
        assert untraced[key] == traced[key], key
