"""Fault injector behaviour: windows, scopes, partitions, crashes, and
the zero-cost-when-idle guarantee (bit-for-bit identical traces)."""

import pytest

from repro import obs
from repro.errors import FaultError
from repro.faults import (
    CrashFault,
    DelayFault,
    FaultInjector,
    FaultSchedule,
    LossFault,
    PartitionFault,
)
from repro.sim import MessageBus, Simulation


class FixedLatency:
    def one_way_delay(self, src, dst):
        return 1.0


def _bus(sim):
    return MessageBus(sim, FixedLatency())


def test_needs_asn_requires_resolver():
    sim = Simulation()
    sched = FaultSchedule(
        (PartitionFault(start=0, end=1, groups=(frozenset({1}),)),)
    )
    with pytest.raises(FaultError):
        FaultInjector(sim, _bus(sim), sched)


def test_double_start_rejected():
    sim = Simulation()
    inj = FaultInjector(sim, _bus(sim), FaultSchedule())
    inj.start()
    with pytest.raises(FaultError):
        inj.start()


def test_hard_link_loss_only_inside_window():
    sim = Simulation()
    bus = _bus(sim)
    got = []
    bus.register(2, got.append)
    sched = FaultSchedule(
        (LossFault(start=10.0, end=20.0, rate=1.0, src=1, dst=2),)
    )
    inj = FaultInjector(sim, bus, sched)
    inj.start()
    for t in (5.0, 15.0, 25.0):
        sim.schedule_at(t, bus.send, 1, 2, "X")
    sim.run()
    # only the t=15 send falls in the window
    assert len(got) == 2
    assert bus.stats.dropped_fault == 1
    assert inj.stats.messages_dropped == 1
    assert inj.stats.activations == inj.stats.deactivations == 1
    assert not inj._active


def test_partition_drops_cross_traffic_only():
    sim = Simulation()
    bus = _bus(sim)
    got = []
    for hid in (1, 2, 3):
        bus.register(hid, got.append)
    asn = {1: 10, 2: 10, 3: 20}
    sched = FaultSchedule(
        (PartitionFault(start=0.0, end=100.0, groups=(frozenset({10}),)),)
    )
    inj = FaultInjector(sim, bus, sched, asn_of=asn.__getitem__)
    inj.start()
    sim.schedule_at(5.0, bus.send, 1, 2, "INTRA")
    sim.schedule_at(5.0, bus.send, 1, 3, "CROSS")
    sim.schedule_at(5.0, bus.send, 3, 1, "CROSS")
    sim.run()
    assert [m.kind for m in got] == ["INTRA"]
    assert inj.stats.messages_dropped == 2


def test_delay_fault_adds_latency():
    sim = Simulation()
    bus = _bus(sim)
    arrivals = []
    bus.register(2, lambda m: arrivals.append(sim.now))
    sched = FaultSchedule((DelayFault(start=0.0, end=50.0, extra_ms=80.0),))
    inj = FaultInjector(sim, bus, sched)
    inj.start()
    sim.schedule_at(10.0, bus.send, 1, 2, "X")   # in window: 1 + 80 ms
    sim.schedule_at(60.0, bus.send, 1, 2, "X")   # after: 1 ms
    sim.run()
    assert arrivals == [61.0, 91.0]  # delivery order follows arrival time
    assert inj.stats.messages_delayed == 1


def test_probabilistic_loss_is_seeded_and_partial():
    def run(seed):
        sim = Simulation()
        bus = _bus(sim)
        got = []
        bus.register(2, got.append)
        sched = FaultSchedule((LossFault(start=0.0, end=1e6, rate=0.4),))
        inj = FaultInjector(sim, bus, sched, seed=seed)
        inj.start()
        for i in range(400):
            sim.schedule_at(1.0 + i, bus.send, 1, 2, "X")
        sim.run()
        return len(got), inj.stats.messages_dropped

    delivered_a, dropped_a = run(seed=3)
    delivered_b, dropped_b = run(seed=3)
    assert (delivered_a, dropped_a) == (delivered_b, dropped_b)
    assert 0.3 * 400 < dropped_a < 0.5 * 400
    delivered_c, _ = run(seed=4)
    assert delivered_c != delivered_a  # different seed, different pattern


def test_crash_unregisters_peer_and_recovery_fires():
    sim = Simulation()
    bus = _bus(sim)
    got = []
    bus.register(2, got.append)
    recovered = []
    sched = FaultSchedule(
        (CrashFault(at=10.0, peers=(2,), recover_at=30.0),)
    )
    inj = FaultInjector(sim, bus, sched, on_recover=recovered.append)
    inj.start()
    sim.schedule_at(5.0, bus.send, 1, 2, "BEFORE")
    sim.schedule_at(15.0, bus.send, 1, 2, "DURING")  # dead: no receiver
    sim.run()
    assert [m.kind for m in got] == ["BEFORE"]
    assert bus.stats.dropped_no_handler == 1
    assert recovered == [2]
    assert inj.stats.crashes == 1 and inj.stats.recoveries == 1


def test_recovery_without_callbacks_reattaches_the_handler():
    """A callback-less crash detaches the peer's bus handler; its
    recovery puts the same handler back, before ``on_recover`` runs."""
    sim = Simulation()
    bus = _bus(sim)
    got = []
    bus.register(2, got.append)
    sched = FaultSchedule((CrashFault(at=10.0, peers=(2,), recover_at=30.0),))
    inj = FaultInjector(sim, bus, sched)
    inj.start()
    sim.schedule_at(20.0, bus.send, 1, 2, "DURING")  # dead: no receiver
    sim.schedule_at(40.0, bus.send, 1, 2, "AFTER")
    sim.run()
    assert [m.kind for m in got] == ["AFTER"]
    assert bus.stats.dropped_no_handler == 1
    assert inj.stats.crashes == inj.stats.recoveries == 1

    seen = []
    sim2 = Simulation()
    bus2 = _bus(sim2)
    bus2.register(2, lambda m: None)
    FaultInjector(
        sim2, bus2, sched, on_recover=lambda p: seen.append(bus2.is_registered(p)),
    ).start()
    sim2.run()
    assert seen == [True]


def test_past_window_activates_and_deactivates_cleanly():
    sim = Simulation()
    bus = _bus(sim)
    sim.schedule(100.0, lambda: None)
    sim.run()  # clock now at 100, past the whole window
    sched = FaultSchedule((LossFault(start=10.0, end=20.0, rate=1.0),))
    inj = FaultInjector(sim, bus, sched)
    inj.start()
    sim.run()
    assert inj.stats.activations == inj.stats.deactivations == 1
    assert not inj._active


def test_empty_schedule_is_bit_for_bit_free():
    """An idle injector changes nothing: same seed, same trace digest,
    with and without the injector attached."""

    def run(with_injector):
        with obs.observe() as tracer:
            sim = Simulation()
            bus = MessageBus(sim, FixedLatency(), loss_rate=0.2, loss_seed=7)
            bus.register(2, lambda m: None)
            if with_injector:
                FaultInjector(sim, bus, FaultSchedule()).start()
            for i in range(300):
                sim.schedule_at(float(i + 1), bus.send, 1, 2, "X")
            sim.run()
        return tracer.digest(), tracer.emitted

    digest_plain, emitted_plain = run(with_injector=False)
    digest_idle, emitted_idle = run(with_injector=True)
    assert emitted_plain > 500
    assert (digest_idle, emitted_idle) == (digest_plain, emitted_plain)


def test_injector_metrics_and_trace_events():
    with obs.observe() as tracer:
        events = []
        tracer.subscribe(events.append)
        sim = Simulation()
        bus = _bus(sim)
        sched = FaultSchedule((
            LossFault(start=0.0, end=10.0, rate=1.0),
            CrashFault(at=5.0, peers=(9,)),
        ))
        injector = FaultInjector(sim, bus, sched)
        injector.start()
        sim.run()
    assert injector.stats.activations == 1
    assert injector.stats.crashes == 1
    faults = [e for e in events if e.component == "fault"]
    assert [e.kind for e in faults] == ["activate", "crash", "deactivate"]
    assert faults[0].attrs["kind"] == "loss"
    assert tracer.counts["fault.crash"] == 1
