"""Unit tests for the message bus."""

import pytest

from repro.errors import SimulationError
from repro.sim import MessageBus, Simulation


class FixedLatency:
    def __init__(self, delay=5.0):
        self.delay = delay

    def one_way_delay(self, src, dst):
        return self.delay


class Recorder:
    def __init__(self):
        self.seen = []

    def observe(self, src, dst, size_bytes, kind):
        self.seen.append((src, dst, size_bytes, kind))


def test_delivery_after_latency():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency(7.0))
    got = []
    bus.register("b", lambda m: got.append((sim.now, m.payload)))
    bus.send("a", "b", "HELLO", payload=42)
    sim.run()
    assert got == [(7.0, 42)]


def test_message_ordering_preserved_for_same_pair():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency(1.0))
    got = []
    bus.register("b", lambda m: got.append(m.payload))
    for i in range(5):
        bus.send("a", "b", "SEQ", payload=i)
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_drop_without_handler_is_counted_not_fatal():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency())
    bus.send("a", "ghost", "X")
    sim.run()
    assert bus.stats.dropped_no_handler == 1
    assert bus.stats.delivered == 0


def test_unregister_mid_flight_drops_message():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency(10.0))
    got = []
    bus.register("b", lambda m: got.append(m))
    bus.send("a", "b", "X")
    bus.unregister("b")
    sim.run()
    assert got == []
    assert bus.stats.dropped_no_handler == 1


def test_stats_by_kind_and_bytes():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency())
    bus.register("b", lambda m: None)
    bus.send("a", "b", "PING", size_bytes=10)
    bus.send("a", "b", "PING", size_bytes=10)
    bus.send("a", "b", "QUERY", size_bytes=50)
    sim.run()
    assert bus.stats.by_kind == {"PING": 2, "QUERY": 1}
    assert bus.stats.bytes_sent == 70
    assert bus.stats.sent == 3
    assert bus.stats.delivered == 3


def test_observer_sees_every_send():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency())
    rec = Recorder()
    bus.add_observer(rec)
    bus.register("b", lambda m: None)
    bus.send("a", "b", "K", size_bytes=9)
    bus.send("b", "a", "K", size_bytes=9)  # even without receiver handler
    sim.run()
    assert rec.seen == [("a", "b", 9, "K"), ("b", "a", 9, "K")]


def test_negative_size_rejected():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency())
    with pytest.raises(SimulationError):
        bus.send("a", "b", "X", size_bytes=-1)


def test_extra_delay_added():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency(2.0))
    got = []
    bus.register("b", lambda m: got.append(sim.now))
    bus.send("a", "b", "X", extra_delay=3.0)
    sim.run()
    assert got == [5.0]


def test_is_registered():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency())
    assert not bus.is_registered("a")
    bus.register("a", lambda m: None)
    assert bus.is_registered("a")


# -- send_many: batched fan-out with send() semantics ------------------------

def test_send_many_equals_send_loop():
    """Same deliveries, same times, same stats as a per-dst send loop."""
    def fanout(batched):
        sim = Simulation()
        bus = MessageBus(sim, FixedLatency(2.0))
        got = []
        for dst in ("b", "c", "d"):
            bus.register(dst, lambda m, d=dst: got.append((sim.now, d, m.payload)))
        if batched:
            bus.send_many("a", ["b", "c", "d"], "K", payload=9, size_bytes=10)
        else:
            for dst in ("b", "c", "d"):
                bus.send("a", dst, "K", payload=9, size_bytes=10)
        sim.run()
        return got, bus.stats.sent, bus.stats.bytes_sent, dict(bus.stats.by_kind)

    assert fanout(True) == fanout(False)


def test_send_many_loss_rng_draw_order_matches_send():
    """Loss draws happen per destination in order: the survivor set is
    bit-identical to the serial send loop with the same loss seed."""
    def survivors(batched):
        sim = Simulation()
        bus = MessageBus(sim, FixedLatency(1.0), loss_rate=0.5, loss_seed=7)
        got = []
        dsts = [f"n{i}" for i in range(12)]
        for dst in dsts:
            bus.register(dst, lambda m: got.append(m.dst))
        if batched:
            bus.send_many("src", dsts, "K")
        else:
            for dst in dsts:
                bus.send("src", dst, "K")
        sim.run()
        return got, bus.stats.dropped_loss

    batched, serial = survivors(True), survivors(False)
    assert batched == serial
    assert 0 < batched[1] < 12  # the loss model actually bit


def test_send_many_returns_messages_and_observers_fire():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency(1.0))
    rec = Recorder()
    bus.add_observer(rec)
    msgs = bus.send_many("a", ["b", "c"], "K", size_bytes=32)
    assert [m.dst for m in msgs] == ["b", "c"]
    assert rec.seen == [("a", "b", 32, "K"), ("a", "c", 32, "K")]


def test_send_many_empty_and_negative_size():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency(1.0))
    assert bus.send_many("a", [], "K") == []
    with pytest.raises(SimulationError):
        bus.send_many("a", ["b"], "K", size_bytes=-1)


# -- negative total delay + slots (PR 9) -------------------------------------

def test_negative_extra_delay_raises():
    """A negative extra_delay larger than the underlay latency would
    schedule delivery before the send; the bus must refuse it."""
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency(5.0))
    bus.send("a", "b", "K", extra_delay=-5.0)  # exactly zero is fine
    with pytest.raises(SimulationError, match="negative total delay"):
        bus.send("a", "b", "K", extra_delay=-5.01)
    with pytest.raises(SimulationError, match="negative total delay"):
        bus.send_many("a", ["b", "c"], "K", extra_delay=-6.0)


def test_negative_fault_penalty_raises():
    sim = Simulation()
    bus = MessageBus(sim, FixedLatency(5.0))
    bus.set_fault_hook(lambda src, dst, kind: -9.0)
    with pytest.raises(SimulationError, match="negative total delay"):
        bus.send("a", "b", "K")


def test_message_and_busstats_are_slots():
    """Misspelled attribute writes fail loudly instead of silently
    growing per-message instance dicts at fan-out scale."""
    from repro.sim.messages import BusStats, Message

    msg = Message(src="a", dst="b", kind="K")
    with pytest.raises(AttributeError):
        msg.playload = 1  # typo'd 'payload'
    assert not hasattr(msg, "__dict__")
    stats = BusStats()
    with pytest.raises(AttributeError):
        stats.snet = 1  # typo'd 'sent'
    assert not hasattr(stats, "__dict__")


def test_traced_bus_tally_matches_stats():
    """The tracer's per-kind tally counts the same sends and drops as
    the bus's own stats, on both the single and the batch send path."""
    from repro import obs

    with obs.observe() as tracer:
        sim = Simulation()
        bus = MessageBus(sim, FixedLatency(1.0))
        bus.register("b", lambda m: None)
        bus.send("a", "b", "PING")
        bus.send_many("a", ["b", "b"], "PING", size_bytes=10)
        bus.send("a", "missing", "PONG")
        sim.run()
    assert tracer.counts["bus.send"] == bus.stats.sent == 4
    assert tracer.counts["bus.drop"] == bus.stats.dropped_no_handler == 1
    assert bus.stats.by_kind == {"PING": 3, "PONG": 1}
    assert bus.stats.bytes_sent == 64 + 10 + 10 + 64
    assert bus.stats.delivered == 3
