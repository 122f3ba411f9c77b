"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulation


def test_runs_events_in_time_order():
    sim = Simulation()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_insertion_order():
    sim = Simulation()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(5.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulation()
    seen = []
    sim.schedule(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]
    assert sim.now == 7.5


def test_run_until_stops_before_later_events():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 2)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert fired == [1, 2]


def test_events_scheduled_during_run_are_processed():
    sim = Simulation()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_cancelled_event_does_not_fire():
    sim = Simulation()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, fired.append, "y")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == ["y"]


def test_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_the_past_rejected():
    sim = Simulation(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_max_events_limits_processing():
    sim = Simulation()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_raising_callback_does_not_advance_clock_to_until():
    sim = Simulation()
    sim.schedule(1.0, lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    sim.schedule(50.0, lambda: None)
    with pytest.raises(RuntimeError):
        sim.run(until=100.0)
    # the run did not complete: the clock stays at the failing event, not
    # at the horizon, so a recovered caller resumes from the right time
    assert sim.now == 1.0
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_max_events_cut_short_does_not_advance_clock_to_until():
    sim = Simulation()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    sim.run(until=100.0, max_events=4)
    assert sim.now == 3.0  # stopped early: horizon not reached
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_pending_excludes_cancelled_events():
    sim = Simulation()
    assert sim.pending() == 0
    h = sim.schedule(2.0, lambda: None)
    sim.schedule(4.0, lambda: None)
    assert sim.pending() == 2
    h.cancel()
    assert sim.pending() == 1


def test_events_processed_counter():
    sim = Simulation()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


# -- edge cases around cancellation and the processed counter ------------------


def test_cancel_after_fire_is_harmless_noop():
    sim = Simulation()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert handle.fired
    # cancelling an already-fired event does nothing and reports failure
    assert handle.cancel() is False
    assert handle.cancelled is False
    assert sim.events_processed == 1
    sim.run()  # still harmless with an empty queue
    assert fired == ["x"]


def test_cancel_is_idempotent_and_reports_first_win():
    sim = Simulation()
    handle = sim.schedule(1.0, lambda: None)
    assert handle.cancel() is True
    assert handle.cancel() is False  # second cancel is a no-op
    assert handle.cancelled
    sim.run()
    assert sim.events_processed == 0


def test_schedule_before_now_rejected_mid_run():
    sim = Simulation()
    errors = []

    def bad():
        try:
            sim.schedule_at(sim.now - 1.0, lambda: None)
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(5.0, bad)
    sim.run()
    assert len(errors) == 1


def test_events_processed_excludes_cancelled_events():
    sim = Simulation()
    handles = [sim.schedule(float(i), lambda: None) for i in range(10)]
    for h in handles[::2]:
        h.cancel()
    sim.run()
    assert sim.events_processed == 5
    # cancelled handles never flip to fired
    assert all(not h.fired for h in handles[::2])
    assert all(h.fired for h in handles[1::2])


# -- schedule_many: batch insertion with schedule() semantics ----------------

def test_schedule_many_matches_serial_schedule_order():
    """A batch behaves exactly like schedule() called once per item:
    time order first, then insertion (seq) order inside a tie."""
    items = [(3.0, ("c",)), (1.0, ("a",)), (1.0, ("b",)), (0.0, ("z",))]

    serial_order = []
    sim_a = Simulation()
    for delay, args in items:
        sim_a.schedule(delay, serial_order.append, *args)
    sim_a.run()

    batch_order = []
    sim_b = Simulation()
    sim_b.schedule_many(
        (delay, batch_order.append, args) for delay, args in items
    )
    sim_b.run()
    assert batch_order == serial_order == ["z", "a", "b", "c"]


def test_schedule_many_interleaves_with_schedule_on_ties():
    """Seq assignment is global: a batch scheduled before a single event
    at the same time fires first, and vice versa."""
    sim = Simulation()
    order = []
    sim.schedule_many([(5.0, order.append, ("batch1",))])
    sim.schedule(5.0, order.append, "single")
    sim.schedule_many([(5.0, order.append, ("batch2",))])
    sim.run()
    assert order == ["batch1", "single", "batch2"]


def test_schedule_many_empty_batch():
    sim = Simulation()
    assert sim.schedule_many([]) == []
    assert sim.pending() == 0


def test_schedule_many_rejects_negative_delay():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule_many([(1.0, lambda: None, ()), (-0.5, lambda: None, ())])


def test_schedule_many_large_batch_onto_nonempty_heap():
    """The heapify path (batch >> pending) must preserve the pending
    events and the global ordering."""
    sim = Simulation()
    order = []
    sim.schedule(2.5, order.append, "pending")
    sim.schedule_many(
        (float(i % 5), order.append, (i,)) for i in range(50)
    )
    sim.run()
    expected = sorted(range(50), key=lambda i: (i % 5, i))
    expected.insert(
        sum(1 for i in range(50) if i % 5 <= 2), "pending"
    )
    assert order == expected
    assert sim.events_processed == 51


def test_schedule_many_handles_cancel_then_fire_ordering():
    """O(1) lazy cancel on batch-scheduled events: cancelled entries are
    skipped at pop time, survivors keep their tie-break order, and
    fired/cancelled semantics match single-event handles."""
    sim = Simulation()
    order = []
    handles = sim.schedule_many(
        [(1.0, order.append, (i,)) for i in range(6)]
    )
    assert [h.cancel() for h in handles[::2]] == [True, True, True]
    sim.run()
    assert order == [1, 3, 5]
    assert sim.events_processed == 3
    for h in handles[::2]:
        assert h.cancelled and not h.fired
        assert h.cancel() is False  # idempotent after cancel
    for h in handles[1::2]:
        assert h.fired and not h.cancelled
        assert h.cancel() is False  # and after fire


def test_schedule_many_cancel_mid_run_before_fire():
    """An event can cancel a later same-batch event before it fires."""
    sim = Simulation()
    order = []
    handles = sim.schedule_many(
        [(1.0, order.append, ("a",)), (2.0, order.append, ("b",))]
    )
    sim.schedule(1.5, handles[1].cancel)
    sim.run()
    assert order == ["a"]
    assert handles[1].cancelled and not handles[1].fired


def test_schedule_many_traces_like_schedule():
    """Batch scheduling emits the same per-event trace records."""
    from repro import obs

    digests = []
    for batched in (False, True):
        with obs.observe() as tracer:
            sim = Simulation()
            if batched:
                sim.schedule_many(
                    [(1.0, _noop, ()), (2.0, _noop, ())]
                )
            else:
                sim.schedule(1.0, _noop)
                sim.schedule(2.0, _noop)
            sim.run()
        digests.append(tracer.digest())
    assert digests[0] == digests[1]


def _noop():
    pass
