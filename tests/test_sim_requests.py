"""RequestManager: timeouts, capped exponential backoff, retries."""

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.sim import RequestManager, RetryPolicy, Simulation


def test_policy_validation():
    with pytest.raises(SimulationError):
        RetryPolicy(timeout_ms=0.0)
    with pytest.raises(SimulationError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(SimulationError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(SimulationError):
        RetryPolicy(timeout_ms=100.0, max_timeout_ms=50.0)


def test_backoff_is_capped():
    policy = RetryPolicy(
        timeout_ms=100.0, backoff_factor=2.0, max_timeout_ms=300.0
    )
    assert [policy.timeout_for_attempt(a) for a in range(4)] == [
        100.0, 200.0, 300.0, 300.0
    ]


def test_resolve_before_timeout_means_no_retry():
    sim = Simulation()
    mgr = RequestManager(sim, policy=RetryPolicy(timeout_ms=100.0))
    sends = []
    mgr.issue("r1", lambda: sends.append(sim.now))
    sim.schedule(50.0, mgr.resolve, "r1")
    sim.run()
    assert sends == [0.0]
    assert mgr.stats.resolved == 1
    assert mgr.stats.retried == mgr.stats.failed == 0
    assert not mgr.is_outstanding("r1")


def test_retries_then_final_failure_with_backoff():
    sim = Simulation()
    mgr = RequestManager(
        sim,
        policy=RetryPolicy(
            timeout_ms=100.0, max_retries=2, backoff_factor=2.0,
            max_timeout_ms=1e6,
        ),
    )
    sends, failures = [], []
    mgr.issue("r1", lambda: sends.append(sim.now),
              on_fail=lambda: failures.append(sim.now))
    sim.run()
    # transmit at 0, retries at 100 and 300, final failure at 700
    assert sends == [0.0, 100.0, 300.0]
    assert failures == [700.0]
    assert mgr.stats.retried == 2 and mgr.stats.failed == 1
    assert not mgr.is_outstanding("r1")


def test_late_reply_to_an_earlier_attempt_resolves():
    sim = Simulation()
    mgr = RequestManager(sim, policy=RetryPolicy(timeout_ms=100.0))
    sends = []
    mgr.issue("r1", lambda: sends.append(sim.now))
    sim.schedule(150.0, mgr.resolve, "r1")  # reply after the first retry
    sim.run()
    assert sends == [0.0, 100.0]
    assert mgr.stats.resolved == 1 and mgr.stats.failed == 0


def test_duplicate_key_rejected_and_resolve_unknown_is_harmless():
    sim = Simulation()
    mgr = RequestManager(sim)
    mgr.issue("r1", lambda: None)
    with pytest.raises(SimulationError):
        mgr.issue("r1", lambda: None)
    assert mgr.resolve("never-issued") is False


@pytest.mark.parametrize("already_outstanding", [False, True])
def test_issue_many_conflict_registers_nothing(already_outstanding):
    # regression: a batch whose later item reused a key (outstanding
    # before, or earlier in the same batch) raised but left its earlier
    # items registered, never transmitted and with no timeout armed —
    # outstanding forever, and every re-issue rejected
    sim = Simulation()
    mgr = RequestManager(sim, policy=RetryPolicy(timeout_ms=100.0))
    sends = []
    if already_outstanding:
        mgr.issue("b", lambda: None)
        batch = [("a", lambda: sends.append("a"), None),
                 ("b", lambda: sends.append("b"), None)]
    else:
        batch = [("a", lambda: sends.append("a1"), None),
                 ("a", lambda: sends.append("a2"), None)]
    before = mgr.outstanding, sim.pending()
    with pytest.raises(SimulationError):
        mgr.issue_many(batch)
    assert sends == []
    assert not mgr.is_outstanding("a")
    assert (mgr.outstanding, sim.pending()) == before
    sim.run()
    assert not mgr.is_outstanding("a")
    assert mgr.stats.issued == int(already_outstanding)

    # the key is reusable
    issued_at = sim.now
    mgr.issue_many([("a", lambda: sends.append(sim.now), None)])
    sim.schedule(10.0, mgr.resolve, "a")
    sim.run()
    assert sends == [issued_at]
    assert mgr.stats.resolved == 1


def test_transmit_raise_rolls_back_registration():
    # regression: a transmit() that raised used to leave the key
    # registered with no timeout armed — wedged forever, and every
    # re-issue rejected as "already outstanding"
    sim = Simulation()
    mgr = RequestManager(sim, policy=RetryPolicy(timeout_ms=100.0))

    def broken():
        raise OSError("send buffer full")

    with pytest.raises(OSError):
        mgr.issue("r1", broken)
    assert not mgr.is_outstanding("r1")
    assert mgr.outstanding == 0
    assert sim.pending() == 0  # no orphaned timeout armed
    assert mgr.stats.issued == 0

    # the key is reusable: a later healthy issue proceeds normally
    sends = []
    mgr.issue("r1", lambda: sends.append(sim.now))
    sim.schedule(10.0, mgr.resolve, "r1")
    sim.run()
    assert sends == [0.0]
    assert mgr.stats.resolved == 1


def test_per_request_policy_override():
    sim = Simulation()
    mgr = RequestManager(
        sim, policy=RetryPolicy(timeout_ms=1e6, max_timeout_ms=1e6)
    )
    failures = []
    mgr.issue(
        "fast", lambda: None, on_fail=lambda: failures.append(sim.now),
        policy=RetryPolicy(timeout_ms=10.0, max_retries=0),
    )
    sim.run(until=100.0)
    assert failures == [10.0]


def test_cancel_all_suppresses_on_fail():
    sim = Simulation()
    mgr = RequestManager(sim, policy=RetryPolicy(timeout_ms=10.0))
    failures = []
    for key in ("a", "b"):
        mgr.issue(key, lambda: None, on_fail=lambda: failures.append(key))
    assert mgr.outstanding == 2
    assert mgr.cancel_all() == 2
    sim.run()
    assert failures == []
    assert mgr.stats.cancelled == 2
    # heap drained: cancelled timeouts do not keep the sim alive
    assert sim.pending() == 0


def test_counters_and_trace_events_inside_observe():
    with obs.observe() as tracer:
        events = []
        tracer.subscribe(events.append)
        sim = Simulation()
        mgr = RequestManager(
            sim,
            policy=RetryPolicy(timeout_ms=10.0, max_retries=1),
            component="testproto",
        )
        mgr.issue("r1", lambda: None)
        sim.run()
    assert mgr.stats.retried == 1
    assert mgr.stats.failed == 1
    requests = [e for e in events if e.component == "request"]
    assert [e.kind for e in requests] == ["retry", "fail"]
    assert {e.attrs["component"] for e in requests} == {"testproto"}
    assert tracer.counts["request.retry"] == tracer.counts["request.fail"] == 1
