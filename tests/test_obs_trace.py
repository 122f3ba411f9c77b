"""Unit tests for the trace plane (:mod:`repro.obs`)."""

from repro import obs


def test_observe_scope_activates_and_deactivates():
    assert obs.active_tracer() is None
    with obs.observe() as tracer:
        assert obs.active_tracer() is tracer
        with obs.observe() as inner:  # nesting: innermost wins
            assert obs.active_tracer() is inner
            assert inner is not tracer
        assert obs.active_tracer() is tracer
    assert obs.active_tracer() is None


def test_tracer_tallies_digests_and_fans_out():
    tracer = obs.Tracer()
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit("bus", "send", time=1.0, kind="PING", _elapsed_s=0.1)
    tracer.emit("bus", "send", time=2.0, kind="PONG")
    tracer.emit("sim", "fire", time=2.0)
    assert tracer.emitted == 3
    assert tracer.counts == {"bus.send": 2, "sim.fire": 1}
    assert [(e.component, e.kind, e.attrs.get("kind")) for e in seen] == [
        ("bus", "send", "PING"), ("bus", "send", "PONG"), ("sim", "fire", None)
    ]

    # volatile ``_`` attributes stay out of the digest; everything else
    # is in it
    same = obs.Tracer()
    same.emit("bus", "send", time=1.0, kind="PING", _elapsed_s=9.9)
    same.emit("bus", "send", time=2.0, kind="PONG")
    same.emit("sim", "fire", time=2.0)
    assert same.digest() == tracer.digest()
    other = obs.Tracer()
    other.emit("bus", "send", time=1.0, kind="PONG")
    assert other.digest() != obs.Tracer().digest()
    assert other.digest() != same.digest()
