"""Cross-cutting determinism: identical seeds reproduce experiments
bit-for-bit — the property every EXPERIMENTS.md number relies on."""

import numpy as np
import pytest

from repro.experiments import run_fig2, run_fig6, run_table1
from repro.experiments.fig4_ics import run_fig4_embedding


def _rows_equal(a, b):
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.keys() == rb.keys()
        for k in ra:
            va, vb = ra[k], rb[k]
            if isinstance(va, float):
                assert va == vb, (k, va, vb)
            else:
                assert va == vb, (k, va, vb)


def test_fig2_deterministic():
    _rows_equal(run_fig2(), run_fig2())


def test_fig6_deterministic():
    _rows_equal(run_fig6(n_hosts=60, seed=5), run_fig6(n_hosts=60, seed=5))


def test_fig4b_deterministic():
    _rows_equal(
        run_fig4_embedding(n_hosts=30, n_beacons=8, seed=3),
        run_fig4_embedding(n_hosts=30, n_beacons=8, seed=3),
    )


def test_table1_deterministic():
    _rows_equal(run_table1(n_hosts=40, seed=9), run_table1(n_hosts=40, seed=9))


def test_different_seeds_differ():
    a = run_fig6(n_hosts=60, seed=5)
    b = run_fig6(n_hosts=60, seed=6)
    va = a.row_by("arm", "biased")["intra_as_edge_fraction"]
    vb = b.row_by("arm", "biased")["intra_as_edge_fraction"]
    assert va != vb


@pytest.mark.scale
def test_scale_smoke_100k_endpoints_crash_recover_reregisters():
    """10^5-endpoint crash/recover smoke: five rotating crashes of 2,000
    peers each, every one recovered with no callbacks, leave every
    endpoint registered again and the heap drained, and the run stays
    inside a bounded memory envelope (deselect with ``-m 'not scale'``
    on memory-limited CI runners)."""
    import resource

    from repro.faults import CrashFault, FaultInjector, FaultSchedule
    from repro.sim import MessageBus, Simulation

    class ZeroLatency:
        def one_way_delay(self, src, dst):
            return 0.0

    n = 100_000
    sim = Simulation()
    bus = MessageBus(sim, ZeroLatency())
    for peer in range(n):
        bus.register(peer, lambda m: None)
    rng = np.random.default_rng(17)
    schedule = FaultSchedule(tuple(
        CrashFault(
            at=10.0 * cycle + 1.0,
            peers=tuple(int(v) for v in rng.choice(n, size=2000, replace=False)),
            recover_at=10.0 * cycle + 5.0,
        )
        for cycle in range(5)
    ))
    injector = FaultInjector(sim, bus, schedule)
    injector.start()
    sim.run()
    assert injector.stats.crashes == injector.stats.recoveries == 10_000
    assert all(bus.is_registered(peer) for peer in range(n))
    assert sim.pending() == 0
    # the whole process (bus handlers + interpreter) stays well under 2 GiB
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 2 * 2**20, f"peak RSS {peak_kb / 2**20:.2f} GiB"
