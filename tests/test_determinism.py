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
def test_scale_smoke_100k_hosts_churn_ledger_balances():
    """10^5-peer churn smoke: an overlay that adds a peer when it joins
    and drops it when it leaves or crashes ends up with exactly the
    population churn's own ledger says, across crash/revive cycles, and
    the run stays inside a bounded memory envelope (deselect with ``-m
    'not scale'`` on memory-limited CI runners)."""
    import resource

    from repro.sim import ChurnConfig, ChurnProcess, Simulation

    n = 100_000
    members: set[int] = set()
    sim = Simulation()
    churn = ChurnProcess(
        sim, list(range(n)), ChurnConfig(mean_session=1e7, mean_offline=1e7),
        members.add, members.discard, rng=17,
    )
    churn.start(warmup=600.0)
    sim.run(until=700.0)
    # a few peers may draw (rare) short sessions; membership must track
    # the join/leave ledger exactly either way
    assert members == churn.online
    assert len(members) == churn.joins - churn.leaves > 0.99 * n

    # crash/revive cycles over a rotating subset (a crash fires no
    # callback, so the overlay drops the victim itself)
    rng = np.random.default_rng(17)
    for cycle in range(5):
        victims = [int(v) for v in rng.choice(n, size=2000, replace=False)]
        for v in victims:
            members.discard(v)
            churn.crash(v)
        for v in victims:
            churn.revive(v, delay=1.0)
        sim.run(until=sim.now + 10.0)
        # every join put a peer online, every leave/crash took one offline
        assert members == churn.online
        assert len(members) == churn.joins - churn.leaves - churn.crashes
    assert churn.crashes >= 5 * 1900 and len(members) > 0.99 * n

    churn.stop()
    assert sim.pending() == 0
    # the whole process (sim heap + interpreter) stays well under 2 GiB
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 2 * 2**20, f"peak RSS {peak_kb / 2**20:.2f} GiB"
