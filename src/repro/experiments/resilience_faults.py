"""RESILIENCE — lookup success and stretch under injected faults (§5.4).

The survey leaves "robustness especially against churn [and failures]"
as the open evaluation question for underlay-aware overlays.  This
experiment answers it operationally: the same Kademlia workload runs
once per fault scenario — message loss bursts of increasing severity, an
AS partition that cuts the largest ISP cluster off, and peer crashes
with later recovery — for an underlay-unaware arm and an underlay-aware
arm (proximity neighbor selection + proximity routing).  Faults are
injected by :class:`~repro.faults.injector.FaultInjector` interposing on
the message bus; the protocols recover only through the generic
:class:`~repro.sim.requests.RequestManager` retry path.

Reported per (scenario, arm): lookup success rate, mean latency of the
successful lookups, their stretch over the direct underlay RTT to the
content owner (:func:`~repro.metrics.resilience.stretch_summary`), the
retry/failure counts the request layer paid, and what the injector
actually dropped.

Expected shape: with no faults both arms succeed and the aware arm has
lower latency/stretch; under loss both degrade but retries keep success
high; under the AS partition the aware arm — whose routing tables are
biased toward intra-AS contacts — keeps more lookups local and loses
less than the unaware arm.
"""

from __future__ import annotations

from collections import Counter as TallyCounter

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.faults import (
    CrashFault,
    FaultInjector,
    FaultSchedule,
    LossFault,
    PartitionFault,
)
from repro.metrics.resilience import stretch_summary
from repro.overlay.kademlia import KademliaConfig, KademliaNetwork
from repro.rng import ensure_rng
from repro.runner import run_arms
from repro.sim.engine import Simulation
from repro.underlay.network import Underlay, UnderlayConfig
from repro.underlay.topology import TopologyConfig

#: The two overlay arms: identical protocol, different neighbor knowledge.
ARMS: tuple[tuple[str, KademliaConfig], ...] = (
    ("unaware", KademliaConfig()),
    ("aware", KademliaConfig(proximity_buckets=True, proximity_routing=True)),
)

FULL_SCENARIOS = ("baseline", "loss_0.15", "loss_0.35", "partition", "crash")
SMOKE_SCENARIOS = ("baseline", "loss_0.35", "partition")


def _largest_as(underlay: Underlay) -> int:
    """The ASN hosting the most peers — the ISP cluster worth cutting."""
    counts = TallyCounter(h.asn for h in underlay.hosts)
    return max(sorted(counts), key=counts.__getitem__)


def _scenario_schedule(
    name: str,
    t0: float,
    window_ms: float,
    underlay: Underlay,
    rng: np.random.Generator,
) -> FaultSchedule:
    """Build one named scenario's schedule, anchored at sim time ``t0``."""
    if name == "baseline":
        return FaultSchedule()
    if name.startswith("loss_"):
        rate = float(name.split("_", 1)[1])
        return FaultSchedule(
            (LossFault(start=t0, end=t0 + window_ms, rate=rate),)
        )
    if name == "partition":
        # Cut the largest ISP cluster off for 60% of the window; retries
        # outliving the partition get to witness the healing.
        return FaultSchedule((
            PartitionFault(
                start=t0,
                end=t0 + 0.6 * window_ms,
                groups=(frozenset({_largest_as(underlay)}),),
            ),
        ))
    if name == "crash":
        ids = sorted(h.host_id for h in underlay.hosts)
        k = max(2, len(ids) // 5)
        chosen = rng.choice(len(ids), size=k, replace=False)
        peers = tuple(ids[int(i)] for i in sorted(chosen))
        return FaultSchedule((
            CrashFault(
                at=t0 + 1_000.0, peers=peers, recover_at=t0 + 0.5 * window_ms
            ),
        ))
    raise ValueError(f"unknown fault scenario {name!r}")


def _run_arm(
    underlay: Underlay,
    config: KademliaConfig,
    scenario: str,
    run_seed: int,
    *,
    n_publishes: int,
    n_lookups: int,
    settle_ms: float,
    window_ms: float,
    drain_ms: float,
) -> dict[str, float]:
    """One (scenario, arm) cell: bootstrap, publish, inject, measure."""
    sim = Simulation()
    bus, _ = underlay.message_bus(sim, with_accounting=False)
    rng = ensure_rng(run_seed)
    net = KademliaNetwork(underlay, sim, bus, config=config, rng=rng)
    net.add_all_hosts()
    net.bootstrap_all()
    sim.run(until=settle_ms)

    ids = sorted(net.nodes)
    keys = [
        net.publish(ids[int(rng.integers(len(ids)))], f"content-{i}")
        for i in range(n_publishes)
    ]
    sim.run(until=sim.now + settle_ms)

    t0 = sim.now
    schedule = _scenario_schedule(scenario, t0, window_ms, underlay, rng)
    injector = FaultInjector(
        sim,
        bus,
        schedule,
        asn_of=underlay.asn_of,
        on_crash=lambda hid: net.nodes[hid].go_offline(),
        on_recover=lambda hid: net.nodes[hid].go_online(),
        seed=run_seed + 7,
    )
    injector.start()

    pending = []
    for _ in range(n_lookups):
        origin = ids[int(rng.integers(len(ids)))]
        key = keys[int(rng.integers(len(keys)))]
        results: list = []
        net.lookup_value(origin, key, results)
        pending.append((origin, results))
    sim.run(until=t0 + window_ms + drain_ms)

    achieved, baseline = [], []
    successes = 0
    for origin, results in pending:
        if not results or not results[0].found_value:
            continue
        successes += 1
        r = results[0]
        achieved.append(r.latency_ms)
        baseline.append(
            min(2.0 * underlay.one_way_delay(origin, v) for v in r.values)
        )
    stretch = stretch_summary(achieved, baseline)
    return {
        "success_rate": successes / n_lookups,
        "mean_latency_ms": float(np.mean(achieved)) if achieved else float("nan"),
        "mean_stretch": stretch["mean_stretch"],
        "requests_retried": sum(
            n.requests.stats.retried for n in net.nodes.values()
        ),
        "requests_failed": sum(
            n.requests.stats.failed for n in net.nodes.values()
        ),
        "messages_dropped": injector.stats.messages_dropped,
        "peers_crashed": injector.stats.crashes,
    }


def run_resilience_faults(
    n_hosts: int = 48,
    seed: int = 23,
    *,
    smoke: bool = False,
    n_publishes: int = 8,
    n_lookups: int = 24,
    settle_ms: float = 30_000.0,
    window_ms: float = 45_000.0,
    drain_ms: float = 60_000.0,
    workers: int | None = None,
) -> ExperimentResult:
    """Sweep fault scenarios for underlay-aware vs unaware Kademlia.

    ``smoke=True`` shrinks the population, workload, and scenario list to
    a seconds-scale CI check with the identical code path.  The
    (scenario × arm) cells — each an independent simulation over the
    shared read-only underlay — fan out through
    :func:`repro.runner.run_arms`; rows are identical at any worker
    count because each cell derives its RNG from its grid position.
    """
    scenarios = FULL_SCENARIOS
    if smoke:
        n_hosts = min(n_hosts, 24)
        n_publishes = min(n_publishes, 4)
        n_lookups = min(n_lookups, 8)
        settle_ms = min(settle_ms, 20_000.0)
        window_ms = min(window_ms, 30_000.0)
        drain_ms = min(drain_ms, 45_000.0)
        scenarios = SMOKE_SCENARIOS
    underlay = Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=2, n_tier2=4, n_stub=8, n_regions=3),
            n_hosts=n_hosts,
            seed=seed,
        )
    )
    result = ExperimentResult(
        "RESILIENCE",
        "Lookup success & stretch under injected faults, aware vs unaware",
    )
    grid = [
        (si, scenario, ai, arm, config)
        for si, scenario in enumerate(scenarios)
        for ai, (arm, config) in enumerate(ARMS)
    ]

    def run_cell(cell_spec: tuple) -> dict[str, float]:
        # the shared underlay is read-only substrate: forked workers
        # inherit it, so no worker regenerates it
        si, scenario, ai, _arm, config = cell_spec
        return _run_arm(
            underlay,
            config,
            scenario,
            seed + 101 * si + 13 * ai,
            n_publishes=n_publishes,
            n_lookups=n_lookups,
            settle_ms=settle_ms,
            window_ms=window_ms,
            drain_ms=drain_ms,
        )

    for (_si, scenario, _ai, arm, _config), cell in zip(
        grid, run_arms(run_cell, grid, workers=workers)
    ):
        result.add_row(scenario=scenario, arm=arm, **cell)
    result.notes.append(
        "stretch baseline is the direct RTT to the content owner; values "
        "below 1 mean a replica closer than the owner served the lookup"
    )
    result.notes.append(
        "expected shape: baseline succeeds on both arms with the aware arm "
        "faster; loss bursts cost retries but retries keep success up; the "
        "AS partition hurts the unaware arm at least as much as the aware "
        "one, whose tables lean on intra-AS contacts"
    )
    return result
