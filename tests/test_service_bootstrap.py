"""Bootstrapper lifecycle and the control/data socket front end.

The async paths run through ``asyncio.run`` inside synchronous tests
(no pytest-asyncio dependency).
"""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    Bootstrapper,
    ControlServer,
    LoadReport,
    ServiceConfig,
)

SMALL = dict(n_hosts=20, settle_ms=5_000.0, n_seed_keys=4, seed=11)


def test_service_config_validation():
    with pytest.raises(ConfigurationError):
        ServiceConfig(overlay="chord")
    with pytest.raises(ConfigurationError):
        ServiceConfig(n_hosts=2)
    with pytest.raises(ConfigurationError):
        ServiceConfig(settle_ms=0.0)


@pytest.mark.parametrize("field, value", [
    ("ultrapeer_fraction", 1.5), ("ultrapeer_fraction", 0.0),
    ("ultrapeer_fraction", -0.2), ("ultrapeer_fraction", float("nan")),
    ("store_fraction", 1.01), ("store_fraction", -0.1),
    ("store_fraction", float("nan")),
    ("files_per_host", 0), ("search_retention", 0),
])
def test_service_config_rejects_out_of_range(field, value):
    # used to be accepted here and fail deep inside build() (numpy's
    # "Cannot take a larger sample than population" for the fraction)
    with pytest.raises(ConfigurationError, match=field):
        ServiceConfig(overlay="gnutella", **{field: value})


def test_service_config_accepts_range_ends():
    ServiceConfig(overlay="gnutella", ultrapeer_fraction=1.0,
                  store_fraction=0.0, files_per_host=1, search_retention=1)
    ServiceConfig(store_fraction=1.0)


def test_lifecycle_guards():
    boot = Bootstrapper(ServiceConfig(**SMALL))
    with pytest.raises(ConfigurationError):
        boot.drive_sync()  # not started
    with pytest.raises(ConfigurationError):
        boot.drain_sync()
    boot.build()
    with pytest.raises(ConfigurationError):
        boot.build()  # double start
    boot.stop_sync()
    assert boot.state == "stopped"
    assert boot.stop_sync()["state"] == "stopped"  # idempotent
    with pytest.raises(ConfigurationError):
        boot.drive_sync()  # stopped


def test_kademlia_sync_build_and_drive():
    boot = Bootstrapper(ServiceConfig(overlay="kademlia", **SMALL))
    stats = boot.build()
    assert stats["state"] == "ready"
    assert len(boot.ops.keys) == SMALL["n_seed_keys"]
    report = boot.drive_sync(
        process="poisson", rate_per_s=10.0,
        duration_ms=3_000.0, drain_ms=5_000.0,
    )
    assert isinstance(report, LoadReport)
    assert report.issued == report.offered > 0
    assert report.succeeded > 0
    assert report.latency_ms["p50"] > 0
    assert boot.stats()["drives"] == 1
    assert boot.stats()["last_report"]["mode"] == "open"
    drained = boot.drain_sync(drain_ms=1_000.0)
    assert drained["pending_after"] <= drained["pending_before"]


def test_gnutella_closed_loop_drive():
    boot = Bootstrapper(ServiceConfig(overlay="gnutella", **SMALL))
    boot.build()
    report = boot.drive_sync(
        mode="closed", n_workers=3,
        duration_ms=3_000.0, drain_ms=3_000.0, timeout_ms=2_000.0,
    )
    assert report.mode == "closed"
    assert report.issued > 0
    # every op reaches a terminal state: hit, or timed out in-window
    assert report.succeeded + report.failed + report.timed_out == report.issued
    boot.stop_sync()


def test_gnutella_ready_only_after_the_shares_landed():
    # build() used to report ready with the leaves' SHARE messages still
    # on the wire, so the first searches could not find leaf content
    from repro.overlay.gnutella.node import LEAF

    boot = Bootstrapper(ServiceConfig(overlay="gnutella", **SMALL))
    boot.build()
    assert boot.sim.pending() == 0
    leaves = [n for n in boot.network.nodes.values() if n.role == LEAF]
    assert leaves and all(leaf.shared and leaf.neighbors for leaf in leaves)
    for leaf in leaves:
        for up in leaf.neighbors:
            index = boot.network.nodes[up].leaf_index
            assert all(leaf.host_id in index.get(kw, ()) for kw in leaf.shared)


def test_unknown_drive_mode_rejected():
    boot = Bootstrapper(ServiceConfig(**SMALL))
    boot.build()
    with pytest.raises(ConfigurationError):
        boot.drive_sync(mode="ajar")


def test_async_facade_runs_in_executor():
    async def main():
        boot = Bootstrapper(ServiceConfig(**SMALL))
        stats = await boot.start()
        assert stats["state"] == "ready"
        report = await boot.drive(
            process="pareto", rate_per_s=8.0,
            duration_ms=2_000.0, drain_ms=4_000.0,
        )
        assert report.issued > 0
        assert (await boot.drain(drain_ms=500.0))["pending_after"] >= 0
        assert (await boot.stop())["state"] == "stopped"

    asyncio.run(main())


def test_control_and_data_sockets_round_trip():
    async def main():
        boot = Bootstrapper(ServiceConfig(**SMALL))
        server = ControlServer(boot)
        await server.start()
        dr, dw = await asyncio.open_connection(*server.data_address)
        cr, cw = await asyncio.open_connection(*server.control_address)

        async def command(obj):
            cw.write((json.dumps(obj) + "\n").encode())
            await cw.drain()
            return json.loads(await cr.readline())

        assert await command({"cmd": "ping"}) == {"ok": True, "result": "pong"}
        started = await command({"cmd": "start"})
        assert started["ok"] and started["result"]["state"] == "ready"

        reply = await command({
            "cmd": "drive", "process": "poisson", "rate_per_s": 8.0,
            "duration_ms": 2_000.0, "drain_ms": 4_000.0,
        })
        assert reply["ok"]
        assert reply["result"]["issued"] > 0

        # malformed input and unknown commands answer on the wire
        cw.write(b"this is not json\n")
        await cw.drain()
        assert json.loads(await cr.readline())["ok"] is False
        assert (await command({"cmd": "warp"}))["ok"] is False
        # errors from the bootstrapper surface, connection stays usable
        assert (await command({"cmd": "start"}))["ok"] is False

        stats = await command({"cmd": "stats"})
        assert stats["result"]["drives"] == 1
        assert (await command({"cmd": "stop"}))["result"]["state"] == "stopped"

        # the data subscriber saw the whole lifecycle in order
        events = [json.loads(await dr.readline())["event"] for _ in range(3)]
        assert events == ["ready", "report", "stopped"]

        cw.close()
        dw.close()
        await server.stop()

    asyncio.run(main())
