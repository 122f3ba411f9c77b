"""Bootstrapper lifecycle: build, drive, drain, stop."""

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    Bootstrapper,
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
    # and the rejected drive changes nothing: a bad mode used to be
    # counted before it was checked, so stats() said one more drive and
    # every later drive ran on a seed shifted by 1000
    drive = dict(process="poisson", rate_per_s=10.0,
                 duration_ms=2_000.0, drain_ms=3_000.0)
    boot = Bootstrapper(ServiceConfig(**SMALL))
    boot.build()
    before = boot.stats()
    with pytest.raises(ConfigurationError):
        boot.drive_sync(mode="ajar", **drive)
    with pytest.raises(ConfigurationError):
        boot.drive_sync(**{**drive, "process": "lumpy"})
    assert boot.stats() == before
    fresh = Bootstrapper(ServiceConfig(**SMALL))
    fresh.build()
    assert boot.drive_sync(**drive).as_dict() == fresh.drive_sync(**drive).as_dict()
    assert boot.stats()["drives"] == 1
