"""Fault schedule construction and validation."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    CrashFault,
    DelayFault,
    FaultSchedule,
    LossFault,
    PartitionFault,
)


def test_window_validation():
    with pytest.raises(FaultError):
        LossFault(start=-1.0, end=10.0, rate=0.5)
    with pytest.raises(FaultError):
        LossFault(start=10.0, end=10.0, rate=0.5)
    with pytest.raises(FaultError):
        DelayFault(start=5.0, end=4.0, extra_ms=10.0)


def test_loss_rate_bounds():
    with pytest.raises(FaultError):
        LossFault(start=0, end=1, rate=0.0)
    with pytest.raises(FaultError):
        LossFault(start=0, end=1, rate=1.5)
    assert LossFault(start=0, end=1, rate=1.0).rate == 1.0


def test_delay_must_be_positive():
    with pytest.raises(FaultError):
        DelayFault(start=0, end=1, extra_ms=0.0)


def test_scope_is_link_or_as_not_both():
    with pytest.raises(FaultError):
        LossFault(start=0, end=1, rate=0.5, src=1)  # dst missing
    with pytest.raises(FaultError):
        LossFault(start=0, end=1, rate=0.5, src=1, dst=2, asn=3)


def test_link_scope_matching_and_direction():
    bidi = LossFault(start=0, end=1, rate=0.5, src=1, dst=2)
    assert bidi.matches(1, 2, None, None)
    assert bidi.matches(2, 1, None, None)
    assert not bidi.matches(1, 3, None, None)
    one_way = LossFault(start=0, end=1, rate=0.5, src=1, dst=2,
                        bidirectional=False)
    assert one_way.matches(1, 2, None, None)
    assert not one_way.matches(2, 1, None, None)


def test_as_scope_matches_either_endpoint():
    f = DelayFault(start=0, end=1, extra_ms=5.0, asn=7)
    assert f.matches(1, 2, 7, 3)
    assert f.matches(1, 2, 3, 7)
    assert not f.matches(1, 2, 3, 4)
    assert f.is_as_scoped


def test_global_scope_matches_everything():
    f = LossFault(start=0, end=1, rate=0.5)
    assert f.matches(1, 2, None, None)


def test_partition_sides_and_separation():
    p = PartitionFault(start=0, end=1, groups=(frozenset({1, 2}),))
    assert p.side_of(1) == p.side_of(2) == 0
    assert p.side_of(9) == -1  # implicit rest-of-the-world side
    assert p.separates(1, 9)
    assert not p.separates(1, 2)
    assert not p.separates(8, 9)


def test_partition_validation():
    with pytest.raises(FaultError):
        PartitionFault(start=0, end=1, groups=())
    with pytest.raises(FaultError):
        PartitionFault(start=0, end=1, groups=(frozenset(),))
    with pytest.raises(FaultError):
        PartitionFault(
            start=0, end=1, groups=(frozenset({1, 2}), frozenset({2, 3}))
        )


def test_crash_validation():
    with pytest.raises(FaultError):
        CrashFault(at=-1.0, peers=(1,))
    with pytest.raises(FaultError):
        CrashFault(at=0.0, peers=())
    with pytest.raises(FaultError):
        CrashFault(at=10.0, peers=(1,), recover_at=10.0)


def test_schedule_rejects_non_faults():
    with pytest.raises(FaultError):
        FaultSchedule(("not a fault",))


def test_schedule_partitions_faults_by_role():
    sched = FaultSchedule((
        LossFault(start=10e3, end=40e3, rate=0.3),
        LossFault(start=0, end=60e3, rate=1.0, src=3, dst=7),
        DelayFault(start=5e3, end=9e3, extra_ms=80, asn=2),
        PartitionFault(start=20e3, end=30e3, groups=((1, 2),)),
        CrashFault(at=15e3, peers=(4, 9), recover_at=45e3),
    ))
    assert len(sched) == 5
    assert len(sched.message_faults) == 4
    assert len(sched.crash_faults) == 1
    assert sched.needs_asn  # AS-scoped delay + partition present
    assert not FaultSchedule(
        (LossFault(start=0, end=1, rate=0.5),)
    ).needs_asn
