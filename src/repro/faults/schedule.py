"""Fault schedules: what fails, where, and when.

A :class:`FaultSchedule` is a validated, immutable list of timed faults —
the §5.4 failure model the survey's evaluation question needs.  Four
fault families cover the failure modes studied in the locality/robustness
literature (local-cluster partitions in Cuevas et al., lossy search in
Biernacki's OPNET study):

- :class:`LossFault` — extra drop probability over a time window, scoped
  to one link, one AS, or the whole network (a loss burst);
- :class:`DelayFault` — extra one-way delay over a window, same scopes;
- :class:`PartitionFault` — drop *all* traffic crossing a partition of
  the AS set (ASes not listed form an implicit "rest of the world" side);
- :class:`CrashFault` — instant peer failures at a point in time, with an
  optional recovery time.  There is no graceful leave: a crash and its
  recovery are the only way a peer leaves and returns, so churn is a
  schedule of ``CrashFault(at, peers, recover_at)`` session windows.

Schedules are built programmatically::

    FaultSchedule((
        LossFault(start=10e3, end=40e3, rate=0.3),
        LossFault(start=0, end=60e3, rate=1.0, src=3, dst=7),
        DelayFault(start=5e3, end=9e3, extra_ms=80, asn=2),
        PartitionFault(start=20e3, end=30e3, groups=((1, 2),)),
        CrashFault(at=15e3, peers=(4, 9), recover_at=45e3),
    ))

The schedule itself is pure data; :class:`~repro.faults.injector.FaultInjector`
turns it into simulation events and message filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.errors import FaultError

def _check_window(start: float, end: float) -> None:
    if start < 0 or end <= start:
        raise FaultError(f"bad fault window [{start}, {end})")


@dataclass(frozen=True)
class _ScopedFault:
    """A windowed fault scoped to a link, an AS, or the whole network.

    Exactly one scope applies: ``src``/``dst`` (both set) selects one
    directed link (``bidirectional`` widens it to both directions); ``asn``
    selects every message with an endpoint in that AS; neither means the
    fault is global.
    """

    start: float
    end: float
    src: Optional[int] = None
    dst: Optional[int] = None
    asn: Optional[int] = None
    bidirectional: bool = True

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if (self.src is None) != (self.dst is None):
            raise FaultError("link scope needs both src and dst")
        if self.src is not None and self.asn is not None:
            raise FaultError("scope is either a link or an AS, not both")

    @property
    def is_as_scoped(self) -> bool:
        return self.asn is not None

    def matches(
        self, src: int, dst: int, src_asn: Optional[int], dst_asn: Optional[int]
    ) -> bool:
        """Does a ``src -> dst`` message fall inside this fault's scope?"""
        if self.src is not None:
            if src == self.src and dst == self.dst:
                return True
            return self.bidirectional and src == self.dst and dst == self.src
        if self.asn is not None:
            return self.asn in (src_asn, dst_asn)
        return True


@dataclass(frozen=True)
class LossFault(_ScopedFault):
    """Drop each in-scope message with probability ``rate`` during the
    window.  ``rate=1.0`` is a hard link/AS failure."""

    rate: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.rate <= 1.0):
            raise FaultError(f"loss rate must be in (0, 1], got {self.rate}")


@dataclass(frozen=True)
class DelayFault(_ScopedFault):
    """Add ``extra_ms`` one-way delay to in-scope messages during the
    window (congestion, rerouting after an underlay link failure)."""

    extra_ms: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_ms <= 0:
            raise FaultError(f"extra delay must be positive, got {self.extra_ms}")


@dataclass(frozen=True)
class PartitionFault:
    """Drop all traffic crossing a partition of the AS set.

    ``groups`` are disjoint sets of ASNs; every AS not listed belongs to
    an implicit extra side.  A message is dropped iff its endpoints' ASes
    sit on different sides, so ``groups=((1, 2),)`` cuts ASes 1-2 off
    from the rest of the world.
    """

    start: float
    end: float
    groups: tuple[frozenset[int], ...] = ()

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        groups = tuple(frozenset(int(a) for a in g) for g in self.groups)
        if not groups or any(not g for g in groups):
            raise FaultError("partition needs at least one non-empty AS group")
        seen: set[int] = set()
        for g in groups:
            if seen & g:
                raise FaultError(f"AS groups overlap: {sorted(seen & g)}")
            seen |= g
        object.__setattr__(self, "groups", groups)

    def side_of(self, asn: int) -> int:
        """Partition side of one AS (-1 = the implicit rest-group)."""
        for i, g in enumerate(self.groups):
            if asn in g:
                return i
        return -1

    def separates(self, src_asn: int, dst_asn: int) -> bool:
        return self.side_of(src_asn) != self.side_of(dst_asn)


@dataclass(frozen=True)
class CrashFault:
    """Instant failure of ``peers`` at time ``at``; with ``recover_at``
    the peers come back (the injector re-attaches any bus handler it
    detached, then its recovery callback fires)."""

    at: float
    peers: tuple[int, ...] = ()
    recover_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultError(f"crash time must be non-negative, got {self.at}")
        if not self.peers:
            raise FaultError("crash fault needs at least one peer")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise FaultError("recover_at must come after the crash")
        # peer ids are any hashable; only the dict spec coerces to int
        object.__setattr__(self, "peers", tuple(self.peers))


#: Any fault a schedule can carry.
Fault = Any  # LossFault | DelayFault | PartitionFault | CrashFault


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable collection of faults, ready for injection."""

    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        allowed = (LossFault, DelayFault, PartitionFault, CrashFault)
        faults = tuple(self.faults)
        for f in faults:
            if not isinstance(f, allowed):
                raise FaultError(f"not a fault: {f!r}")
        object.__setattr__(self, "faults", faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    @property
    def message_faults(self) -> tuple[Fault, ...]:
        """Faults that interpose on the message bus."""
        return tuple(
            f for f in self.faults
            if isinstance(f, (LossFault, DelayFault, PartitionFault))
        )

    @property
    def crash_faults(self) -> tuple[CrashFault, ...]:
        return tuple(f for f in self.faults if isinstance(f, CrashFault))

    @property
    def needs_asn(self) -> bool:
        """Does any fault require resolving endpoints to ASes?"""
        return any(
            isinstance(f, PartitionFault)
            or (isinstance(f, _ScopedFault) and f.is_as_scoped)
            for f in self.faults
        )
