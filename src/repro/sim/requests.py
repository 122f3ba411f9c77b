"""Request/reply reliability: timeouts, capped exponential backoff, retries.

Every RPC-style exchange in the overlays (Kademlia FIND_NODE/FIND_VALUE,
the Gnutella connect handshake) is a request that expects a reply over an
unreliable :class:`~repro.sim.messages.MessageBus`.  Without retries a
single dropped reply wedges the caller forever — exactly the failure mode
fault injection exists to expose.  :class:`RequestManager` centralises the
recovery policy so protocols only say *how to (re)transmit* and *what to
do on final failure*:

    manager = RequestManager(sim, policy=RetryPolicy(timeout_ms=1500.0))
    manager.issue(rpc_id, transmit, on_fail=give_up)   # transmit() sends
    ...
    manager.resolve(rpc_id)                            # reply arrived

Retries re-invoke the transmit callable with the timeout doubled each
attempt (``backoff_factor``), capped at ``max_timeout_ms``; after
``max_retries`` retransmissions the request fails and ``on_fail`` runs.
Inside an ``obs.observe()`` scope the manager emits ``request`` trace
events; :class:`RequestStats` counts every outcome either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.errors import SimulationError
from repro.obs import active_tracer
from repro.obs.tracing import Tracer
from repro.sim.engine import EventHandle, Simulation


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout and retransmission knobs for one class of requests.

    ``timeout_ms`` is the first attempt's deadline; each retry multiplies
    it by ``backoff_factor`` up to ``max_timeout_ms``.  ``max_retries`` is
    the number of *retransmissions* (0 = single attempt, fail on first
    timeout, which reproduces bare-timeout behaviour).
    """

    timeout_ms: float = 1500.0
    max_retries: int = 2
    backoff_factor: float = 2.0
    max_timeout_ms: float = 12_000.0

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise SimulationError("timeout_ms must be positive")
        if self.max_retries < 0:
            raise SimulationError("max_retries must be non-negative")
        if self.backoff_factor < 1.0:
            raise SimulationError("backoff_factor must be >= 1")
        if self.max_timeout_ms < self.timeout_ms:
            raise SimulationError("max_timeout_ms must be >= timeout_ms")

    def timeout_for_attempt(self, attempt: int) -> float:
        """Deadline for the given attempt number (0 = first transmission)."""
        return min(
            self.timeout_ms * self.backoff_factor**attempt, self.max_timeout_ms
        )


@dataclass
class RequestStats:
    """Aggregate counters maintained by one manager."""

    issued: int = 0
    resolved: int = 0
    retried: int = 0
    failed: int = 0
    cancelled: int = 0


class _Outstanding:
    __slots__ = ("transmit", "on_fail", "policy", "attempt", "handle")

    def __init__(
        self,
        transmit: Callable[[], None],
        on_fail: Optional[Callable[[], None]],
        policy: RetryPolicy,
    ) -> None:
        self.transmit = transmit
        self.on_fail = on_fail
        self.policy = policy
        self.attempt = 0
        self.handle: Optional[EventHandle] = None


class RequestManager:
    """Tracks outstanding requests for one protocol endpoint (or network).

    Keys are caller-chosen hashables (rpc ids, ``("connect", peer)``
    tuples); issuing a key that is already outstanding is an error —
    stop-and-wait callers should check :meth:`is_outstanding` first.
    """

    def __init__(
        self,
        sim: Simulation,
        *,
        policy: RetryPolicy | None = None,
        component: str = "rpc",
    ) -> None:
        self.sim = sim
        self.policy = policy or RetryPolicy()
        self.component = component
        self._outstanding: dict[Hashable, _Outstanding] = {}
        self.stats = RequestStats()
        self._tracer: Optional[Tracer] = active_tracer()

    # -- lifecycle -----------------------------------------------------------
    def issue(
        self,
        key: Hashable,
        transmit: Callable[[], None],
        *,
        on_fail: Optional[Callable[[], None]] = None,
        policy: RetryPolicy | None = None,
    ) -> None:
        """Transmit a request and arm its timeout.

        ``transmit`` performs the actual send and is re-invoked verbatim on
        every retry (same key, so a late reply to an earlier attempt still
        resolves it).  ``on_fail`` runs once if all attempts time out.

        If ``transmit`` raises, the registration is rolled back before the
        exception propagates: the key is not outstanding, no timeout is
        armed, and the caller may re-issue it later.  (Leaving the entry
        behind would wedge the key forever — no timeout would ever clear
        it, and every re-issue would raise "already outstanding".)
        """
        if key in self._outstanding:
            raise SimulationError(f"request {key!r} is already outstanding")
        entry = _Outstanding(transmit, on_fail, policy or self.policy)
        self._outstanding[key] = entry
        try:
            transmit()
            entry.handle = self.sim.schedule(
                entry.policy.timeout_for_attempt(0), self._on_timeout, key
            )
        except BaseException:
            # transmit() may have synchronously resolved/cancelled the key
            # (popping it) before raising; only roll back our own entry.
            if self._outstanding.get(key) is entry:
                del self._outstanding[key]
                if entry.handle is not None:
                    entry.handle.cancel()
            raise
        self.stats.issued += 1

    def issue_many(
        self,
        items: "list[tuple[Hashable, Callable[[], None], Optional[Callable[[], None]]]]",
        *,
        policy: RetryPolicy | None = None,
    ) -> None:
        """Issue one batch of ``(key, transmit, on_fail)`` requests.

        Semantically the round-batched form of calling :meth:`issue` per
        item: every transmit runs in item order (so bus sends — and any
        loss draws they trigger — happen in exactly the per-item
        sequence), then all first-attempt timeouts are armed with a
        single :meth:`~repro.sim.engine.Simulation.schedule_many` heap
        insert instead of one ``heappush`` per request.  This is what an
        iterative-lookup round issuing its α RPCs wants.

        A key already outstanding, or repeated within the batch, raises
        before anything is transmitted and leaves no item of the batch
        registered.  If a transmit raises, requests already transmitted
        keep their timeouts armed (they are in flight and must be able
        to retry or fail), the not-yet-transmitted tail is rolled back,
        and the exception propagates.
        """
        pol = policy or self.policy
        entries: list[tuple[Hashable, _Outstanding]] = []
        for key, transmit, on_fail in items:
            if key in self._outstanding:
                # nothing is transmitted yet: the batch's own entries
                # would never be sent or timed out, so none may stay
                for registered, _entry in entries:
                    del self._outstanding[registered]
                raise SimulationError(f"request {key!r} is already outstanding")
            entry = _Outstanding(transmit, on_fail, pol)
            self._outstanding[key] = entry
            entries.append((key, entry))
        sent = 0
        try:
            for _key, entry in entries:
                entry.transmit()
                sent += 1
        except BaseException:
            for key, entry in entries[sent:]:
                # transmit may have synchronously resolved/cancelled the
                # key before raising; only roll back our own entry
                if self._outstanding.get(key) is entry:
                    del self._outstanding[key]
            self._arm_batch(entries[:sent])
            self.stats.issued += sent
            raise
        self._arm_batch(entries)
        self.stats.issued += sent

    def _arm_batch(
        self, entries: "list[tuple[Hashable, _Outstanding]]"
    ) -> None:
        """Arm first-attempt timeouts for a batch with one heap insert."""
        live = [
            (key, entry)
            for key, entry in entries
            if self._outstanding.get(key) is entry
        ]
        if not live:
            return
        handles = self.sim.schedule_many(
            (entry.policy.timeout_for_attempt(0), self._on_timeout, (key,))
            for key, entry in live
        )
        for (_key, entry), handle in zip(live, handles):
            entry.handle = handle

    def is_outstanding(self, key: Hashable) -> bool:
        return key in self._outstanding

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    def resolve(self, key: Hashable) -> bool:
        """A reply arrived: disarm the timeout.  Returns ``False`` for an
        unknown key (late duplicate reply after failure) — harmless."""
        entry = self._outstanding.pop(key, None)
        if entry is None:
            return False
        if entry.handle is not None:
            entry.handle.cancel()
        self.stats.resolved += 1
        return True

    def cancel(self, key: Hashable) -> bool:
        """Forget a request without invoking ``on_fail``."""
        entry = self._outstanding.pop(key, None)
        if entry is None:
            return False
        if entry.handle is not None:
            entry.handle.cancel()
        self.stats.cancelled += 1
        return True

    def cancel_all(self) -> int:
        """Drop every outstanding request (e.g. the node went offline)."""
        n = 0
        for key in list(self._outstanding):
            n += int(self.cancel(key))
        return n

    # -- timeout path ----------------------------------------------------------
    def _on_timeout(self, key: Hashable) -> None:
        entry = self._outstanding.get(key)
        if entry is None:
            return
        if entry.attempt < entry.policy.max_retries:
            entry.attempt += 1
            self.stats.retried += 1
            if self._tracer is not None:
                self._tracer.emit(
                    "request", "retry", time=self.sim.now,
                    component=self.component, attempt=entry.attempt,
                )
            entry.transmit()
            entry.handle = self.sim.schedule(
                entry.policy.timeout_for_attempt(entry.attempt),
                self._on_timeout,
                key,
            )
            return
        del self._outstanding[key]
        self.stats.failed += 1
        if self._tracer is not None:
            self._tracer.emit(
                "request", "fail", time=self.sim.now,
                component=self.component, attempts=entry.attempt + 1,
            )
        if entry.on_fail is not None:
            entry.on_fail()
