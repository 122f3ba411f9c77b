"""Discrete-event simulation engine.

A minimal, deterministic event loop: events are plain-list heap entries
``[time, seq, callback, args, cancelled, fired]`` kept in a binary heap.
Ties in time are broken by insertion order (the monotonically increasing
``seq``), which makes runs bit-for-bit reproducible.  All protocol
modules in :mod:`repro.overlay` run on top of this engine.

The hot path is deliberately allocation-light: a heap entry is one list
(no per-event object construction), :meth:`Simulation.run` inlines the
pop/fire loop with the tracer check hoisted out into two specialised
loop bodies, and :meth:`Simulation.schedule_many` batch-inserts fan-out
events (one ``heapify`` instead of many ``heappush`` when the batch is
large relative to the pending queue).

Observability: a simulation built inside an ``obs.observe()`` scope
emits ``schedule``/``fire``/``cancel`` trace events, with per-callback
wall-clock timing on ``fire`` in the volatile ``_elapsed_s`` attribute.
Without a tracer the only cost is one ``is None`` check per schedule
and none at all inside the :meth:`Simulation.run` loop.

Example
-------
>>> sim = Simulation()
>>> fired = []
>>> _ = sim.schedule(1.5, fired.append, "a")
>>> _ = sim.schedule(0.5, fired.append, "b")
>>> sim.run()
>>> fired
['b', 'a']
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError
from repro.obs import active_tracer
from repro.obs.tracing import Tracer

# Heap-entry layout.  A plain list compares element-wise, so the heap
# orders by (time, seq) and never reaches the non-comparable callback:
# ``seq`` is unique.  Mutating CANCELLED/FIRED in place keeps
# EventHandle.cancel() O(1) (lazy removal on pop).
_TIME, _SEQ, _CALLBACK, _ARGS, _CANCELLED, _FIRED = range(6)

#: A scheduled-but-not-fired heap entry.
_Entry = list


def _callback_name(callback: Callable[..., None]) -> str:
    """Deterministic label for a callback (qualified name, never a repr —
    reprs carry memory addresses and would poison trace digests)."""
    name = getattr(callback, "__qualname__", None)
    return name if isinstance(name, str) else type(callback).__name__


class EventHandle:
    """Opaque handle returned by :meth:`Simulation.schedule`.

    Supports cancellation; a cancelled event is skipped (lazily removed from
    the heap) without disturbing other events.  Cancelling an event that
    already fired is a harmless no-op and does not mark it cancelled.
    """

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: _Entry, sim: "Optional[Simulation]" = None) -> None:
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> float:
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_CANCELLED]

    @property
    def fired(self) -> bool:
        return self._entry[_FIRED]

    def cancel(self) -> bool:
        """Cancel the event if it has not fired yet.

        Returns ``True`` if this call actually cancelled it, ``False``
        for an event that already fired or was already cancelled.
        """
        entry = self._entry
        if entry[_FIRED] or entry[_CANCELLED]:
            return False
        entry[_CANCELLED] = True
        sim = self._sim
        if sim is not None and sim._tracer is not None:
            sim._tracer.emit(
                "sim",
                "cancel",
                time=sim._now,
                at=entry[_TIME],
                seq=entry[_SEQ],
                callback=_callback_name(entry[_CALLBACK]),
            )
        return True


class Simulation:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Clock value at construction (seconds; any unit is fine as long as
        it is used consistently).  The tracer of an enclosing
        ``obs.observe()`` scope is picked up at construction; outside any
        scope the engine runs uninstrumented.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[_Entry] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0
        self._tracer: Optional[Tracer] = active_tracer()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- scheduling ---------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        entry: _Entry = [float(time), next(self._seq), callback, args, False, False]
        heapq.heappush(self._heap, entry)
        if self._tracer is not None:
            self._tracer.emit(
                "sim",
                "schedule",
                time=self._now,
                at=entry[_TIME],
                seq=entry[_SEQ],
                callback=_callback_name(callback),
            )
        return EventHandle(entry, self)

    def schedule_many(
        self, items: Iterable[tuple[float, Callable[..., None], tuple]]
    ) -> list[EventHandle]:
        """Batch-schedule ``(delay, callback, args)`` triples.

        Semantically identical to calling :meth:`schedule` once per item
        in order — sequence numbers (and therefore tie-breaking) follow
        the iteration order, and the same trace events are emitted — but
        a large batch is inserted with one ``heapify`` instead of a
        ``heappush`` per event, which is what fan-out senders (message
        broadcast, flooding) want.
        """
        now = self._now
        seq = self._seq
        entries: list[_Entry] = []
        for delay, callback, args in items:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule in the past (delay={delay})"
                )
            entries.append([now + delay, next(seq), callback, args, False, False])
        if not entries:
            return []
        heap = self._heap
        # heapify is O(n+m); m pushes are O(m log n).  Rebuild when the
        # batch is big relative to what is already pending.
        if len(entries) * 4 >= len(heap):
            heap.extend(entries)
            heapq.heapify(heap)
        else:
            push = heapq.heappush
            for entry in entries:
                push(heap, entry)
        tracer = self._tracer
        if tracer is not None:
            for entry in entries:
                tracer.emit(
                    "sim",
                    "schedule",
                    time=now,
                    at=entry[_TIME],
                    seq=entry[_SEQ],
                    callback=_callback_name(entry[_CALLBACK]),
                )
        return [EventHandle(entry, self) for entry in entries]

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``
        events have been processed (whichever comes first).

        When the run *cleanly* covers the time window (queue drained or the
        next event lies beyond ``until``), the clock is advanced to ``until``
        even if no event fires exactly there, so subsequent relative
        scheduling behaves intuitively.  A run cut short — a callback raised,
        or ``max_events`` stopped it mid-window — leaves the clock at the
        last processed event so failures are not reported as completions.
        """
        if self._running:
            raise SimulationError("simulation is already running (reentrant run())")
        self._running = True
        completed = False
        try:
            if self._tracer is None:
                completed = self._run_plain(until, max_events)
            else:
                completed = self._run_traced(until, max_events)
        finally:
            self._running = False
        if completed and until is not None and until > self._now:
            self._now = float(until)

    def _run_plain(
        self, until: Optional[float], max_events: Optional[int]
    ) -> bool:
        """Untraced drain loop: no tracer logic on the per-event path."""
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                return False
            while heap and heap[0][_CANCELLED]:
                pop(heap)
            if not heap:
                return True
            entry = heap[0]
            if until is not None and entry[_TIME] > until:
                return True
            pop(heap)
            self._now = entry[_TIME]
            entry[_FIRED] = True
            entry[_CALLBACK](*entry[_ARGS])
            self.events_processed += 1
            processed += 1

    def _run_traced(
        self, until: Optional[float], max_events: Optional[int]
    ) -> bool:
        """Traced drain loop: identical control flow plus fire events."""
        heap = self._heap
        pop = heapq.heappop
        tracer = self._tracer
        perf_counter = _time.perf_counter
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                return False
            while heap and heap[0][_CANCELLED]:
                pop(heap)
            if not heap:
                return True
            entry = heap[0]
            if until is not None and entry[_TIME] > until:
                return True
            pop(heap)
            self._now = entry[_TIME]
            entry[_FIRED] = True
            t0 = perf_counter()
            entry[_CALLBACK](*entry[_ARGS])
            tracer.emit(
                "sim",
                "fire",
                time=entry[_TIME],
                seq=entry[_SEQ],
                callback=_callback_name(entry[_CALLBACK]),
                _elapsed_s=perf_counter() - t0,
            )
            self.events_processed += 1
            processed += 1

    def pending(self) -> int:
        """Number of pending (non-cancelled) events."""
        return sum(1 for e in self._heap if not e[_CANCELLED])

    def drop_pending(self) -> int:
        """Cancel every pending event without running it and empty the
        queue; returns how many were pending.  Their handles read
        ``cancelled``.  For a simulation that is over: queued callbacks
        would otherwise keep alive every object they reach."""
        heap = self._heap
        dropped = 0
        for entry in heap:
            if not entry[_CANCELLED]:
                entry[_CANCELLED] = True
                dropped += 1
        heap.clear()
        return dropped
