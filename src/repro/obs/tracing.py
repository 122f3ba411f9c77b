"""Structured trace events, the tracer, and its running digest.

A :class:`TraceEvent` is a ``(time, component, kind, attrs)`` record.
:class:`Tracer` keeps no events: it fans each one out to subscriber
hooks, tallies it under ``"component.kind"``, and folds it into a
*running* digest — a SHA-256 over the canonical form of every event
emitted.  Two runs of a deterministic simulation produce the same digest
iff they emitted the same event stream, which is what the golden-trace
regression tests assert.

Determinism convention: attribute keys starting with ``_`` are
*volatile* (wall-clock timings) and are excluded from the canonical
form, so the engine's per-callback timing can record real elapsed time
without breaking digest stability.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

#: Attribute-key prefix marking values excluded from the digest.
VOLATILE_PREFIX = "_"


def _canon(value: Any) -> str:
    """Deterministic rendering of an attribute value.

    Scalars render via ``repr`` (stable for str/int/float/bool/None);
    sequences recurse; anything else falls back to its type name so a
    stray object with a default ``repr`` (memory address!) can never
    leak nondeterminism into the digest.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canon(v) for v in value)) + "}"
    return f"<{type(value).__name__}>"


@dataclass(frozen=True)
class TraceEvent:
    """One structured event: when, who, what, and free-form attributes."""

    time: float
    component: str
    kind: str
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def canonical(self) -> str:
        """Digest line: deterministic fields only, attrs in sorted order."""
        parts = [repr(self.time), self.component, self.kind]
        for key in sorted(self.attrs):
            if key.startswith(VOLATILE_PREFIX):
                continue
            parts.append(f"{key}={_canon(self.attrs[key])}")
        return "|".join(parts)


class Tracer:
    """Running digest, event count, per-kind tally and subscriber hooks."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[TraceEvent], None]] = []
        self._hash = hashlib.sha256()
        self.emitted = 0
        #: ``"component.kind"`` -> events emitted
        self.counts: dict[str, int] = {}

    def emit(
        self, component: str, kind: str, /, *, time: float, **attrs: Any
    ) -> None:
        """Record one event at simulated ``time``.

        ``component`` and ``kind`` are positional-only so attribute keys
        may reuse those names (e.g. a bus message's ``kind=...``).
        """
        event = TraceEvent(float(time), component, kind, attrs)
        self.emitted += 1
        key = f"{component}.{kind}"
        self.counts[key] = self.counts.get(key, 0) + 1
        self._hash.update(event.canonical().encode())
        self._hash.update(b"\n")
        for sub in self._subscribers:
            sub(event)

    def subscribe(self, hook: Callable[[TraceEvent], None]) -> None:
        """Call ``hook(event)`` on every subsequent emit."""
        self._subscribers.append(hook)

    def digest(self) -> str:
        """Running SHA-256 over every event emitted so far."""
        return self._hash.copy().hexdigest()
