"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Errors are raised eagerly on misuse (bad configuration,
out-of-range identifiers) rather than propagating NaNs or silent defaults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class TopologyError(ReproError):
    """The underlay topology is malformed or a lookup refers to an unknown
    AS/host/link."""


class RoutingError(ReproError):
    """No valley-free route exists between two autonomous systems."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. scheduling in
    the past, running a finished simulation)."""


class OverlayError(ReproError):
    """An overlay protocol invariant was violated or a peer lookup failed."""


class CollectionError(ReproError):
    """An underlay-information collection service failed or was queried for
    an unknown subject."""


class FaultError(ReproError):
    """A fault schedule or injector was configured inconsistently (bad
    window, unknown fault kind, AS-scoped fault without an AS resolver)."""


class RunnerError(ReproError):
    """A parallel sweep worker failed, died, or returned an unusable
    result (the original traceback is embedded in the message)."""


class CoordinateError(ReproError):
    """A network coordinate system was given invalid input (e.g. a
    non-square distance matrix, negative delays)."""
