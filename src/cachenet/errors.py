"""Exception types shared across the package."""

import math
import numbers


class CacheNetError(Exception):
    """Base class for all cachenet errors."""


class StructuralError(CacheNetError):
    """Inconsistent dimensions or malformed network/demand/strategy data."""


class ConfigurationError(CacheNetError):
    """Impossible or contradictory scenario / experiment configuration."""


class CapacityExceededError(CacheNetError):
    """A queueing-style cost function was evaluated at or beyond its service rate."""


class DivergentCirculationError(CacheNetError):
    """The per-item traffic system (I - Phi^T) t = r is singular or near-singular,
    i.e. a routing cycle circulates flow with (near-)unit fraction product."""


class IllRoutedError(CacheNetError):
    """A fixed-routing next-hop table contains a cycle, a dead end, or routes
    through/out of a designated server."""


class LoopError(CacheNetError):
    """A routing strategy that must be loop-free contains a positive-flow cycle."""


class DisconnectedDemandError(CacheNetError):
    """Some node cannot reach a designated server for some item."""


def require_finite_positive(value, name):
    """Raise ConfigurationError unless ``value`` is a finite number above 0
    (NaN passes ``value <= 0``; an infinite step, tolerance or interval
    never ends)."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be finite and positive, got {value}")


def require_count(value, what, least=1):
    """Raise ConfigurationError, worded "``what`` >= ``least``", unless
    ``value`` is an integer of at least ``least`` (bool and float rejected:
    the loop it counts needs an int)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ConfigurationError(f"{what} >= {least}, got {value!r}")
