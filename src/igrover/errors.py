"""Exception types shared across the package."""

from __future__ import annotations


class IGroverError(Exception):
    """Base class for every error this package raises on purpose."""


class SpecFormatError(IGroverError):
    """An instance description or membership spec is malformed."""


class IndexOutOfRange(IGroverError):
    """An index lies outside the universe [0, n-1]."""


class EmptyX(IGroverError):
    """The outer set X has no members in [0, n-1]."""


class EmptyY(IGroverError):
    """The target set Y has no members in [0, n-1]."""


class NotSubset(IGroverError):
    """Y is not contained in X; carries one concrete violating index."""

    def __init__(self, index: int):
        super().__init__(f"index {index} is in Y but not in X")
        self.index = index


class DimensionMismatch(IGroverError):
    """A state vector's length does not match the instance's n."""


class InstanceTooLarge(IGroverError):
    """A run would pass a memory cap: n amplitudes or 3L + 2 trace stops."""


class NotClassUniform(IGroverError):
    """Amplitudes within one index class spread wider than the tolerance."""


class NormDrift(IGroverError):
    """A simulated state ended a run off the unit sphere."""


class InsufficientTrace(IGroverError):
    """A trace holds too few points for the requested geometric check."""


class ExhaustedRepetitions(IGroverError):
    """Every allowed repetition measured an unverified index.

    The final (failed) run outcome rides along on ``.outcome`` so callers
    can still report counters, cost, and the last measured index.
    """

    def __init__(self, outcome):
        super().__init__(
            f"no verified outcome after {outcome.repetitions} repetitions"
        )
        self.outcome = outcome
