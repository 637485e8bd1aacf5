"""Exception types for refused inputs and broken invariants (CLI exit 1), and
how their messages show a value read from an instance file or a flag."""

from __future__ import annotations


def shown(value) -> str:
    """value's repr as `reprlib` clips it, one container level deep: at most
    six list items, four dict entries, 30 characters of a string and 40 of
    an int, so an error line stays a few hundred characters whatever the
    file or the command line holds."""
    import reprlib  # error paths only

    clip = reprlib.Repr()
    clip.maxlevel = 1
    return clip.repr(value)


class IGroverError(Exception):
    """Base class for every error this package raises on purpose; each exits 1."""


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
        super().__init__(f"index {shown(index)} is in Y but not in X")
        self.index = index


class DimensionMismatch(IGroverError):
    """A state vector's length does not match the instance's n."""


class InstanceTooLarge(IGroverError):
    """A run would pass a memory cap: n amplitudes or 3L + 2 trace stops."""


class NotClassUniform(IGroverError):
    """Amplitudes within one index class spread wider than the tolerance."""


class NormDrift(IGroverError):
    """A simulated state ended a run off the unit sphere."""
