"""Problem instances: two nested sets Y <= X inside the universe [0, n-1].

A set is described one of three ways: an explicit sorted list of members, an
inclusive index range, or a modular rule (every i with i % m == r).  All
three answer membership in O(1) or O(log size) and support rank queries
(count of members <= t, and the j-th smallest member), which is what lets
measurement sampling work on instances far too large to enumerate.  Each
also names its members as a numpy index (`selector`), which is how the
full n-amplitude engine reads and writes them.

Indices fall into three classes that the simulators track:

    k11  in X and in Y      (the targets)
    k10  in X but not in Y
    k00  outside X

Only the three class sizes matter to the reduced-geometry engine.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import Mapping

from .errors import (
    EmptyX,
    EmptyY,
    IndexOutOfRange,
    NotSubset,
    SpecFormatError,
    shown,
)

CLASS_K11 = "k11"
CLASS_K10 = "k10"
CLASS_K00 = "k00"
_MAX_N = 1 << 1023  # |X|/n and sqrt(n) must stay finite nonzero floats


def frozen(cls):
    """Make cls an immutable record, as `dataclass(frozen=True)` would.

    The fields are the annotated names, the defaults their class attributes.
    `__init__` is generated once per class; it sets every field with
    `object.__setattr__` (which, unlike writing `__dict__`, keeps attribute
    reads on CPython's fast path) and then calls `__post_init__` if there is
    one.  `__eq__`, `__hash__` and `__repr__` read the fields in order, and
    setting or deleting any attribute raises AttributeError.  A
    `functools.cached_property` still works: it writes the instance
    `__dict__` directly, and no field method reads what it stores.
    """
    names = tuple(cls.__annotations__)
    env = {f"_{n}": getattr(cls, n) for n in names if hasattr(cls, n)}
    env["_set"] = object.__setattr__
    params = ", ".join(f"{n}=_{n}" if f"_{n}" in env else n for n in names)
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    exec(f"def __init__(self, {params}):{body}", env)
    fields = lambda self: tuple(getattr(self, n) for n in names)

    def refuse(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    cls.__init__, cls.__setattr__, cls.__delattr__ = env["__init__"], refuse, refuse
    cls.__eq__ = lambda self, other: (fields(self) == fields(other)
                                      if other.__class__ is self.__class__ else NotImplemented)
    cls.__hash__ = lambda self: hash(fields(self))
    cls.__repr__ = lambda self: "%s(%s)" % (type(self).__qualname__, ", ".join(
        f"{n}={v!r}" for n, v in zip(names, fields(self))))
    return cls


def _check_int(value, what: str) -> int:
    # bool is an int subclass; JSON true/false must not sneak in as 1/0
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(f"{what} must be an integer, got {shown(value)}")
    return value


@frozen
class Members:
    """Explicit member list, stored sorted and duplicate-free."""

    members: tuple[int, ...]

    def size(self, n: int) -> int:
        return len(self.members)

    def contains(self, i: int) -> bool:
        j = bisect_left(self.members, i)
        return j < len(self.members) and self.members[j] == i

    def count_leq(self, t: int, n: int) -> int:
        return bisect_right(self.members, t)

    def kth(self, j: int) -> int:
        return self.members[j]

    def selector(self) -> list[int]:
        """Numpy index of the members in an n-vector (a gather, not a view)."""
        return list(self.members)

    def to_json(self) -> dict:
        return {"kind": "list", "members": list(self.members)}


@frozen
class Range:
    """Inclusive index range lo..hi."""

    lo: int
    hi: int

    def size(self, n: int) -> int:
        return self.hi - self.lo + 1

    def contains(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def count_leq(self, t: int, n: int) -> int:
        if t < self.lo:
            return 0
        return min(t, self.hi) - self.lo + 1

    def kth(self, j: int) -> int:
        return self.lo + j

    def selector(self) -> slice:
        """Numpy index of the members in an n-vector; a slice, so a view."""
        return slice(self.lo, self.hi + 1)

    def to_json(self) -> dict:
        return {"kind": "range", "lo": self.lo, "hi": self.hi}


@frozen
class Modular:
    """Every index i in [0, n-1] with i % m == r."""

    m: int
    r: int

    def size(self, n: int) -> int:
        if self.r > n - 1:
            return 0
        return (n - 1 - self.r) // self.m + 1

    def contains(self, i: int) -> bool:
        return i % self.m == self.r

    def count_leq(self, t: int, n: int) -> int:
        t = min(t, n - 1)
        if t < self.r:
            return 0
        return (t - self.r) // self.m + 1

    def kth(self, j: int) -> int:
        return self.r + j * self.m

    def selector(self) -> slice:
        """Numpy index of the members in an n-vector; a slice, so a view."""
        return slice(self.r, None, self.m)

    def to_json(self) -> dict:
        return {"kind": "mod", "m": self.m, "r": self.r}


SetSpec = Members | Range | Modular


def spec_from_json(obj) -> SetSpec:
    """Parse one membership spec from its JSON form; shape errors only."""
    if not isinstance(obj, Mapping):
        raise SpecFormatError(f"membership spec must be an object, got {shown(obj)}")
    kind = obj.get("kind")
    if kind == "list":
        raw = obj.get("members")
        if not isinstance(raw, list):
            raise SpecFormatError("list spec needs a 'members' array")
        members = tuple(raw)
        # whole-list checks in C; on a failure the scans below name the culprit
        if not set(map(type, members)) <= {int}:
            for v in members:
                _check_int(v, "list member")
        if not all(map(operator.lt, members, members[1:])):
            for a, b in zip(members, members[1:]):
                if a >= b:
                    raise SpecFormatError("list members must be strictly increasing,"
                                          f" saw {shown(a)} then {shown(b)}")
        return Members(members)
    if kind == "range":
        lo = _check_int(obj.get("lo"), "range lo")
        hi = _check_int(obj.get("hi"), "range hi")
        if lo > hi:
            raise SpecFormatError(f"empty range: lo={shown(lo)} > hi={shown(hi)}")
        return Range(lo, hi)
    if kind == "mod":
        m = _check_int(obj.get("m"), "mod m")
        r = _check_int(obj.get("r"), "mod r")
        if m < 1:
            raise SpecFormatError(f"mod m must be >= 1, got {shown(m)}")
        if not 0 <= r < m:
            raise SpecFormatError(
                f"mod r must satisfy 0 <= r < m, got r={shown(r)} m={shown(m)}")
        return Modular(m, r)
    raise SpecFormatError(f"unknown membership kind {shown(kind)}")


def _validate_members(spec: SetSpec, n: int, which: str) -> None:
    """Range-check a spec against the universe and reject empty sets."""
    if spec.size(n) == 0:
        raise (EmptyX if which == "X" else EmptyY)(
            f"{which} has no members for n={shown(n)}")
    lo = spec.kth(0)
    hi = spec.kth(spec.size(n) - 1)
    if lo < 0 or hi > n - 1:
        bad = lo if lo < 0 else hi
        raise IndexOutOfRange(f"{which} member {shown(bad)} outside [0, {shown(n - 1)}]")


def _subset_violation(n: int, x: SetSpec, y: SetSpec) -> int | None:
    """Return some member of Y that is not in X, or None if Y <= X.

    Only members of Y that can hold a witness are scanned: Y's extremes for
    a range X; the first |X| + 1 for a list X (pigeonhole); the first two
    for a modular X over a range or modular Y (consecutive indices never
    share a residue, and Y's step must be a multiple of X's modulus); all
    of a list Y under a modular X, once a whole-list check in C fails.
    """
    size = y.size(n)
    if isinstance(x, Range):
        ranks = (0, size - 1)
    elif isinstance(x, Members):
        ranks = range(min(size, len(x.members) + 1))
    elif not isinstance(y, Members):
        ranks = range(min(size, 2))
    elif set(map(x.m.__rmod__, y.members)) == {x.r}:
        return None
    else:
        ranks = range(size)
    for j in ranks:
        v = y.kth(j)
        if not x.contains(v):
            return v
    return None


@frozen
class ProblemInstance:
    """Validated instance: universe size n with membership specs for X and Y."""

    n: int
    x_spec: SetSpec
    y_spec: SetSpec

    def in_x(self, i: int) -> bool:
        return self.x_spec.contains(i)

    def in_y(self, i: int) -> bool:
        return self.y_spec.contains(i)

    @property
    def x_size(self) -> int:
        return self.x_spec.size(self.n)

    @property
    def y_size(self) -> int:
        return self.y_spec.size(self.n)

    @cached_property
    def counts(self) -> ClassCounts:
        """The class sizes, kept on the instance after first use.

        cached_property writes `__dict__` directly, past the frozen
        `__setattr__`; eq, hash and repr still read only the fields.
        """
        return partition_classes(self)


@frozen
class ClassCounts:
    """Sizes of the three index classes; always sums to n <= 2**1023, with k11 >= 1."""

    k11: int
    k10: int
    k00: int
    n: int

    def __post_init__(self):
        if self.k11 < 1 or self.k10 < 0 or self.k00 < 0:
            raise ValueError(f"bad class counts {self}")
        if self.k11 + self.k10 + self.k00 != self.n:
            raise ValueError(f"class counts do not sum to n: {self}")
        if self.n > _MAX_N:
            raise ValueError(f"n must be <= 2**1023, got {shown(self.n)}")


def build_instance(obj) -> ProblemInstance:
    """Build and fully validate an instance from its parsed-JSON description."""
    if not isinstance(obj, Mapping):
        raise SpecFormatError(f"instance must be an object, got {shown(obj)}")
    n = _check_int(obj.get("n"), "n")
    if n < 2:
        raise SpecFormatError(f"n must be >= 2, got {shown(n)}")
    if "x" not in obj or "y" not in obj:
        raise SpecFormatError("instance needs both 'x' and 'y' membership specs")
    x_spec = spec_from_json(obj["x"])
    y_spec = spec_from_json(obj["y"])
    _validate_members(x_spec, n, "X")
    _validate_members(y_spec, n, "Y")
    violator = _subset_violation(n, x_spec, y_spec)
    if violator is not None:
        raise NotSubset(violator)
    return ProblemInstance(n, x_spec, y_spec)


def load_instance(path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise SpecFormatError("instance JSON nests too deeply to load") from None
    return build_instance(obj)


def instance_to_json(inst: ProblemInstance) -> dict:
    return {"n": inst.n, "x": inst.x_spec.to_json(), "y": inst.y_spec.to_json()}


def partition_classes(inst: ProblemInstance) -> ClassCounts:
    """Class sizes follow from |X| and |Y| alone since Y <= X."""
    kx = inst.x_size
    ky = inst.y_size
    return ClassCounts(k11=ky, k10=kx - ky, k00=inst.n - kx, n=inst.n)


def verify_outcome(inst: ProblemInstance, i: int) -> bool:
    """Classical check of a measured index: one f_X plus one f_Y evaluation."""
    if not 0 <= i < inst.n:
        raise IndexOutOfRange(f"measured index {i} outside [0, {inst.n - 1}]")
    return inst.in_x(i) and inst.in_y(i)


def kth_in_class(inst: ProblemInstance, cls: str, j: int) -> int:
    """The j-th smallest index of a class, from the specs' own ranks.

    k11 is Y's j-th member; k10 (k00) is the j-th member of X ([0, n)) that
    Y (X) lacks.  `f(k) = outer rank of inner.kth(k) - k` never decreases, so
    bisecting k (by hand: `bisect` bounds are C ssize_t, classes pass 2**63)
    for the count i of f(k) <= j gives `outer.kth(j + i)` in log|inner| steps.
    """
    n, x, y = inst.n, inst.x_spec, inst.y_spec
    if cls == CLASS_K11:
        outer, inner = y, None
    elif cls == CLASS_K10:
        outer, inner = x, y
    elif cls == CLASS_K00:
        outer, inner = Range(0, n - 1), x
    else:
        raise ValueError(f"unknown class {cls!r}")
    size = getattr(inst.counts, cls)
    if not 0 <= j < size:
        raise IndexOutOfRange(f"rank {j} outside class {cls} of size {size}")
    lo, hi = 0, inner.size(n) if inner else 0
    while lo < hi:
        mid = (lo + hi) // 2
        if outer.count_leq(inner.kth(mid), n) - 1 - mid <= j:
            lo = mid + 1
        else:
            hi = mid
    return outer.kth(j + lo)
