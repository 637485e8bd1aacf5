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
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    EmptyX,
    EmptyY,
    IndexOutOfRange,
    NotSubset,
    SpecFormatError,
)

CLASS_K11 = "k11"
CLASS_K10 = "k10"
CLASS_K00 = "k00"


def _check_int(value, what: str) -> int:
    # bool is an int subclass; JSON true/false must not sneak in as 1/0
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
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

    def kth(self, j: int, n: int) -> int:
        return self.members[j]

    def selector(self) -> list[int]:
        """Numpy index of the members in an n-vector (a gather, not a view)."""
        return list(self.members)

    def to_json(self) -> dict:
        return {"kind": "list", "members": list(self.members)}


@dataclass(frozen=True)
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

    def kth(self, j: int, n: int) -> int:
        return self.lo + j

    def selector(self) -> slice:
        """Numpy index of the members in an n-vector; a slice, so a view."""
        return slice(self.lo, self.hi + 1)

    def to_json(self) -> dict:
        return {"kind": "range", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
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

    def kth(self, j: int, n: int) -> int:
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
        raise SpecFormatError(f"membership spec must be an object, got {obj!r}")
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
                    raise SpecFormatError(
                        f"list members must be strictly increasing, saw {a} then {b}"
                    )
        return Members(members)
    if kind == "range":
        lo = _check_int(obj.get("lo"), "range lo")
        hi = _check_int(obj.get("hi"), "range hi")
        if lo > hi:
            raise SpecFormatError(f"empty range: lo={lo} > hi={hi}")
        return Range(lo, hi)
    if kind == "mod":
        m = _check_int(obj.get("m"), "mod m")
        r = _check_int(obj.get("r"), "mod r")
        if m < 1:
            raise SpecFormatError(f"mod m must be >= 1, got {m}")
        if not 0 <= r < m:
            raise SpecFormatError(f"mod r must satisfy 0 <= r < m, got r={r} m={m}")
        return Modular(m, r)
    raise SpecFormatError(f"unknown membership kind {kind!r}")


def _validate_members(spec: SetSpec, n: int, which: str) -> None:
    """Range-check a spec against the universe and reject empty sets."""
    if spec.size(n) == 0:
        raise (EmptyX if which == "X" else EmptyY)(f"{which} has no members for n={n}")
    lo = spec.kth(0, n)
    hi = spec.kth(spec.size(n) - 1, n)
    if lo < 0 or hi > n - 1:
        bad = lo if lo < 0 else hi
        raise IndexOutOfRange(f"{which} member {bad} outside [0, {n - 1}]")


def _subset_violation(n: int, x: SetSpec, y: SetSpec) -> int | None:
    """Return some member of Y that is not in X, or None if Y <= X.

    Cost is bounded by the explicit sizes involved: when X is a range or a
    modular rule the answer comes from O(1) arithmetic on Y's extremes;
    when X is a list, scanning Y stops at the first miss, which by
    pigeonhole arrives within the first |X| + 1 members of Y.
    """
    y_size = y.size(n)
    if isinstance(x, Range):
        lo = y.kth(0, n)
        if not x.contains(lo):
            return lo
        hi = y.kth(y_size - 1, n)
        if not x.contains(hi):
            return hi
        return None
    if isinstance(x, Modular):
        if x.m == 1:
            return None  # X is the whole universe
        if isinstance(y, Members):
            if set(map(x.m.__rmod__, y.members)) == {x.r}:
                return None
            for v in y.members:
                if not x.contains(v):
                    return v
            return None
        if isinstance(y, Range):
            if not x.contains(y.lo):
                return y.lo
            if y_size == 1:
                return None
            return y.lo + 1  # consecutive indices cannot share a residue mod m >= 2
        # y is Modular: need r_y == r_x (mod m_x) and m_y a multiple of m_x
        if not x.contains(y.r):
            return y.r
        if y_size >= 2 and y.m % x.m != 0:
            return y.r + y.m
        return None
    # x is Members
    for j in range(y_size):
        v = y.kth(j, n)
        if not x.contains(v):
            return v
    return None


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ClassCounts:
    """Sizes of the three index classes; always sums to n, with k11 >= 1."""

    k11: int
    k10: int
    k00: int
    n: int

    def __post_init__(self):
        if self.k11 < 1 or self.k10 < 0 or self.k00 < 0:
            raise ValueError(f"bad class counts {self}")
        if self.k11 + self.k10 + self.k00 != self.n:
            raise ValueError(f"class counts do not sum to n: {self}")


def build_instance(obj) -> ProblemInstance:
    """Build and fully validate an instance from its parsed-JSON description."""
    if not isinstance(obj, Mapping):
        raise SpecFormatError(f"instance must be an object, got {obj!r}")
    n = _check_int(obj.get("n"), "n")
    if n < 2:
        raise SpecFormatError(f"n must be >= 2, got {n}")
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
        return build_instance(json.load(fh))


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


def class_of(inst: ProblemInstance, i: int) -> str:
    if not 0 <= i < inst.n:
        raise IndexOutOfRange(f"index {i} outside [0, {inst.n - 1}]")
    if inst.in_x(i):
        return CLASS_K11 if inst.in_y(i) else CLASS_K10
    return CLASS_K00


def class_count_leq(inst: ProblemInstance, cls: str, t: int) -> int:
    """How many indices <= t fall in the given class; O(log size) arithmetic."""
    cx = inst.x_spec.count_leq(t, inst.n)
    if cls == CLASS_K11:
        return inst.y_spec.count_leq(t, inst.n)
    if cls == CLASS_K10:
        return cx - inst.y_spec.count_leq(t, inst.n)
    if cls == CLASS_K00:
        return min(t, inst.n - 1) + 1 - cx
    raise ValueError(f"unknown class {cls!r}")


def kth_in_class(inst: ProblemInstance, cls: str, j: int,
                 counts: ClassCounts | None = None) -> int:
    """The j-th smallest index of a class, by binary search on rank counts.

    This is what keeps uniform class sampling O(log n) even when the class
    itself is astronomically large (say, the complement of a small X).
    `counts`, if given, must be `partition_classes(inst)`.
    """
    counts = counts or partition_classes(inst)
    size = {CLASS_K11: counts.k11, CLASS_K10: counts.k10, CLASS_K00: counts.k00}[cls]
    if not 0 <= j < size:
        raise IndexOutOfRange(f"rank {j} outside class {cls} of size {size}")
    lo, hi = 0, inst.n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if class_count_leq(inst, cls, mid) >= j + 1:
            hi = mid
        else:
            lo = mid + 1
    return lo
