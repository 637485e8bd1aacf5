"""Exact three-coordinate simulation of the two-oracle search.

Both oracles and the diffusion reflection keep amplitudes constant within
each of the three index classes, so the whole n-dimensional state collapses
losslessly to one point on the unit sphere:

    x = sqrt(k00) * (amplitude of any index outside X)
    y = sqrt(k10) * (amplitude of any index in X but not Y)
    z = sqrt(k11) * (amplitude of any target index)

The cheap oracle negates y and z, the expensive oracle negates z alone, and
diffusion reflects through the fixed unit vector s whose components are the
square roots of the class weights.  Success probability is exactly z**2.

A whole schedule also has a closed form, so an untraced run costs O(1)
whatever n and L are.  Write e = (1, 0, 0), u = (0, sqrt(k10), sqrt(k11)) /
sqrt(|X|) and w = (0, sqrt(k11), -sqrt(k10)) / sqrt(|X|); then s = cos(theta)
e + sin(theta) u with sin(theta) = sqrt(|X| / n).  In the (e, u) plane a
cheap iteration (oracle, then diffusion) is two reflections whose mirrors
meet at angle theta, i.e. a rotation by 2*theta, so phase 1 ends at

    cos((2L+1) theta) e + sin((2L+1) theta) u

(the sin((2k+1) theta) law of Boyer-Brassard-Hoyer-Tapp,
arXiv:quant-ph/9605034).  The expensive iteration is applied as it stands,
by `ClosedForm.expensive`.  In phase 3, w is orthogonal to s and lies inside
X, so the cheap oracle and the diffusion each negate it: the w component
stays fixed while the (e, u) part turns by 4 L theta.  s, u and theta
depend on the class counts alone: `ClosedForm` computes them once, and then
each L costs two cos/sin pairs with `math` alone.  `final_point` evaluates
one L, `sweep_L` a window of them from one set-up, and a traced
`run_schedule` every stop, with an exact phase.

A trace (`Trace`) stores only the stops: the init state and the state after
each diffusion, one float64 (x, y, z) row of 24 bytes each, in one mapping.
The state after an oracle is the stop before it with signs flipped, so the
writer, `write_trace_csv`, derives those rows as it prints them.
"""

from __future__ import annotations

import math
import os
import sys
from functools import cache

from ._numpy import np
from .errors import InstanceTooLarge, NormDrift, SpecFormatError, shown
from .instance import ClassCounts, frozen

POLICY_PAPER_FORMULA = "paper_formula"
POLICY_ROUNDED_HALF = "rounded_half"
POLICY_SWEPT = "swept"
POLICIES = (POLICY_PAPER_FORMULA, POLICY_ROUNDED_HALF, POLICY_SWEPT)

_NORM_TOL = 1e-9
_MAX_L = 1 << 1021  # final_point turns by 4L * theta, a float
_ARC_CHUNK = 4096  # traced stops computed per numpy pass
DEFAULT_TRACE_CAP = 1 << 25  # stops, 768 MiB


@frozen
class Schedule:
    """The single knob of a run: L cheap iterations, then 1, then 2L."""

    L: int
    selection_policy: str = POLICY_PAPER_FORMULA

    def __post_init__(self):
        if self.L < 0:
            raise ValueError(f"L must be >= 0, got {shown(self.L)}")
        if self.L > _MAX_L:
            raise ValueError(f"L must be <= 2**1021, got {shown(self.L)}")
        if self.selection_policy not in POLICIES:
            raise ValueError(f"unknown selection policy {self.selection_policy!r}")

    def segments(self) -> tuple[tuple[int, str, int], ...]:
        """(phase, oracle op, iterations) of the three search phases, in order."""
        return ((1, "oracle_x", self.L), (2, "oracle_y", 1), (3, "oracle_x", 2 * self.L))

    def queries(self, repetitions: int = 1) -> QueryStats:
        """Oracle calls of `repetitions` runs: 3L cheap and 1 expensive each."""
        return QueryStats(3 * self.L, 1, repetitions)


@frozen
class QueryStats:
    """Oracle-call counters for one run, times the number of repetitions."""

    count_x: int
    count_y: int
    repetitions: int = 1


class Trace:
    """A recorded run as columns: one (x, y, z) row per stop of the schedule.

    Stop 0 is the init state and stop i + 1 the state after iteration i's
    diffusion, so a trace holds 3L + 2 stops.  It describes 1 + 2(3L+1)
    rows: row 0 is stop 0, and iteration i adds its oracle row 1 + 2i,
    which is stop i with the oracle's sign flips applied, and its diffusion
    row 2 + 2i, which is stop i + 1.  Phase, step and op labels follow from
    L and are not stored, and p_success is z*z.  Traced runs fill the stops
    of `Trace.allocate`; untraced runs return a trace with no stops.
    """

    __slots__ = ("L", "stops")

    def __init__(self, L: int, stops: np.ndarray):
        self.L = L
        self.stops = stops  # float64, shape (3L + 2, 3), or (0, 3) untraced

    @classmethod
    def allocate(cls, L: int) -> Trace:
        """3L + 2 zeroed stops for an engine to fill, in one anonymous mapping
        (it goes back to the OS when the trace is dropped, where a malloc'd
        buffer of that size leaves a hole the heap keeps).  Raises
        InstanceTooLarge, before mapping, if the stops pass the trace cap:
        2**25, or IGROVER_TRACE_CAP, at most what one mapping can hold."""
        import mmap  # only traced runs load it, as with numpy

        check_cap("IGROVER_TRACE_CAP", DEFAULT_TRACE_CAP, 3 * L + 2,
                  f"L={L} is too large to trace: 3L + 2 stops exceed the trace cap",
                  sys.maxsize // 24)
        stops = np.frombuffer(mmap.mmap(-1, 24 * (3 * L + 2)), np.float64)
        return cls(L, stops.reshape(-1, 3))

    def __len__(self) -> int:
        return max(0, 2 * len(self.stops) - 1)

    def label(self, row: int) -> tuple[int, int, str]:
        """(phase, step, op) of one row."""
        if row == 0:
            return 0, 0, "init"
        i, diffusion = divmod(row - 1, 2)
        for phase, op, steps in Schedule(self.L).segments():
            if i < steps:
                return phase, i, "diffusion" if diffusion else op
            i -= steps
        raise IndexError(f"row {row} is past the end of a trace with L={self.L}")

    def gaps(self, other: Trace) -> np.ndarray:
        """Per stop, the largest absolute difference in x, y, z or p_success.

        An oracle row has the gap of its stop: negation changes neither.
        """
        if self.L != other.L or len(self) != len(other):
            raise ValueError(
                f"traces of different runs: L={self.L}, {len(self)} rows"
                f" vs L={other.L}, {len(other)} rows"
            )
        a, b = self.stops, other.stops
        return np.maximum(np.abs(a - b).max(axis=1),
                          np.abs(a[:, 2] * a[:, 2] - b[:, 2] * b[:, 2]))

    def first_gap(self, other: Trace, tol: float) -> tuple[int, float] | None:
        """The first row whose gap to other exceeds tol, and that gap, or None:
        row 2s for stop s, since its oracle row 2s + 1 has the same gap."""
        gaps = self.gaps(other)
        bad = np.flatnonzero(gaps > tol)
        return (2 * int(bad[0]), float(gaps[bad[0]])) if bad.size else None


def initial_point(counts: ClassCounts) -> tuple[float, float, float]:
    """The uniform superposition, which is also the diffusion axis s."""
    n = counts.n
    return (
        math.sqrt(counts.k00 / n),
        math.sqrt(counts.k10 / n),
        math.sqrt(counts.k11 / n),
    )


def success_probability(p: tuple[float, float, float]) -> float:
    """Probability that measuring (x, y, z) lands on a target index."""
    return p[2] * p[2]


def check_norm(squared_norm: float, engine: str) -> None:
    """End-of-run invariant: the final state is still a unit vector.

    Raises NormDrift (an IGroverError, so the CLI exits 1) rather than
    asserting, so the check also holds under ``python -O``.
    """
    drift = abs(squared_norm - 1.0)
    if not drift <= _NORM_TOL:  # written so that a NaN fails too
        raise NormDrift(
            f"{engine} state left the unit sphere: |norm^2 - 1| = {drift:.3g}"
            f" > {_NORM_TOL:g}"
        )


def check_cap(var: str, default: int, size: int, what: str, limit: int = sys.maxsize) -> None:
    """Raise InstanceTooLarge, saying `what`, if size passes the cap: the int
    >= 2 in environment variable `var` (default if unset), at most limit."""
    raw = os.environ.get(var, str(default))
    try:
        cap = int(raw)
    except ValueError as exc:
        raise SpecFormatError(f"{var} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise SpecFormatError(f"{var} must be >= 2, got {cap}")
    cap = min(cap, limit)
    if size > cap:
        raise InstanceTooLarge(f"{what} {cap} (set {var} to raise it)")


class ClosedForm:
    """The closed form of one class-count triple (see the module docstring):
    the diffusion axis s, u's components uy and uz, with w = (0, uz, -uy),
    theta as a float, and whether k00 and k10 are empty.  None of it depends
    on L, so `sweep_L` builds it once and evaluates every L of its window."""

    __slots__ = ("s", "uy", "uz", "theta", "empty")

    def __init__(self, counts: ClassCounts):
        self.s = initial_point(counts)
        kx = counts.k10 + counts.k11
        self.uy, self.uz = math.sqrt(counts.k10 / kx), math.sqrt(counts.k11 / kx)
        self.theta = math.atan2(math.sqrt(kx), math.sqrt(counts.k00))
        self.empty = counts.k00 == 0, counts.k10 == 0

    def expensive(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """The expensive iteration: the oracle negates z, then diffusion
        reflects the state through s, p -> 2 (p . s) s - p."""
        (sx, sy, sz), z = self.s, -z
        d = x * sx + y * sy + z * sz
        return 2.0 * d * sx - x, 2.0 * d * sy - y, 2.0 * d * sz - z

    def final(self, L: int) -> tuple[float, float, float]:
        """(x, y, z) after init, L cheap, 1 expensive and 2L cheap iterations,
        +0.0 in an empty class, as the full engine projects it; raises
        NormDrift if it is off the unit sphere."""
        uy, uz, theta = self.uy, self.uz, self.theta
        phi = (2 * L + 1) * theta
        sp = math.sin(phi)
        x, y, z = self.expensive(math.cos(phi), sp * uy, sp * uz)  # after phase 1
        a, b = x, y * uy + z * uz               # (e, u) plane coordinates
        g = y * uz - z * uy                     # along w: fixed by phase 3
        c, sn = math.cos(4 * L * theta), math.sin(4 * L * theta)
        a, b = a * c - b * sn, a * sn + b * c
        x, y, z = a, b * uy + g * uz, b * uz - g * uy
        check_norm(x * x + y * y + z * z, "reduced")
        return 0.0 if self.empty[0] else x, 0.0 if self.empty[1] else y, z


def final_point(counts: ClassCounts, L: int) -> tuple[float, float, float]:
    """(x, y, z) after init, L cheap, 1 expensive and 2L cheap iterations.

    O(1) closed form, `ClosedForm(counts).final(L)`: phase 1 and phase 3
    are rotations by 2*theta per iteration in the (e, u) plane, and phase 3
    leaves the w component alone.  Matches stepping to rounding, but the
    float64 phase (2L+1)*theta makes its error grow linearly in L (about
    1.6e-12 at L = 10^4).  Raises NormDrift if the result is off the unit
    sphere.
    """
    return ClosedForm(counts).final(L)


def _split(v):
    """Veltkamp's split of v into hi + lo, 26 significant bits each."""
    c = 134217729.0 * v
    hi = c - (c - v)
    return hi, v - hi


def _two_product(a, b, b_split=None):
    """Dekker's TwoProduct, no FMA: p + e is exactly a * b.  b_split, if
    given, is `_split(b)`."""
    (ah, al), (bh, bl), p = _split(a), b_split or _split(b), a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _theta(counts: ClassCounts, hi: float) -> tuple[float, float]:
    """theta as a double-double hi + lo, within about 2**-120 theta.

    hi is `ClosedForm(counts).theta`, the float `final` turns by, and lo =
    tan(theta - hi), from sin and cos of hi (Taylor series) and of theta
    (square roots) in integers scaled by 2**P, P = 127 bits below hi's
    leading bit.
    """
    n, k00 = counts.n, counts.k00
    P = 127 - math.frexp(hi)[1]
    num, den = hi.as_integer_ratio()
    h = (num << P) // den
    cs, term, k = [0, 0], 1 << P, 0  # cos hi, sin hi; h**k / k!
    while term:
        cs[k & 1] += -term if k & 2 else term
        k += 1
        term = term * h // (k << P)
    (c, s), a, b = cs, math.isqrt((k00 << 2 * P) // n), math.isqrt(((n - k00) << 2 * P) // n)
    return hi, (b * c - a * s) / (a * c + b * s)


def _cos_sin(m: np.ndarray, theta: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of m theta, to rounding for integers m through about 2**34.

    m hi = p + e exactly, so the phase is p + t with t = e + m lo, and
    `math`'s cos p and sin p give both to second order in t.  |t| grows
    like m theta 2**-53, and the third-order term left out as its cube:
    on (1000, 999, 10), cos m theta is right to rounding through
    m = 2**34 + 1 but 2.3e-15 off at 2**38 + 1.  The trace cap keeps traced
    m below about 2**26.  No numpy transcendental runs, so the bits depend
    on libm alone, as `final_point`'s do.
    """
    p, e = _two_product(m, theta[0])
    t = e + m * theta[1]
    phases = p.tolist()
    cp, sp = (np.fromiter(map(f, phases), float, len(phases)) for f in (math.cos, math.sin))
    flat = 1.0 - 0.5 * t * t
    return cp * flat - sp * t, sp * flat + cp * t


def run_schedule(counts: ClassCounts, sched: Schedule, record_trace: bool = True
                 ) -> tuple[tuple[float, float, float], Trace, QueryStats]:
    """Execute init, L cheap iterations, 1 expensive, 2L cheap.

    The final state is `final_point`'s, from a `ClosedForm` whose s, uy and
    uz also place the traced stops.  Untraced, the trace has no rows.
    Traced, its 3L + 2 stops come from the same closed form, `_ARC_CHUNK`
    at a time: stop 0 is `initial_point`, phase-1 stop k is
    cos((2k+1) theta) e + sin((2k+1) theta) u, stop L + 1 is
    `ClosedForm.expensive` of stop L, and phase 3 turns the (e, u) part of
    that by 2j theta and keeps its w part.  Every phase is formed from
    theta as a double-double (`_theta`), so each stop is within about
    1e-16 of the exact one while 4L + 1 stays within about 2**34
    (`_cos_sin`); the trace cap keeps it below about 2**26, so no trace
    byte is affected.
    The last stop is the final state, and an empty class's column is +0.0
    throughout, as the full engine projects it.  The stops are
    `Trace.allocate`'s, so past the trace cap it raises InstanceTooLarge
    before computing them.  The counters are `sched.queries()`; a final
    state off the unit sphere raises NormDrift.
    """
    form, L = ClosedForm(counts), sched.L
    final = form.final(L)
    if not record_trace:
        return final, Trace(L, np.empty((0, 3))), sched.queries()
    trace = Trace.allocate(L)
    stops, s, uy, uz = trace.stops, form.s, form.uy, form.uz
    # cos and sin of 2r theta for r below one chunk, then of the first phase
    # of each chunk of phase 1 (odd multiples of theta) and phase 3 (even)
    size, step = min(2 * L + 1, _ARC_CHUNK), 2 * _ARC_CHUNK
    firsts = np.arange(1, 2 * L + 2, step), np.arange(0, 4 * L + 2, step)
    cs = _cos_sin(np.concatenate([np.arange(0, 2 * size, 2), *firsts]).astype(np.float64),
                  _theta(counts, form.theta))
    (tc, c1, c3), (ts, s1, s3) = (np.split(v, [size, size + len(firsts[0])]) for v in cs)

    def arc(rows, fc, fs, a, b, g):  # (a, b, g) in the frame (e, u, w); (a, b) turns
        firsts = zip((a * fc - b * fs).tolist(), (a * fs + b * fc).tolist())
        for k, (a0, b0) in enumerate(firsts):
            out = rows[k * _ARC_CHUNK:(k + 1) * _ARC_CHUNK]
            c, s = tc[:len(out)], ts[:len(out)]
            along_u = a0 * s + b0 * c
            out[:, 0] = a0 * c - b0 * s
            out[:, 1] = along_u * uy + g * uz
            out[:, 2] = along_u * uz - g * uy

    arc(stops[:L + 1], c1, s1, 1.0, 0.0, 0.0)
    x, y, z = form.expensive(*stops[L].tolist())
    arc(stops[L + 1:], c3, s3, x, y * uy + z * uz, y * uz - z * uy)
    stops[0], stops[L + 1] = s, (x, y, z)
    stops[-1] = final  # so the trace ends on the record's state
    for column, empty in enumerate(form.empty):
        if empty:
            stops[:, column] = 0.0
    return final, trace, sched.queries()


# Iterations (two rows each) formatted per write.  CPU time of writing eight
# traces of the trace-large-L workload's shape (four draws, L from 2,316 to
# 58,208), as a ratio to the writer before, medians of 41 interleaved
# rounds in one process, the median of the four draws; and the peak of a
# fresh `igrover run --trace` on the L = 78,540 cell, five runs (2-core Xeon):
#
#   chunk                          1024   1536   2048   3072
#   write time, ratio to before    0.85   0.80   0.79   0.78
#   fresh-process peak, MB         41.87  42.33  42.87  44.01
#
# "before" is the writer of seven-word fields, the newline in the last, at
# 1,024 (42.14 MB).  1,536 keeps most of the gain for 0.2 MB of peak.
_CSV_CHUNK = 1536
_LOW = 1.0000000000000002e-06  # the least float >= 10**-6; the float 1e-6 is below it
_EDGES = (_LOW, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)  # the least float >= each power of ten
_FIELD = 6  # uint32 words of a printed float: ',', a sign byte, up to 22 characters
_SIGN = int.from_bytes(b"\0-\0\0", sys.byteorder)


def _words(text: str, count: int) -> np.ndarray:
    return np.frombuffer(text.encode("ascii").ljust(4 * count, b"\0"), np.uint32)


@cache
def _tables() -> tuple:
    """Words rows are built from: `quads` holds four-digit g at g, at 10000 + g
    without trailing zeros, at 20000 + g without leading zeros but the last;
    `heads[10 * P + d]` is P - 17 zeros and digit d (NUL past P = 20);
    `leads[2 * (v == 0) + sign bit]` is ',', sign, '0' and '.' but for 0;
    `marks[10 * sign bit + d]` is ',', sign, digit d and '.'; `exps[P - 21]`
    is 'e-05' or 'e-06'.  Then 10**P, split, and per binary exponent e (the
    float's top 12 bits, sign clear) of [_LOW, 1), P at 2**(e - 1023) and
    the edge inside that octave, or 2.0 if it holds none; the edges are 10
    times apart, so an octave holds at most one."""
    quads = np.empty((3, 10000, 4), np.uint8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        quads[:, :, j] = np.arange(10000, dtype=np.uint16) // scale % 10 + 48
    zero = quads[0] == 48
    quads[1][np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]] = 0
    zero[:, 3] = False
    quads[2][np.logical_and.accumulate(zero, axis=1)] = 0
    heads = "".join(("0" * k).ljust(3, "\0") + str(d) for k in range(4) for d in range(10))
    marks = "".join(f",{sign}{d}." for sign in "\0-" for d in range(10))
    ten = np.array([float(10 ** p) for p in range(23)])  # exact: 5**22 < 2**53
    octave = (np.arange(1023, dtype=np.int64) << 52).view(np.float64)  # 2**(e - 1023), e > 0
    edge = np.full(1023, 2.0)
    edge[np.array(_EDGES).view(np.int64) >> 52] = _EDGES
    return (quads.view(np.uint32).reshape(-1), _words("\0" * 680 + heads, 230),
            _words(",\x000.,-0.,\x000\0,-0\0", 4), _words(marks, 20), _words("e-05e-06", 2),
            ten, *_split(ten), 23 - np.searchsorted(_EDGES, octave, side="right"), edge)


def _exponents(a: np.ndarray) -> np.ndarray:
    """P per value of a, all in [_LOW, 1): 10**16 <= a * 10**P < 10**17."""
    octave_p, edge = _tables()[-2:]
    e = a.view(np.int64) >> 52  # the biased binary exponent, as a >= 0
    return octave_p[e] - (a >= edge[e])


@cache
def _segment_words() -> tuple:
    """Per phase, the word of '\nphase,', the words of ',op' and whether the
    phase's oracle negates y, plus the words of ',diffusion'; none of them
    depends on L."""
    return (tuple((_words(f"\n{phase},", 1)[0], _words(f",{op}", 3), op == "oracle_x")
                  for phase, op, _ in Schedule(0).segments()), _words(",diffusion", 3))


def _float_words(v: np.ndarray) -> np.ndarray:
    """Each float as `_FIELD` words of ',' + '%.17g' % v (see write_trace_csv),
    or as `_FIELD` + 1 words for all if one of them needs 23 characters.

    A value in [_LOW, 1) takes the 17 digits of D = |v| * 10**P, rounded
    half to even, where 17 <= P <= 22 puts D in [10**16, 10**17).  Above
    1e-4 its words are ',', sign, '0.', P - 17 zeros with D's first digit
    and four four-digit groups; below, ',', sign, D's first digit, '.', the
    four groups and 'e-05' or 'e-06'.
    """
    quads, heads, leads, marks, exps, ten, ten_hi, ten_lo = _tables()[:8]
    a = np.abs(v)
    fast = (a >= _LOW) & (a < 1.0)
    zeros = a == 0.0
    a = np.where(fast, a, 0.5)
    p = _exponents(a)
    hi, lo = _two_product(a, ten[p], (ten_hi[p], ten_lo[p]))  # hi + lo = a * 10**P
    # hi >= 10**16 > 2**53 is an even integer: rint(lo) rounds hi + lo half to even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    high = d // 10 ** 8  # '//' by a constant is fast, '%' is not
    low = d - high * 10 ** 8
    first = high // 10 ** 8
    high -= first * 10 ** 8
    g0, g2 = high // 10000, low // 10000
    g1, g3 = high - g0 * 10000, low - g2 * 10000
    width, rare = _FIELD, np.flatnonzero(~(fast | zeros))
    if rare.size:  # the '%' texts, each ',', a NUL sign byte and up to 23 characters
        text = (",\0%.17g\n" * rare.size) % tuple(np.abs(v[rare]).tolist())
        texts = np.array(text.split("\n")[:-1], "S")
        width += texts.itemsize > 4 * _FIELD
    out = np.empty((len(v), width), np.uint32)
    out[:, 0] = leads[2 * zeros + np.signbit(v)]
    out[:, 1] = heads[10 * p + first + 35 * zeros]  # a zero: P = 17, digit 5 + 35
    # a group of four digits drops its trailing zeros if all groups after it are 0
    out[:, 2] = quads[g0 + 10000 * ((low == 0) & (g1 == 0))]
    out[:, 3] = quads[g1 + 10000 * (low == 0)]
    out[:, 4] = quads[g2 + 10000 * (g3 == 0)]
    out[:, 5] = quads[g3 + 10000]
    out[:, _FIELD:] = 0
    sci = np.flatnonzero(p > 20)  # printed as d.dddddddddddddddde-0(P - 16)
    if sci.size:
        out[sci, 0] = marks[10 * np.signbit(v[sci]) + first[sci]]
        out[sci, 1:5] = out[sci, 2:6]
        out[sci, 5] = exps[p[sci] - 21]
    if rare.size:
        out[rare] = texts.astype(f"S{4 * width}").view(np.uint32).reshape(-1, width)
        out[rare, 0] |= (np.signbit(v[rare]) & (v[rare] == v[rare])).astype(np.uint32) * _SIGN
    return out


def write_trace_csv(path, trace: Trace) -> None:
    """Trace export; every float printed exactly as '%.17g' prints it.

    The stops are formatted a chunk at a time into a matrix of uint32 words
    (four characters each), one row per CSV line, each value NUL-padded to
    `_FIELD` words, or to `_FIELD` + 1 in a chunk where some value prints
    23 characters (a three-digit exponent); dropping the NUL bytes leaves
    the text.  Each row starts with its newline, in the phase word
    '\nphase,', after the header, which is written without one, so the file
    ends with a lone '\n'.  An oracle row is the stop before it with z
    (and, for the cheap oracle, y) negated, so it takes the stop's words
    with those sign bytes toggled.  Rows are labelled one phase at a time,
    since phase, op and the y toggle are constant within a phase and a
    chunk meets at most three phases.

    A value with LOW <= |v| < 1, where LOW = 1.0000000000000002e-06 is the
    least float >= 10**-6, is nearly every value of a trace.  It prints the
    17 digits of D = round_half_even(|v| * 10**P), where 17 <= P <= 22 puts
    D in [10**16, 10**17), without trailing zeros: from 1e-4 up as '0.',
    P - 17 zeros and D, below as D's first digit, '.', the other 16 and
    'e-05' (P = 21) or 'e-06' (P = 22).  Those 16 are never all zero, as no
    float in the range is within half a unit of D's last digit of
    d * 10**-5 or d * 10**-6.  P is exact: each of LOW, 1e-5, ..., 1e-1 is
    the least float >= its power of ten, and no float in the range rounds
    up to the next power (the float below each prints 17 nines).  The float
    1e-6 is below 10**-6 and prints as e-07, so the range starts at LOW.
    P is read from tables indexed by the binary exponent (`_exponents`).
    10**P is an exact float for every P up to 22, since 5**22 < 2**53, so
    Dekker's TwoProduct gives |v| * 10**P exactly as hi + lo, and hi is an
    even integer, so D is hi + rint(lo).
    Zeros print as '0' and '-0', and the rest (|v| >= 1, |v| < LOW, inf and
    nan) through one batched '%' per chunk.  The writer's working memory
    is one chunk's words, labels and text, whatever the trace's length.
    """
    stops, iterations = trace.stops, 3 * trace.L + 1
    quads = _tables()[0]
    segments, diffusion = _segment_words()
    # the first iteration of each phase, and the end
    starts = np.cumsum([0] + [steps for *_, steps in Schedule(trace.L).segments()]).tolist()
    count = (len(str(2 * trace.L)) + 3) // 4  # words of the largest step number
    with open(path, "wb") as fh:
        fh.write(b"phase,step,op,x,y,z,p_success")
        for lo in range(0, iterations if len(stops) else 0, _CSV_CHUNK):
            hi = min(iterations, lo + _CSV_CHUNK)
            chunk = stops[lo:hi + 1]  # iteration i: stops i and i + 1
            values = np.column_stack([chunk, np.square(chunk[:, 2])])
            fields = _float_words(values.reshape(-1))
            width = fields.shape[1]
            fields = fields.reshape(-1, 4 * width)
            if not lo:
                fh.write(b"\n0,0,init" + fields[0].tobytes().translate(None, b"\0"))
            z = 4 + count + 2 * width  # word 0 of a row's z field
            text = bytearray(8 * (hi - lo) * (z + 2 * width))  # rows' buffer: no copy to print
            rows = np.frombuffer(text, np.uint32).reshape(hi - lo, 2, -1)
            rows[:, 1, 1 + count:4 + count] = diffusion
            rows[:, 0, 4 + count:] = fields[:-1]
            rows[:, 1, 4 + count:] = fields[1:]
            rows[:, 0, z] ^= _SIGN
            for (phase, label, flip_y), start, end in zip(segments, starts, starts[1:]):
                first, last = max(lo, start), min(hi, end)  # its iterations in the chunk
                if first >= last:
                    continue
                k0, k1 = first - start, last - start  # their steps
                part = rows[first - lo:last - lo]
                part[:, :, 0] = phase
                part[:, 0, 1 + count:4 + count] = label
                # the step in groups of four digits: the group holding its
                # first digit drops leading zeros, groups before it print
                # nothing (the NUL word at 10000), and step 0 prints '0'.
                # Within a block of 10,000 steps every group but the last is
                # fixed, and the last runs along a slice of quads
                for b in range(k0 - k0 % 10000, k1, 10000):
                    s, e = max(k0, b), min(k1, b + 10000)
                    block = part[s - k0:e - k0]
                    for j in range(count - 1):
                        g = b // 10 ** (4 * (count - 1 - j))  # the digits from this group on
                        block[:, :, 1 + j] = quads[g % 10000 + 20000 * (g < 10000)
                                                   - 10000 * (g == 0)]
                    at = 20000 if b == 0 else -b  # step k's last group is quads[k + at]
                    block[:, :, count] = quads[s + at:e + at, None]
                if flip_y:
                    part[:, 0, z - width] ^= _SIGN
            fh.write(text.translate(None, b"\0"))
        fh.write(b"\n")
