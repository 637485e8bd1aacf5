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
arXiv:quant-ph/9605034).  The expensive iteration is applied as it stands.
In phase 3, w is orthogonal to s and lies inside X, so the cheap oracle and
the diffusion each negate it: the w component stays fixed while the (e, u)
part turns by 4 L theta.  `final_point` evaluates exactly that with `math`
alone; the stepwise loop in `run_schedule` remains for traces and as the
reference the tests hold the closed form to.

A trace (`Trace`) stores only the stops: the init state and the state after
each diffusion, one float64 (x, y, z) row of 24 bytes each.  The state
after an oracle is the stop before it with signs flipped, so `Trace`
derives those rows, and `write_trace_csv` formats only the stops.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from ._numpy import np
from .errors import IGroverError, InsufficientTrace, NormDrift
from .instance import ClassCounts

POLICY_PAPER_FORMULA = "paper_formula"
POLICY_ROUNDED_HALF = "rounded_half"
POLICY_SWEPT = "swept"
POLICIES = (POLICY_PAPER_FORMULA, POLICY_ROUNDED_HALF, POLICY_SWEPT)

_NORM_TOL = 1e-9
_MAX_L = 1 << 1021  # final_point turns by 4L * theta, a float
_STEP_CHUNK = 1024  # traced iterations stepped into one buffer


@dataclass(frozen=True)
class ReducedState:
    """A point (x, y, z) on the unit sphere; one coordinate per index class."""

    x: float
    y: float
    z: float

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z


@dataclass(frozen=True)
class Schedule:
    """The single knob of a run: L cheap iterations, then 1, then 2L."""

    L: int
    selection_policy: str = POLICY_PAPER_FORMULA

    def __post_init__(self):
        if self.L < 0:
            raise ValueError(f"L must be >= 0, got {self.L}")
        if self.L > _MAX_L:
            raise ValueError(f"L must be <= 2**1021, got {self.L}")
        if self.selection_policy not in POLICIES:
            raise ValueError(f"unknown selection policy {self.selection_policy!r}")

    def segments(self) -> tuple[tuple[int, str, int], ...]:
        """(phase, oracle op, iterations) of the three search phases, in order."""
        return ((1, "oracle_x", self.L), (2, "oracle_y", 1), (3, "oracle_x", 2 * self.L))

    def queries(self, repetitions: int = 1) -> QueryStats:
        """Oracle calls of `repetitions` runs: 3L cheap and 1 expensive each."""
        return QueryStats(3 * self.L, 1, repetitions)


@dataclass(frozen=True)
class QueryStats:
    """Oracle-call counters for one run, times the number of repetitions."""

    count_x: int
    count_y: int
    repetitions: int = 1


@dataclass(frozen=True)
class TraceRecord:
    """One recorded step: which op ran, where the state landed, and z**2."""

    phase: int
    step: int
    op: str
    point: ReducedState
    p_success: float


@dataclass(eq=False, slots=True)
class Trace:
    """A recorded run as columns: one (x, y, z) row per stop of the schedule.

    Stop 0 is the init state and stop i + 1 the state after iteration i's
    diffusion, so a trace holds 3L + 2 stops.  It describes 1 + 2(3L+1)
    rows: row 0 is stop 0, and iteration i adds its oracle row 1 + 2i,
    which is stop i with the oracle's sign flips applied, and its diffusion
    row 2 + 2i, which is stop i + 1.  Phase, step and op labels follow from
    L and are not stored, and p_success is z*z.  Untraced runs return a
    trace with no stops.  Iterating yields one `TraceRecord` per row.
    """

    L: int
    stops: np.ndarray  # float64, shape (3L + 2, 3), or (0, 3) untraced

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

    def __iter__(self):
        stops = self.stops.tolist()
        for row in range(len(self)):
            phase, step, op = self.label(row)
            p = ReducedState(*stops[row // 2])
            if op in _ORACLES:
                p = _ORACLES[op](p)
            yield TraceRecord(phase, step, op, p, p.z * p.z)

    def gaps(self, other: Trace) -> np.ndarray:
        """Per row, the largest absolute difference in x, y, z or p_success.

        An oracle row has the gap of its stop: negation changes neither.
        """
        if self.L != other.L or len(self) != len(other):
            raise ValueError(
                f"traces of different runs: L={self.L}, {len(self)} rows"
                f" vs L={other.L}, {len(other)} rows"
            )
        a, b = self.stops, other.stops
        gaps = np.maximum(np.abs(a - b).max(axis=1),
                          np.abs(a[:, 2] * a[:, 2] - b[:, 2] * b[:, 2]))
        return np.repeat(gaps, 2)[:-1]

    def first_gap(self, other: Trace, tol: float) -> tuple[int, float] | None:
        """The first row whose gap to other exceeds tol, and that gap, or None."""
        gaps = self.gaps(other)
        bad = np.flatnonzero(gaps > tol)
        return (int(bad[0]), float(gaps[bad[0]])) if bad.size else None


def initial_point(counts: ClassCounts) -> ReducedState:
    """The uniform superposition, which is also the diffusion axis s."""
    n = counts.n
    return ReducedState(
        math.sqrt(counts.k00 / n),
        math.sqrt(counts.k10 / n),
        math.sqrt(counts.k11 / n),
    )


def apply_oracle_x(p: ReducedState) -> ReducedState:
    """Cheap-oracle phase flip on everything inside X; x passes untouched."""
    return ReducedState(p.x, -p.y, -p.z)


def apply_oracle_y(p: ReducedState) -> ReducedState:
    """Expensive-oracle phase flip on the targets alone."""
    return ReducedState(p.x, p.y, -p.z)


_ORACLES = {"oracle_x": apply_oracle_x, "oracle_y": apply_oracle_y}


def apply_diffusion(p: ReducedState, s: ReducedState) -> ReducedState:
    """Reflection through the axis s: p -> 2 (p . s) s - p."""
    d = p.x * s.x + p.y * s.y + p.z * s.z
    return ReducedState(
        2.0 * d * s.x - p.x,
        2.0 * d * s.y - p.y,
        2.0 * d * s.z - p.z,
    )


def success_probability(p: ReducedState) -> float:
    """Probability that measuring now lands on a target index."""
    return p.z * p.z


def check_norm(norm_sq: float, engine: str) -> None:
    """End-of-run invariant: the final state is still a unit vector.

    Raises NormDrift (an IGroverError, so the CLI exits 1) rather than
    asserting, so the check also holds under ``python -O``.
    """
    drift = abs(norm_sq - 1.0)
    if not drift <= _NORM_TOL:  # written so that a NaN fails too
        raise NormDrift(
            f"{engine} state left the unit sphere: |norm^2 - 1| = {drift:.3g}"
            f" > {_NORM_TOL:g}"
        )


def final_point(counts: ClassCounts, L: int) -> ReducedState:
    """The state after init, L cheap, 1 expensive and 2L cheap iterations.

    O(1) closed form (see the module docstring): phase 1 and phase 3 are
    rotations by 2*theta per iteration in the (e, u) plane, and phase 3
    leaves the w component alone.  Matches the stepwise loop of `run_schedule`
    to rounding, but the float64 phase (2L+1)*theta makes its error grow
    linearly in L (about 1.6e-12 at L = 10^4).  Raises NormDrift if the
    result is off the unit sphere.
    """
    s = initial_point(counts)
    kx = counts.k10 + counts.k11
    uy, uz = math.sqrt(counts.k10 / kx), math.sqrt(counts.k11 / kx)
    theta = math.atan2(math.sqrt(kx), math.sqrt(counts.k00))
    phi = (2 * L + 1) * theta
    p = ReducedState(math.cos(phi), math.sin(phi) * uy, math.sin(phi) * uz)
    p = apply_diffusion(apply_oracle_y(p), s)
    a, b = p.x, p.y * uy + p.z * uz        # (e, u) plane coordinates
    g = p.y * uz - p.z * uy                # along w: fixed by phase 3
    c, sn = math.cos(4 * L * theta), math.sin(4 * L * theta)
    a, b = a * c - b * sn, a * sn + b * c
    p = ReducedState(a, b * uy + g * uz, b * uz - g * uy)
    check_norm(p.norm_sq(), "reduced")
    return p


def run_schedule(counts: ClassCounts, sched: Schedule, record_trace: bool = True
                 ) -> tuple[ReducedState, Trace, QueryStats]:
    """Execute init, L cheap iterations, 1 expensive, 2L cheap.

    Untraced, the final state comes from `final_point` in O(1) and the trace
    has no rows.  Traced, every iteration is stepped as oracle-then-diffusion
    on plain floats (the arithmetic of `apply_oracle_x`/`_y` and
    `apply_diffusion`, in the same order, so every value is bit-identical)
    and stores the stop after it, so a trace holds 3L + 2 stops.  Either way
    the counters are `sched.queries()`, and the final state must still have
    unit norm, or NormDrift is raised.
    """
    if not record_trace:
        return final_point(counts, sched.L), Trace(sched.L, np.empty((0, 3))), sched.queries()
    import mmap  # only traced runs load it, as with numpy
    import sys

    if 3 * sched.L + 2 > sys.maxsize // 24:  # a mapping's size is a C ssize_t
        raise IGroverError(f"L={sched.L} is too large to trace (3L + 2 rows of 24 bytes)")
    s = initial_point(counts)
    sx, sy, sz = x, y, z = s.x, s.y, s.z
    # one anonymous mapping of the final size, filled a chunk at a time: it
    # goes back to the OS when the trace is dropped, while a malloc'd buffer
    # of that size leaves a hole the heap keeps
    stops = np.frombuffer(mmap.mmap(-1, 24 * (3 * sched.L + 2)), np.float64).reshape(-1, 3)
    flat = stops.reshape(-1)
    flat[:3] = x, y, z
    end = 3
    for _, op, steps in sched.segments():
        # the cheap oracle negates y, the expensive one keeps it; 1.0 * y and
        # -1.0 * y are y and -y bit for bit, signed zeros included
        flip_y = -1.0 if op == "oracle_x" else 1.0
        for lo in range(0, steps, _STEP_CHUNK):
            rows = array("d")
            for _ in range(min(_STEP_CHUNK, steps - lo)):
                ox, oy, oz = x, flip_y * y, -z
                d2 = 2.0 * (ox * sx + oy * sy + oz * sz)
                x, y, z = d2 * sx - ox, d2 * sy - oy, d2 * sz - oz
                rows.extend((x, y, z))
            flat[end:end + len(rows)] = rows
            end += len(rows)
    p = ReducedState(x, y, z)
    check_norm(p.norm_sq(), "reduced")
    return p, Trace(sched.L, stops), sched.queries()


# Iterations (two rows each) formatted per write.  On a 78,540-iteration trace
# 512 writes as fast as 2048 and 8192, and the process peaks 1.3 and 3.7 MB lower.
_CSV_CHUNK = 512
# x, y, z and p_success of one row, with \x01 and \x02 standing for the
# commas before y and z so that an oracle row can toggle their signs
_MARKED_ROW = "%.17g\x01%.17g\x02%.17g,%.17g\n"


def _unmarked(text: str) -> str:
    return text.replace("\x01", ",").replace("\x02", ",")


def write_trace_csv(path, trace: Trace) -> None:
    """Trace export; floats printed with 17 significant digits (lossless).

    Only the stops are formatted, a chunk of them in one batched `%` call.
    An oracle row is the stop before it with z negated (and y too, for the
    cheap oracle), so its text is that stop's with a leading '-' toggled on
    those fields and the same p_success; this is exact because
    format(-v, '.17g') is '-' + format(v, '.17g'), signed zeros included.
    Rows are written a chunk at a time, so memory stays bounded whatever L
    is.
    """
    stops = trace.stops
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phase,step,op,x,y,z,p_success\n")
        if not len(stops):
            return
        x, y, z = stops[0].tolist()
        prev = _MARKED_ROW % (x, y, z, z * z)  # the stop the next oracle row negates
        fh.write("0,0,init," + _unmarked(prev))
        first = 1  # the stop after the first iteration of this phase
        for phase, op, steps in Schedule(trace.L).segments():
            cheap = op == "oracle_x"
            pair = f"{phase},%d,{op},%s\n{phase},%d,diffusion,%s\n"
            for lo in range(0, steps, _CSV_CHUNK):
                hi = min(steps, lo + _CSV_CHUNK)
                m = hi - lo
                values = np.empty((m, 4))
                values[:, :3] = stops[first + lo:first + hi]
                np.square(values[:, 2], out=values[:, 3])
                text = (_MARKED_ROW * m) % tuple(values.ravel().tolist())
                # oracle row j negates stop j - 1: prev, then all but the last stop
                cut = text.rfind("\n", 0, -1) + 1
                negated = ((prev + text[:cut]).replace("\x01", ",-" if cheap else ",")
                           .replace("\x02", ",-").replace(",--", ","))
                prev = text[cut:]
                fields = [None] * (4 * m)
                fields[0::4] = fields[2::4] = range(lo, hi)
                fields[1::4] = negated.split("\n")[:m]
                fields[3::4] = _unmarked(text).split("\n")[:m]
                fh.write((pair * m) % tuple(fields))
            first += steps


def phase1_circle_points(trace: Trace) -> np.ndarray:
    """The init point plus every post-diffusion point of the first cheap phase.

    These are the L+1 successive stops of the phase-1 trajectory; the oracle
    half-steps in between are reflections off the circle and are excluded.
    Raises InsufficientTrace when fewer than 3 are available (a circle, or
    a plane, needs three).
    """
    points = trace.stops[:trace.L + 1]
    if len(points) < 3:
        raise InsufficientTrace(
            f"phase-1 geometry needs at least 3 stops, trace has {len(points)}"
        )
    return points


def _fit_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares plane through the points: unit normal and max residual."""
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1]
    resid = float(np.max(np.abs((points - centroid) @ normal)))
    return normal, resid


def phase1_coplanarity_residual(trace: Trace) -> float:
    """Largest out-of-plane deviation of the phase-1 stops (0 for a true circle)."""
    return _fit_plane(phase1_circle_points(trace))[1]


def phase1_rotation_check(trace: Trace) -> list[float]:
    """Per-step turning angles of the phase-1 trajectory about its own axis.

    Fits the circle the stops lie on (plane normal via SVD, center from the
    mean offset along the normal) and measures successive central angles
    with atan2 in the circle's own frame.  For L phase-1 iterations this
    yields L angles; they should all equal twice the per-step rotation
    angle.  Raises InsufficientTrace when fewer than 3 points are available.
    """
    arr = phase1_circle_points(trace)
    normal, _ = _fit_plane(arr)
    center = float((arr @ normal).mean()) * normal
    radial = arr - center
    e1 = radial[0] / np.linalg.norm(radial[0])
    e2 = np.cross(normal, e1)
    angles = np.arctan2(radial @ e2, radial @ e1)
    steps = np.diff(angles)
    # wrap into (-pi, pi] before taking magnitudes
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    return [float(a) for a in np.abs(steps)]
