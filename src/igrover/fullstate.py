"""Brute-force n-amplitude simulation of the same search schedule.

The state is a real vector of n amplitudes.  Oracles are sign flips on the
member indices; diffusion is inversion about the mean, which works for any
n, power of two or not.  This engine exists to cross-check the reduced one
and to expose real measurement sampling; it is capped (by memory) to
moderate n, overridable through the IGROVER_FULL_CAP environment variable.

`run_schedule_full` evolves the amplitudes in a class-contiguous layout:
the k00 members, then the k10 members, then the k11 members, each class in
ascending index order.  There X is the tail from k00 on and Y the tail from
k00 + k10 on, so an oracle negates one contiguous slice, with no gather
or scatter.  Every operation is elementwise with one shared scalar, so a
class's amplitudes stay bitwise equal and a stop reads one per class.  At
the end of the run the same buffer is refilled in index order.

No oracle negates k00 and no mean re-reads it, so the diffusion shifts
depend on the X tail alone.  The loop steps X and records each shift; k00
then takes them one cache-sized block at a time, each amplitude getting
the same IEEE operations in the same order as a whole-vector pass would.
"""

from __future__ import annotations

import math
from typing import Callable

from ._numpy import np
from .errors import DimensionMismatch, NotClassUniform
from .instance import ProblemInstance
from .reduced import QueryStats, ReducedState, Schedule, Trace, check_cap, check_norm

DEFAULT_FULL_CAP = 1 << 20
_UNIFORM_TOL = 1e-9
_CLASSES = ("k00", "k10", "k11")
# k00 takes the pending diffusion shifts 2^16 amplitudes (512 KB) at a time,
# so a block stays in a core's L2 through all of them; they are flushed to
# k00 every _FLUSH iterations, which bounds their memory whatever L is
_BLOCK = 1 << 16
_FLUSH = 4096


def init_uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / math.sqrt(n))


def _project(st: np.ndarray, bounds: tuple[int, ...], tol: float | None = None
             ) -> list[float]:
    """(x, y, z) of a class-contiguous state: sqrt(size) * first amplitude per class.

    An empty class contributes exactly 0.0.  Given a tol, a class whose
    amplitudes spread wider than it raises NotClassUniform.
    """
    coords = []
    for cls, lo, hi in zip(_CLASSES, bounds, bounds[1:]):
        if lo == hi:
            coords.append(0.0)
            continue
        if tol is not None:
            vals = st[lo:hi]
            spread = float(vals.max() - vals.min())
            if spread > tol:
                raise NotClassUniform(
                    f"class {cls} amplitudes spread {spread:.3g} > tol {tol:.3g}"
                )
        coords.append(math.sqrt(hi - lo) * float(st[lo]))
    return coords


def _shift_k00(k00: np.ndarray, shifts: np.ndarray, xs: np.ndarray | None) -> None:
    """Map every k00 amplitude a to shift - a for each shift in turn, one
    block of _BLOCK amplitudes at a time.  Given xs, xs[i] gets k00's stop
    coordinate after shift i, read from block 0 as `_project` reads it."""
    root = math.sqrt(k00.size)
    for lo in range(0, k00.size, _BLOCK):
        block = k00[lo:lo + _BLOCK]
        for i, shift in enumerate(shifts):
            np.subtract(shift, block, out=block)
            if xs is not None and lo == 0:
                xs[i] = root * float(block[0])


def project_to_reduced(state: np.ndarray, inst: ProblemInstance,
                       tol: float = _UNIFORM_TOL) -> ReducedState:
    """Collapse a class-uniform full state to its three coordinates.

    Each coordinate is sqrt(class size) times the class's common amplitude.
    An empty class contributes exactly 0.0.  If amplitudes within a class
    spread wider than tol the state is not class-uniform (the schedule can
    never produce that) and NotClassUniform is raised.
    """
    if state.shape != (inst.n,):
        raise DimensionMismatch(
            f"state has shape {state.shape}, instance has n={inst.n}"
        )
    # label k00, k10, k11 as 0, 1, 2; the mask of one label picks that
    # class's members ascending, the order of the class-contiguous layout
    labels = np.zeros(inst.n, dtype=np.int8)
    labels[inst.x_spec.selector()] = 1
    labels[inst.y_spec.selector()] = 2
    st = np.concatenate([state[labels == c] for c in range(3)])
    bounds = (0, inst.n - inst.x_size, inst.n - inst.y_size, inst.n)
    return ReducedState(*_project(st, bounds, tol))


def run_schedule_full(inst: ProblemInstance, sched: Schedule, record_trace: bool = True
                      ) -> tuple[np.ndarray, Trace, QueryStats]:
    """Execute the full schedule on n amplitudes; trace stops are projected.

    The state is evolved in place in the class-contiguous layout, traced or
    not (a stop reads one amplitude per class and never feeds back), and
    returned in index order in the same buffer.  An iteration steps the X
    tail and records its diffusion shift; k00 takes the shifts a block at a
    time every _FLUSH iterations and at the end.  Its `Trace.allocate` stops
    are the reduced engine's, so the two runs can be compared pointwise;
    untraced, the trace has none.  The counters are `sched.queries()`.  The
    run ends by checking the norm (NormDrift) and that every class is still
    uniform (NotClassUniform).  Raises InstanceTooLarge, before allocating
    anything, when n exceeds the full cap (2**20, or IGROVER_FULL_CAP) or a
    traced L the trace cap (`Trace.allocate`).
    """
    check_cap("IGROVER_FULL_CAP", DEFAULT_FULL_CAP, inst.n, f"n={inst.n} exceeds full-state cap")
    trace = Trace.allocate(sched.L) if record_trace else Trace(sched.L, np.empty((0, 3)))
    bounds = (0, inst.n - inst.x_size, inst.n - inst.y_size, inst.n)
    st = init_uniform(inst.n)  # uniform, so already in layout order
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    # per-class amplitude sums stand in for a whole-vector mean: an oracle
    # re-reads the classes it negates (X is k10 + k11, Y is k11; empty ones
    # left out), and inversion about the mean m maps s_c to 2m|c| - s_c
    sums = [float(st[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])]
    flips = {op: (st[bounds[first]:], [c for c in range(first, 3) if sizes[c]])
             for op, first in (("oracle_x", 1), ("oracle_y", 2))}
    stops, stop = trace.stops, 0
    if record_trace:
        stops[stop] = _project(st, bounds)
    k00, x = st[:bounds[1]], st[bounds[1]:]
    shifts, pending = np.empty(_FLUSH), 0

    def flush():
        # the last `pending` stops get their k00 coordinate as block 0 shifts
        xs = stops[stop + 1 - pending:stop + 1, 0] if record_trace else None
        _shift_k00(k00, shifts[:pending], xs)

    for _, op, steps in sched.segments():
        tail, flipped = flips[op]
        for _ in range(steps):
            np.negative(tail, out=tail)
            for c in flipped:
                sums[c] = float(st[bounds[c]:bounds[c + 1]].sum())
            mean = (sums[0] + sums[1] + sums[2]) / inst.n
            np.subtract(2.0 * mean, x, out=x)
            sums = [2.0 * mean * size - s for size, s in zip(sizes, sums)]
            shifts[pending] = 2.0 * mean
            pending += 1
            if record_trace:
                stop += 1
                stops[stop] = _project(st, bounds)  # k00's coordinate is stale until flush
            if pending == _FLUSH:
                flush()
                pending = 0
    flush()
    # not st @ st: BLAS's threaded ddot takes ms to wake idle worker threads
    check_norm(float(np.einsum("i,i->", st, st)), "full")
    _project(st, bounds, _UNIFORM_TOL)  # raises NotClassUniform
    # each class is one value, so index order is k00's overwritten on X,
    # then on Y (X and Y are never empty; an empty k10 reads k11's value)
    a10, a11 = st[bounds[1]], st[bounds[2]]
    st.fill(st[0])
    st[inst.x_spec.selector()] = a10
    st[inst.y_spec.selector()] = a11
    return st, trace, sched.queries()


def measurement_sampler(state: np.ndarray, rng: np.random.Generator) -> Callable[[], int]:
    """Draw indices with probability amplitude**2 from one cumulative table.

    The table is built in `state`'s buffer, so `sample_measurement` passes a
    copy.  Each call of the returned function draws exactly as one more
    `sample_measurement(state, rng)` call would, at O(log n) per draw.
    """
    weights = np.square(state, out=state)
    np.cumsum(weights, out=weights)
    total = float(weights[-1])
    return lambda: int(np.searchsorted(weights, rng.random() * total, side="right"))


def sample_measurement(state: np.ndarray, rng) -> int:
    """Draw one index with probability amplitude**2; rng is a seed or Generator."""
    return measurement_sampler(state.copy(), np.random.default_rng(rng))()
