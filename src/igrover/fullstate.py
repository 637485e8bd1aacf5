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


def check_full_cap(n: int) -> None:
    """Raise InstanceTooLarge if the full engine may not allocate n amplitudes.

    The cap is 2**20; the IGROVER_FULL_CAP environment variable overrides it.
    """
    check_cap("IGROVER_FULL_CAP", DEFAULT_FULL_CAP, n, f"n={n} exceeds full-state cap")


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

    The state is evolved in place in the class-contiguous layout, one pass
    over it per iteration, traced or not (a stop reads one amplitude per
    class and never feeds back), and returned in index order in the same
    buffer.  Its `Trace.allocate` stops are the reduced engine's, so the two
    runs can be compared pointwise; untraced, the trace has none.  The
    counters are `sched.queries()`.  The run ends by checking the norm
    (NormDrift) and that every class is still uniform (NotClassUniform).
    Raises InstanceTooLarge, before allocating anything, when n or a traced
    L exceeds its cap (`check_full_cap`, `Trace.allocate`).
    """
    check_full_cap(inst.n)
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
    for _, op, steps in sched.segments():
        tail, flipped = flips[op]
        for _ in range(steps):
            np.negative(tail, out=tail)
            for c in flipped:
                sums[c] = float(st[bounds[c]:bounds[c + 1]].sum())
            mean = (sums[0] + sums[1] + sums[2]) / inst.n
            np.subtract(2.0 * mean, st, out=st)
            sums = [2.0 * mean * size - s for size, s in zip(sizes, sums)]
            if record_trace:
                stop += 1
                stops[stop] = _project(st, bounds)
    check_norm(float(st @ st), "full")
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
