"""Shared helpers: quick instance constructors, a random-instance generator,
the one-expensive-query success ceiling, phase-1 trace geometry, every row
of a trace and its labels, the row-at-a-time full-state operators, the
whole-vector full-engine loop, the reduced operators on (x, y, z) tuples,
scalar and 40-digit reduced stepping, the exact success probability in
integers, membership classes and class ranks by bisection that the engines
and the sampler are checked against."""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import cache

import numpy as np

import igrover as ig


def make_counts(n: int, kx: int, ky: int) -> ig.ClassCounts:
    return ig.ClassCounts(k11=ky, k10=kx - ky, k00=n - kx, n=n)


def theta_approx(counts: ig.ClassCounts) -> float:
    """sqrt(|X|/n), the small-angle value of theta: the chord length whose
    angle `compute_theta` returns as theta_chord, and the sine of the exact
    half turn per iteration."""
    return math.sqrt((counts.k11 + counts.k10) / counts.n)


def one_query_ceiling(kx: int, ky: int) -> float:
    """Best success probability any schedule reaches with one expensive query.

    With X known for free, one Y query can raise the chance of measuring a
    member of Y to at most sin^2(3*phi), sin^2(phi) = |Y|/|X|: the k = 1
    case of the sin^2((2k+1)phi) law (Boyer-Brassard-Hoyer-Tapp,
    arXiv:quant-ph/9605034), exactly optimal by Zalka
    (arXiv:quant-ph/9711070).  Computed with `math` alone.
    """
    phi = math.asin(math.sqrt(ky / kx))
    return 1.0 if 3.0 * phi >= math.pi / 2.0 else math.sin(3.0 * phi) ** 2


def oracle_full(state: np.ndarray, inst: ig.ProblemInstance, which: str) -> np.ndarray:
    """Reference oracle: a new vector with X ('x') or Y ('y') negated."""
    out = state.copy()
    out[(inst.x_spec if which == "x" else inst.y_spec).selector()] *= -1.0
    return out


def diffusion_full(state: np.ndarray) -> np.ndarray:
    """Reference diffusion, inversion about the mean: d_i -> 2*mean - d_i."""
    return 2.0 * state.mean() - state


def whole_vector_run(inst: ig.ProblemInstance, L: int, record_trace: bool
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Reference full-engine loop: the class-contiguous state and its stops
    (none untraced), with one whole-vector diffusion per iteration.

    Class sums are carried as the engine carries them, so every amplitude
    takes the same IEEE operations in the same order as in the engine,
    which differs only in visiting k00 one block at a time after X.  The
    state is left in layout order.
    """
    bounds = (0, inst.n - inst.x_size, inst.n - inst.y_size, inst.n)
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    st = np.full(inst.n, 1.0 / math.sqrt(inst.n))
    sums = [float(st[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])]

    def stop():
        return [math.sqrt(size) * float(st[lo]) if size else 0.0
                for lo, size in zip(bounds, sizes)]

    stops = [stop()] if record_trace else []
    for _, op, steps in ig.Schedule(L).segments():
        first = 1 if op == "oracle_x" else 2
        for _ in range(steps):
            np.negative(st[bounds[first]:], out=st[bounds[first]:])
            for c in range(first, 3):
                if sizes[c]:
                    sums[c] = float(st[bounds[c]:bounds[c + 1]].sum())
            mean = (sums[0] + sums[1] + sums[2]) / inst.n
            np.subtract(2.0 * mean, st, out=st)
            sums = [2.0 * mean * size - s for size, s in zip(sizes, sums)]
            if record_trace:
                stops.append(stop())
    return st, np.array(stops, dtype=float).reshape(-1, 3)


def oracle_x(p: tuple) -> tuple:
    """Reference cheap oracle on a reduced (x, y, z): flips everything inside
    X, so x passes untouched."""
    x, y, z = p
    return x, -y, -z


def oracle_y(p: tuple) -> tuple:
    """Reference expensive oracle on a reduced (x, y, z): flips the targets."""
    x, y, z = p
    return x, y, -z


def diffusion(p: tuple, s: tuple) -> tuple:
    """Reference reflection of a reduced (x, y, z) through the axis s:
    p -> 2 (p . s) s - p."""
    (x, y, z), (sx, sy, sz) = p, s
    d = x * sx + y * sy + z * sz
    return 2.0 * d * sx - x, 2.0 * d * sy - y, 2.0 * d * sz - z


def stepped_stops(counts: ig.ClassCounts, L: int) -> np.ndarray:
    """Reference traced run: every stop of the schedule, stepped one
    (x, y, z) tuple at a time with `oracle_x` / `oracle_y` and `diffusion`."""
    s = p = ig.initial_point(counts)
    stops = [p]
    for _, op, steps in ig.Schedule(L).segments():
        oracle = oracle_x if op == "oracle_x" else oracle_y
        for _ in range(steps):
            p = diffusion(oracle(p), s)
            stops.append(p)
    return np.array(stops)


@cache
def exact_stops(counts: ig.ClassCounts, L: int) -> np.ndarray:
    """Every stop of the schedule, stepped on three coordinates in 40-digit
    decimals and rounded to float64 at the end: the accuracy reference
    (`stepped_stops` steps in float64 and drifts by up to ~1e-11)."""
    ctx = decimal.Context(prec=40)
    axis = [ctx.sqrt(ctx.divide(k, counts.n)) for k in (counts.k00, counts.k10, counts.k11)]
    sx, sy, sz = axis
    x, y, z = axis
    stops = [(x, y, z)]
    with decimal.localcontext(ctx):
        for _, op, steps in ig.Schedule(L).segments():
            cheap = op == "oracle_x"
            for _ in range(steps):
                if cheap:
                    y = -y
                d = 2 * (x * sx + y * sy - z * sz)
                x, y, z = d * sx - x, d * sy - y, d * sz + z
                stops.append((x, y, z))
    stops = np.array([[float(v) for v in stop] for stop in stops])
    stops.flags.writeable = False  # one array serves every caller
    return stops


def exact_p(counts: ig.ClassCounts, L: int) -> Fraction:
    """The success probability after the schedule, exactly, in integers.

    a_c = amplitude * sqrt(n) * n^t of class c is 1 at t = 0 and stays an
    integer: an oracle negates it, and diffusion (2J/n - I, Grover,
    arXiv:quant-ph/9605043) maps it to 2(k00 a0 + k10 a1 + k11 a2) - n a_c.
    After T = 3L + 1 steps p = k11 a2^2 / n^(2T+1), and the norm identity
    k00 a0^2 + k10 a1^2 + k11 a2^2 = n^(2T+1) is asserted exactly.  The
    integers grow by about 2 log2 n bits per step, so the cost is quadratic
    in L: about 30 ms at n = 1000, L = 1,000.
    """
    n, k, a = counts.n, (counts.k00, counts.k10, counts.k11), [1, 1, 1]
    for _, op, steps in ig.Schedule(L).segments():
        first = 1 if op == "oracle_x" else 2  # X is classes 1 and 2, Y class 2
        for _ in range(steps):
            a[first:] = [-v for v in a[first:]]
            twice_sum = 2 * (k[0] * a[0] + k[1] * a[1] + k[2] * a[2])
            a = [twice_sum - n * v for v in a]
    scale = n ** (2 * (3 * L + 1) + 1)
    assert k[0] * a[0] ** 2 + k[1] * a[1] ** 2 + k[2] * a[2] ** 2 == scale
    return Fraction(k[2] * a[2] ** 2, scale)


class InsufficientTrace(ig.IGroverError):
    """A trace holds too few points for the requested geometric check."""


def phase1_circle_points(trace: ig.Trace) -> np.ndarray:
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


def phase1_coplanarity_residual(trace: ig.Trace) -> float:
    """Largest out-of-plane deviation of the phase-1 stops (0 for a true circle)."""
    return _fit_plane(phase1_circle_points(trace))[1]


def phase1_rotation_check(trace: ig.Trace) -> list[float]:
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


def class_of(inst: ig.ProblemInstance, i: int) -> str:
    """The class of index i, by membership alone."""
    if inst.in_x(i):
        return "k11" if inst.in_y(i) else "k10"
    return "k00"


def kth_by_bisection(inst: ig.ProblemInstance, cls: str, j: int) -> int:
    """Reference rank: bisect all of [0, n) for the smallest t whose class
    count up to t passes j; log n steps of rank arithmetic on both specs."""
    def count_leq(t: int) -> int:
        cx = inst.x_spec.count_leq(t, inst.n)
        cy = inst.y_spec.count_leq(t, inst.n)
        return {"k11": cy, "k10": cx - cy, "k00": min(t, inst.n - 1) + 1 - cx}[cls]

    lo, hi = 0, inst.n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if count_leq(mid) >= j + 1:
            hi = mid
        else:
            lo = mid + 1
    return lo


def trace_rows(trace: ig.Trace) -> np.ndarray:
    """Every row of a trace, oracle rows included, as a (rows, 3) array.

    Row 2s is stop s, and oracle row 2s + 1 is stop s with z negated, and
    y too unless s = L (the expensive oracle's iteration).
    """
    rows = np.repeat(trace.stops, 2, axis=0)[:-1]
    oracle = rows[1::2]  # a view: the flips land in rows
    oracle[:, 2] *= -1.0
    oracle[np.arange(len(oracle)) != trace.L, 1] *= -1.0
    return rows


def trace_labels(trace: ig.Trace) -> list[tuple[int, int, str]]:
    """(phase, step, op) of every row of a trace."""
    return [trace.label(r) for r in range(len(trace))]


def range_instance(n: int, kx: int, ky: int) -> ig.ProblemInstance:
    """X = [0, kx-1], Y = [0, ky-1] as range specs."""
    return ig.build_instance({
        "n": n,
        "x": {"kind": "range", "lo": 0, "hi": kx - 1},
        "y": {"kind": "range", "lo": 0, "hi": ky - 1},
    })


def random_instance(rng: np.random.Generator, n_lo: int = 8, n_hi: int = 4096):
    """A random valid instance mixing all three spec kinds for X and Y.

    Every ~10th draw hits an edge shape: Y = X (no k10 class) or X = the
    whole universe (no k00 class).
    """
    n = int(rng.integers(n_lo, n_hi + 1))
    kind = rng.choice(["list", "range", "mod"])
    if kind == "list":
        kx = 1 + int(rng.integers(min(n, 256)))
        members = np.sort(rng.choice(n, size=kx, replace=False))
        x = {"kind": "list", "members": [int(v) for v in members]}
        x_members = [int(v) for v in members]
    elif kind == "range":
        lo = int(rng.integers(n))
        hi = int(rng.integers(lo, n))
        x = {"kind": "range", "lo": lo, "hi": hi}
        x_members = list(range(lo, hi + 1))
    else:
        m = int(rng.integers(1, n + 1))
        r = int(rng.integers(min(m, n)))
        x = {"kind": "mod", "m": m, "r": r}
        x_members = list(range(r, n, m))

    roll = rng.random()
    if roll < 0.1:
        y = dict(x)  # Y = X
    elif roll < 0.2 and kind == "range":
        lo2 = int(rng.integers(x["lo"], x["hi"] + 1))
        y = {"kind": "range", "lo": lo2, "hi": int(rng.integers(lo2, x["hi"] + 1))}
    else:
        ky = 1 + int(rng.integers(len(x_members)))
        picked = np.sort(rng.choice(len(x_members), size=ky, replace=False))
        y = {"kind": "list", "members": [x_members[int(j)] for j in picked]}
    return ig.build_instance({"n": n, "x": x, "y": y})
