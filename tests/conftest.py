"""Shared helpers: quick instance constructors, a random-instance generator,
the one-expensive-query success ceiling, and the row-at-a-time full-state
operators, scalar reduced stepping, membership classes and class ranks by
bisection that the engines and the sampler are checked against."""

from __future__ import annotations

import math

import numpy as np

import igrover as ig


def make_counts(n: int, kx: int, ky: int) -> ig.ClassCounts:
    return ig.ClassCounts(k11=ky, k10=kx - ky, k00=n - kx, n=n)


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


def stepped_stops(counts: ig.ClassCounts, L: int) -> np.ndarray:
    """Reference traced run: every stop of the schedule, stepped one
    `ReducedState` at a time with `apply_oracle_x`/`_y` and `apply_diffusion`."""
    s = p = ig.initial_point(counts)
    stops = [(p.x, p.y, p.z)]
    for _, op, steps in ig.Schedule(L).segments():
        oracle = ig.apply_oracle_x if op == "oracle_x" else ig.apply_oracle_y
        for _ in range(steps):
            p = ig.apply_diffusion(oracle(p), s)
            stops.append((p.x, p.y, p.z))
    return np.array(stops)


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
    """Every row of a trace, oracle rows included, as a (rows, 3) array."""
    return np.array([(r.point.x, r.point.y, r.point.z) for r in trace]).reshape(-1, 3)


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
