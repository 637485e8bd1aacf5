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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientTrace, NormDrift
from .instance import ClassCounts
from .scheduling import QueryStats, Schedule

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ReducedState:
    """A point (x, y, z) on the unit sphere; one coordinate per index class."""

    x: float
    y: float
    z: float

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z


@dataclass(frozen=True)
class SpherePoint:
    """The diffusion axis s: square roots of the class weights."""

    x_s: float
    y_s: float
    z_s: float


@dataclass(frozen=True)
class TraceRecord:
    """One recorded step: which op ran, where the state landed, and z**2."""

    phase: int
    step: int
    op: str
    point: ReducedState
    p_success: float


def sphere_point(counts: ClassCounts) -> SpherePoint:
    n = counts.n
    return SpherePoint(
        math.sqrt(counts.k00 / n),
        math.sqrt(counts.k10 / n),
        math.sqrt(counts.k11 / n),
    )


def initial_point(counts: ClassCounts) -> ReducedState:
    """The uniform superposition: coincides with the diffusion axis."""
    s = sphere_point(counts)
    return ReducedState(s.x_s, s.y_s, s.z_s)


def apply_oracle_x(p: ReducedState) -> ReducedState:
    """Cheap-oracle phase flip on everything inside X; x passes untouched."""
    return ReducedState(p.x, -p.y, -p.z)


def apply_oracle_y(p: ReducedState) -> ReducedState:
    """Expensive-oracle phase flip on the targets alone."""
    return ReducedState(p.x, p.y, -p.z)


def apply_diffusion(p: ReducedState, s: SpherePoint) -> ReducedState:
    """Reflection through s: p -> 2 (p . s) s - p."""
    d = p.x * s.x_s + p.y * s.y_s + p.z * s.z_s
    return ReducedState(
        2.0 * d * s.x_s - p.x,
        2.0 * d * s.y_s - p.y,
        2.0 * d * s.z_s - p.z,
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
    leaves the w component alone.  Matches the stepwise loop of
    `run_schedule` to rounding, without accumulating error over L.
    """
    s = sphere_point(counts)
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
    return ReducedState(a, b * uy + g * uz, b * uz - g * uy)


def run_schedule(counts: ClassCounts, sched: Schedule, record_trace: bool = True
                 ) -> tuple[ReducedState, list[TraceRecord], QueryStats]:
    """Execute init, L cheap iterations, 1 expensive, 2L cheap.

    Untraced, the final state comes from `final_point` in O(1), the trace is
    empty and the counters are the schedule's 3L cheap and 1 expensive
    queries.  Traced, every iteration is stepped as oracle-then-diffusion
    and appends two trace records; the init state is recorded once up
    front, so a trace holds 1 + 2*(3L+1) records, and the counters are
    incremented per actual oracle call.  Either way the final state must
    still have unit norm, or NormDrift is raised.
    """
    if not record_trace:
        p = final_point(counts, sched.L)
        check_norm(p.norm_sq(), "reduced")
        return p, [], QueryStats(count_x=3 * sched.L, count_y=1, repetitions=1)
    s = sphere_point(counts)
    p = initial_point(counts)
    trace = [TraceRecord(0, 0, "init", p, success_probability(p))]
    count_x = 0
    count_y = 0
    plan = (
        (1, sched.L, apply_oracle_x, "oracle_x"),
        (2, 1, apply_oracle_y, "oracle_y"),
        (3, 2 * sched.L, apply_oracle_x, "oracle_x"),
    )
    for phase, steps, oracle, op_name in plan:
        for step in range(steps):
            p = oracle(p)
            if op_name == "oracle_x":
                count_x += 1
            else:
                count_y += 1
            trace.append(TraceRecord(phase, step, op_name, p, success_probability(p)))
            p = apply_diffusion(p, s)
            trace.append(TraceRecord(phase, step, "diffusion", p, success_probability(p)))
    check_norm(p.norm_sq(), "reduced")
    return p, trace, QueryStats(count_x=count_x, count_y=count_y, repetitions=1)


def write_trace_csv(path, trace: list[TraceRecord]) -> None:
    """Trace export; floats printed with 17 significant digits (lossless)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phase,step,op,x,y,z,p_success\n")
        for r in trace:
            fh.write(
                f"{r.phase},{r.step},{r.op},"
                f"{r.point.x:.17g},{r.point.y:.17g},{r.point.z:.17g},"
                f"{r.p_success:.17g}\n"
            )


def phase1_circle_points(trace: list[TraceRecord]) -> list[ReducedState]:
    """The init point plus every post-diffusion point of the first cheap phase.

    These are the L+1 successive stops of the phase-1 trajectory; the oracle
    half-steps in between are reflections off the circle and are excluded.
    """
    pts = [r.point for r in trace if r.phase == 0 and r.op == "init"]
    pts += [r.point for r in trace if r.phase == 1 and r.op == "diffusion"]
    return pts


def _fit_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares plane through the points: unit normal and max residual."""
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1]
    resid = float(np.max(np.abs((points - centroid) @ normal)))
    return normal, resid


def phase1_coplanarity_residual(trace: list[TraceRecord]) -> float:
    """Largest out-of-plane deviation of the phase-1 stops (0 for a true circle)."""
    pts = phase1_circle_points(trace)
    if len(pts) < 3:
        raise InsufficientTrace(
            f"coplanarity needs at least 3 phase-1 points, trace has {len(pts)}"
        )
    arr = np.array([(p.x, p.y, p.z) for p in pts])
    return _fit_plane(arr)[1]


def phase1_rotation_check(trace: list[TraceRecord]) -> list[float]:
    """Per-step turning angles of the phase-1 trajectory about its own axis.

    Fits the circle the stops lie on (plane normal via SVD, center from the
    mean offset along the normal) and measures successive central angles
    with atan2 in the circle's own frame.  For L phase-1 iterations this
    yields L angles; they should all equal twice the per-step rotation
    angle.  Raises InsufficientTrace when fewer than 3 points are available
    (a circle needs three).
    """
    pts = phase1_circle_points(trace)
    if len(pts) < 3:
        raise InsufficientTrace(
            f"rotation check needs at least 3 phase-1 points, trace has {len(pts)}"
        )
    arr = np.array([(p.x, p.y, p.z) for p in pts])
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
