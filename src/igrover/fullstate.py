"""Brute-force n-amplitude simulation of the same search schedule.

The state is a real vector of n amplitudes.  Oracles are sign flips on the
member indices; diffusion is inversion about the mean, which works for any
n, power of two or not.  This engine exists to cross-check the reduced one
and to expose real measurement sampling; it is capped (by memory) to
moderate n, overridable through the IGROVER_FULL_CAP environment variable.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import (
    DimensionMismatch,
    InstanceTooLarge,
    NotClassUniform,
    SpecFormatError,
)
from .instance import ProblemInstance, partition_classes
from .reduced import ReducedState, Trace, check_norm
from .scheduling import QueryStats, Schedule

DEFAULT_FULL_CAP = 1 << 20
STATE_MAGIC = b"IGSV"
STATE_VERSION = 1
_HEADER = struct.Struct("<4sIQ")


def full_state_cap() -> int:
    """Largest n the full engine will allocate; IGROVER_FULL_CAP overrides."""
    raw = os.environ.get("IGROVER_FULL_CAP")
    if raw is None:
        return DEFAULT_FULL_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise SpecFormatError(f"IGROVER_FULL_CAP must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise SpecFormatError(f"IGROVER_FULL_CAP must be >= 2, got {cap}")
    return cap


def init_uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / math.sqrt(n))


def _class_indices(inst: ProblemInstance) -> dict[str, np.ndarray]:
    x_mask = np.zeros(inst.n, dtype=bool)
    y_mask = np.zeros(inst.n, dtype=bool)
    for mask, spec in ((x_mask, inst.x_spec), (y_mask, inst.y_spec)):
        kind = spec.to_json()["kind"]
        if kind == "list":
            mask[list(spec.members)] = True
        elif kind == "range":
            mask[spec.lo:spec.hi + 1] = True
        else:
            mask[spec.r::spec.m] = True
    return {
        "k11": np.flatnonzero(y_mask),
        "k10": np.flatnonzero(x_mask & ~y_mask),
        "k00": np.flatnonzero(~x_mask),
        "x": np.flatnonzero(x_mask),
    }


def _check_dim(state: np.ndarray, inst: ProblemInstance) -> None:
    if state.shape != (inst.n,):
        raise DimensionMismatch(
            f"state has shape {state.shape}, instance has n={inst.n}"
        )


def apply_oracle_full(state: np.ndarray, inst: ProblemInstance, which: str) -> np.ndarray:
    """Sign flip on X ('x') or on the targets Y ('y'); returns a new vector."""
    _check_dim(state, inst)
    idx = _class_indices(inst)
    out = state.copy()
    if which == "x":
        out[idx["x"]] *= -1.0
    elif which == "y":
        out[idx["k11"]] *= -1.0
    else:
        raise ValueError(f"oracle selector must be 'x' or 'y', got {which!r}")
    return out


def apply_diffusion_full(state: np.ndarray) -> np.ndarray:
    """Inversion about the mean: d_i -> 2*mean - d_i."""
    return 2.0 * state.mean() - state


def project_to_reduced(state: np.ndarray, inst: ProblemInstance,
                       tol: float = 1e-9) -> ReducedState:
    """Collapse a class-uniform full state to its three coordinates.

    Each coordinate is sqrt(class size) times the class's common amplitude.
    An empty class contributes exactly 0.0.  If amplitudes within a class
    spread wider than tol the state is not class-uniform (the schedule can
    never produce that) and NotClassUniform is raised.
    """
    _check_dim(state, inst)
    idx = _class_indices(inst)
    coords = []
    for cls in ("k00", "k10", "k11"):
        members = idx[cls]
        if members.size == 0:
            coords.append(0.0)
            continue
        vals = state[members]
        spread = float(vals.max() - vals.min())
        if spread > tol:
            raise NotClassUniform(
                f"class {cls} amplitudes spread {spread:.3g} > tol {tol:.3g}"
            )
        coords.append(math.sqrt(members.size) * float(vals.mean()))
    return ReducedState(*coords)


def run_schedule_full(inst: ProblemInstance, sched: Schedule,
                      record_trace: bool = True, cap: int | None = None
                      ) -> tuple[np.ndarray, Trace, QueryStats]:
    """Execute the full schedule on n amplitudes; trace rows are projected.

    The state is flipped and diffused in place.  Trace layout matches the
    reduced engine row for row, so the two runs can be compared pointwise;
    untraced, the trace has no rows.  Raises InstanceTooLarge when n
    exceeds the cap (default 2**20, env-overridable).
    """
    if cap is None:
        cap = full_state_cap()
    if inst.n > cap:
        raise InstanceTooLarge(
            f"n={inst.n} exceeds full-state cap {cap}"
            " (set IGROVER_FULL_CAP to raise it)"
        )
    idx = _class_indices(inst)
    flip_for = {"oracle_x": idx["x"], "oracle_y": idx["k11"]}
    # (column, members, sqrt(size)) per non-empty class; empty ones stay 0.0
    classes = [(col, idx[cls], math.sqrt(idx[cls].size))
               for col, cls in enumerate(("k00", "k10", "k11")) if idx[cls].size]
    xyz = np.zeros((1 + 2 * (3 * sched.L + 1) if record_trace else 0, 3))
    state = init_uniform(inst.n)
    row = 0

    def project() -> None:
        for col, members, root in classes:
            xyz[row, col] = root * float(state[members].mean())

    if record_trace:
        project()
    count_x = 0
    count_y = 0
    for _, op, steps in sched.segments():
        flip = flip_for[op]
        for _ in range(steps):
            state[flip] *= -1.0
            if op == "oracle_x":
                count_x += 1
            else:
                count_y += 1
            if record_trace:
                row += 1
                project()
            np.subtract(2.0 * state.mean(), state, out=state)
            if record_trace:
                row += 1
                project()
    check_norm(float(state @ state), "full")
    return (state, Trace(sched.L, xyz),
            QueryStats(count_x=count_x, count_y=count_y, repetitions=1))


def sample_measurement(state: np.ndarray, rng) -> int:
    """Draw one index with probability amplitude**2; rng is a seed or Generator."""
    rng = np.random.default_rng(rng)
    weights = np.cumsum(state * state)
    u = rng.random() * float(weights[-1])
    return int(np.searchsorted(weights, u, side="right"))


def save_state(path, state: np.ndarray) -> None:
    """Binary dump: 16-byte header (magic, version, n) then little-endian f64."""
    arr = np.asarray(state, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(STATE_MAGIC, STATE_VERSION, arr.shape[0]))
        fh.write(arr.tobytes())


def load_state(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise SpecFormatError("state file too short for its header")
        magic, version, n = _HEADER.unpack(header)
        if magic != STATE_MAGIC:
            raise SpecFormatError(f"bad state-file magic {magic!r}")
        if version != STATE_VERSION:
            raise SpecFormatError(f"unsupported state-file version {version}")
        payload = fh.read()
    if len(payload) != 8 * n:
        raise SpecFormatError(
            f"state file payload holds {len(payload)} bytes, header promises {8 * n}"
        )
    return np.frombuffer(payload, dtype="<f8").copy()
