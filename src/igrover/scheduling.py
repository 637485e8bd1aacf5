"""Step-count selection, query accounting, and the repeat-until-verified driver.

One run of the search executes a fixed four-phase schedule determined by a
single integer L: uniform init, then L cheap-oracle iterations, one
expensive-oracle iteration, and 2L more cheap-oracle iterations.  Each
iteration is an oracle application followed by the diffusion reflection, so
a run costs exactly 3L cheap queries and one expensive query.

L is chosen from the per-iteration rotation angle theta.  During the cheap
phases the state turns by 2*theta per iteration where

    theta_chord  = 2 * asin(0.5 * sqrt(|X| / n))   (exact chord angle)
    theta_approx = sqrt(|X| / n)                   (small-angle shortcut)

and the selection policies differ only in how they round pi/4 / theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .errors import ExhaustedRepetitions
from .instance import (
    CLASS_K00,
    CLASS_K10,
    CLASS_K11,
    ClassCounts,
    ProblemInstance,
    instance_to_json,
    kth_in_class,
    partition_classes,
    verify_outcome,
)
from .fullstate import measurement_sampler, run_schedule_full
from .reduced import (POLICIES, POLICY_PAPER_FORMULA, POLICY_ROUNDED_HALF, POLICY_SWEPT,
                      QueryStats, Schedule, final_point, run_schedule, success_probability)


@dataclass(frozen=True)
class AngleParams:
    theta_chord: float
    theta_approx: float


def compute_theta(counts: ClassCounts) -> AngleParams:
    """Rotation-angle parameters from the class sizes.

    theta_approx is the chord length between successive trajectory points
    on the unit sphere, sqrt(|X|/n); the exact turning angle subtending
    that chord is theta_chord = 2*asin(theta_approx/2).
    """
    theta_approx = math.sqrt((counts.k11 + counts.k10) / counts.n)
    return AngleParams(2.0 * math.asin(0.5 * theta_approx), theta_approx)


def _round_half_up(v: float) -> int:
    # banker's rounding would map 2.5 -> 2; the schedule wants 2.5 -> 3
    return int(math.floor(v + 0.5))


def choose_L(counts: ClassCounts, policy: str = POLICY_PAPER_FORMULA,
             window: int = 3) -> Schedule:
    """Pick L for the given class sizes under one of three policies.

    paper_formula rounds pi/4 / theta_chord half-up; rounded_half first
    subtracts half an iteration (the init state already sits one half-step
    into the rotation) and never goes below zero; swept searches a window
    around the formula value for the best exact success probability.
    """
    if policy == POLICY_SWEPT:
        return sweep_L(counts, window)[0]
    raw = (math.pi / 4.0) / compute_theta(counts).theta_chord
    if policy == POLICY_PAPER_FORMULA:
        return Schedule(_round_half_up(raw), policy)
    if policy == POLICY_ROUNDED_HALF:
        return Schedule(max(0, _round_half_up(raw - 0.5)), policy)
    raise ValueError(f"unknown selection policy {policy!r}")


def sweep_L(counts: ClassCounts, window: int = 3) -> tuple[Schedule, list[tuple[int, float]]]:
    """Exact success probability for every L within +-window of the formula L.

    Returns the best schedule (ties break toward smaller L) and the full
    (L, p_success) table in ascending L order.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    center = choose_L(counts, POLICY_PAPER_FORMULA).L
    table = []
    best_L, best_p = None, -1.0
    for L in range(max(0, center - window), center + window + 1):
        p = success_probability(final_point(counts, L))
        table.append((L, p))
        if p > best_p:
            best_L, best_p = L, p
    return Schedule(best_L, POLICY_SWEPT), table


@dataclass(frozen=True)
class CostModel:
    """Abstract per-query prices for the cheap (t_x) and expensive (t_y) oracles."""

    t_x: float = 1.0
    t_y: float = 1.0

    def __post_init__(self):
        if not (0 < self.t_x < math.inf and 0 < self.t_y < math.inf):  # NaN fails too
            raise ValueError(f"query costs must be positive and finite, got {self}")


def query_cost(stats: QueryStats, model: CostModel) -> float:
    return stats.repetitions * (stats.count_x * model.t_x + stats.count_y * model.t_y)


def cost_record(counts: ClassCounts, stats: QueryStats, model: CostModel) -> dict:
    """The "cost" entry of the run and compare records."""
    return {"t_x": model.t_x, "t_y": model.t_y, "total": query_cost(stats, model),
            "naive_total": naive_grover_cost(counts, model)[1]}


def naive_iterations(counts: ClassCounts) -> int:
    """Iteration count of single-oracle search driven by the expensive oracle."""
    return int(math.floor((math.pi / 4.0) * math.sqrt(counts.n / counts.k11)))


def naive_grover_cost(counts: ClassCounts, model: CostModel) -> tuple[int, float]:
    """(iterations, total cost) of the expensive-oracle-only baseline.

    Zero iterations means the target set is so dense that measuring the
    uniform state immediately is already the best move; cost is then zero.
    """
    iters = naive_iterations(counts)
    return iters, iters * model.t_y


def crossover_t_y(count_x: int, n_iters: int, t_x: float = 1.0) -> float | None:
    """The t_y (in t_x units) where one run's cost equals the baseline's.

    Above the returned value the two-oracle schedule is cheaper.  None when
    the baseline uses <= 1 expensive query, in which case no finite t_y can
    make the two-oracle run (which itself spends one) cheaper on its own.
    """
    if n_iters <= 1:
        return None
    return count_x * t_x / (n_iters - 1)


@dataclass(frozen=True)
class RunOutcome:
    """What a repeat-until-verified execution produced."""

    measured_index: int
    verified: bool
    repetitions: int
    stats: QueryStats
    p_success: float
    seed: int


def sample_from_reduced(point, inst: ProblemInstance, rng: np.random.Generator,
                        counts: ClassCounts | None = None) -> int:
    """Draw one measured index from a reduced state without touching amplitudes.

    First pick a class with probability equal to its squared coordinate,
    then a uniform member of that class by rank.  Matches sampling the full
    n-amplitude state exactly, because amplitudes are constant within a class.
    `counts`, if given, must be `partition_classes(inst)`.
    """
    counts = counts or partition_classes(inst)
    live = [(cls, size, w) for cls, size, w in ((CLASS_K00, counts.k00, point.x * point.x),
                                                (CLASS_K10, counts.k10, point.y * point.y),
                                                (CLASS_K11, counts.k11, point.z * point.z))
            if size > 0]
    u = rng.random() * sum(w for _, _, w in live)
    acc = 0.0
    chosen = live[-1]
    for entry in live:
        acc += entry[2]
        if u < acc:
            chosen = entry
            break
    return kth_in_class(inst, chosen[0], _uniform_below(chosen[1], rng), counts)


def _uniform_below(size: int, rng: np.random.Generator) -> int:
    """A uniform integer in [0, size), exact for any size.

    `rng.integers` takes sizes up to 2**63 (int64).  Larger sizes draw
    `size.bit_length()` random bits from `rng.bytes` until the number they
    spell is below size, which each try is with probability over 1/2.
    """
    if size <= 1 << 63:
        return int(rng.integers(size))
    bits = size.bit_length()
    while True:
        j = int.from_bytes(rng.bytes((bits + 7) // 8), "little") >> (-bits % 8)
        if j < size:
            return j


def run_with_repetitions(inst: ProblemInstance, sched: Schedule, max_reps: int,
                         seed: int, engine: str = "reduced",
                         evolved: tuple[np.ndarray, QueryStats] | None = None
                         ) -> RunOutcome:
    """Run the schedule, measure, verify; repeat on failure up to max_reps.

    Each repetition is an independent fresh start of the whole schedule, but
    the evolution is deterministic, so the final state is computed once and
    only the measurement is redrawn.  With the full engine, `evolved` may
    carry the (final state, counters) of a `run_schedule_full` call on this
    schedule, which is then reused instead of evolving again.  The full
    engine's p is the squared norm of the target amplitudes, and its draws
    all read one cumulative table of the squared amplitudes.  Query
    counters still charge every repetition in full.  Raises
    ExhaustedRepetitions (carrying the final outcome) if no repetition
    verifies.
    """
    if max_reps < 1:
        raise ValueError(f"max_reps must be >= 1, got {max_reps}")
    counts = partition_classes(inst)
    rng = np.random.default_rng(seed)
    if engine == "reduced":
        final, _, run_stats = run_schedule(counts, sched, record_trace=False)
        p = success_probability(final)
        draw = lambda: sample_from_reduced(final, inst, rng, counts)
    elif engine == "full":
        if evolved is None:
            state, _, run_stats = run_schedule_full(inst, sched, record_trace=False)
        else:
            state, run_stats = evolved
        targets = state[inst.y_spec.selector()]
        p = float(targets @ targets)
        draw = measurement_sampler(state, rng)
    else:
        raise ValueError(f"unknown engine {engine!r}")

    index = -1
    for rep in range(1, max_reps + 1):
        index = draw()
        if verify_outcome(inst, index):
            stats = QueryStats(run_stats.count_x, run_stats.count_y, repetitions=rep)
            return RunOutcome(index, True, rep, stats, p, seed)
    stats = QueryStats(run_stats.count_x, run_stats.count_y, repetitions=max_reps)
    raise ExhaustedRepetitions(RunOutcome(index, False, max_reps, stats, p, seed))


def result_record(inst: ProblemInstance, sched: Schedule, outcome: RunOutcome,
                  model: CostModel) -> dict:
    """The JSON-ready summary of one execution, costs included."""
    return {
        "instance": instance_to_json(inst),
        "L": sched.L,
        "policy": sched.selection_policy,
        "counts": {
            "x_queries": outcome.stats.count_x,
            "y_queries": outcome.stats.count_y,
            "repetitions": outcome.stats.repetitions,
        },
        "cost": cost_record(partition_classes(inst), outcome.stats, model),
        "p_success_exact": outcome.p_success,
        "measured_index": outcome.measured_index,
        "verified": outcome.verified,
        "seed": outcome.seed,
    }
