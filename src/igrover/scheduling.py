"""Step-count selection, query accounting, and the repeat-until-verified driver.

One run of the search executes a fixed four-phase schedule determined by a
single integer L: uniform init, then L cheap-oracle iterations, one
expensive-oracle iteration, and 2L more cheap-oracle iterations.  Each
iteration is an oracle application followed by the diffusion reflection, so
a run costs exactly 3L cheap queries and one expensive query.

During the cheap phases the state turns by 2 * asin(sqrt(|X| / n)) per
iteration (as `final_point` computes).  L is chosen from the paper's chord
form of half that turn, which `compute_theta` returns,

    theta_chord = 2 * asin(0.5 * sqrt(|X| / n)),

and the selection policies differ only in how they round pi/4 / theta_chord.
"""

from __future__ import annotations

import math

from ._numpy import np
from .errors import shown
from .instance import (
    CLASS_K00,
    CLASS_K10,
    CLASS_K11,
    ClassCounts,
    ProblemInstance,
    frozen,
    instance_to_json,
    kth_in_class,
    verify_outcome,
)
from .fullstate import measurement_sampler
from .reduced import (POLICY_PAPER_FORMULA, POLICY_ROUNDED_HALF, POLICY_SWEPT,
                      ClosedForm, QueryStats, Schedule, final_point, run_schedule,
                      success_probability)


def compute_theta(counts: ClassCounts) -> float:
    """theta_chord = 2*asin(sqrt(|X|/n)/2), the angle that a chord of length
    sqrt(|X|/n) subtends.  It approximates asin(sqrt(|X|/n)), half the exact
    turn per iteration (n = 100, |X| = 36: 0.6094 against 0.6435)."""
    return 2.0 * math.asin(0.5 * math.sqrt((counts.k11 + counts.k10) / counts.n))


def _round_half_up(v: float) -> int:
    # banker's rounding would map 2.5 -> 2; the schedule wants 2.5 -> 3
    return int(math.floor(v + 0.5))


def choose_L(counts: ClassCounts, policy: str = POLICY_PAPER_FORMULA) -> Schedule:
    """Pick L for the given class sizes under one of three policies.

    paper_formula rounds pi/4 / theta_chord half-up; rounded_half first
    subtracts half an iteration (the init state already sits one half-step
    into the rotation) and never goes below zero; swept searches `sweep_L`'s
    default window around the formula value for the best exact success
    probability.
    """
    if policy == POLICY_SWEPT:
        return sweep_L(counts)[0]
    raw = (math.pi / 4.0) / compute_theta(counts)
    if policy == POLICY_ROUNDED_HALF:
        return Schedule(max(0, _round_half_up(raw - 0.5)), policy)
    return Schedule(_round_half_up(raw), policy)  # Schedule rejects unknown policies


def sweep_L(counts: ClassCounts, window: int = 3) -> tuple[Schedule, list[tuple[int, float]]]:
    """Exact success probability for every L within +-window of the formula L.

    Returns the best schedule (ties break toward smaller L) and the full
    (L, p_success) table in ascending L order, so L's row is at index
    L - table[0][0].  Each p is z * z of one `ClosedForm`'s final(L), the
    bits of `success_probability(final_point(counts, L))`, and every L is
    still checked for NormDrift.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {shown(window)}")
    center = choose_L(counts, POLICY_PAPER_FORMULA).L
    final = ClosedForm(counts).final
    table = []
    best_L, best_p = None, -1.0
    for L in range(max(0, center - window), center + window + 1):
        p = (z := final(L)[2]) * z
        table.append((L, p))
        if p > best_p:
            best_L, best_p = L, p
    return Schedule(best_L, POLICY_SWEPT), table


@frozen
class CostModel:
    """Abstract per-query prices for the cheap (t_x) and expensive (t_y) oracles."""

    t_x: float = 1.0
    t_y: float = 1.0

    def __post_init__(self):
        if not (0 < self.t_x < math.inf and 0 < self.t_y < math.inf):  # NaN fails too
            raise ValueError(f"query costs must be positive and finite, got {self}")


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):  # finite prices, but their product overflowed
        raise ValueError(f"{what} overflows a float ({value}); lower the query costs")
    return value


def query_cost(stats: QueryStats, model: CostModel) -> float:
    """The price of stats' oracle calls; ValueError if it is not finite."""
    per_run = stats.count_x * model.t_x + stats.count_y * model.t_y
    return _finite(stats.repetitions * per_run, "cost total")


def cost_record(counts: ClassCounts, stats: QueryStats, model: CostModel) -> dict:
    """The "cost" entry of the run and compare records; ValueError if a
    total is not finite."""
    return {"t_x": model.t_x, "t_y": model.t_y, "total": query_cost(stats, model),
            "naive_total": _finite(naive_iterations(counts) * model.t_y, "naive cost total")}


def naive_iterations(counts: ClassCounts) -> int:
    """Iteration count of single-oracle search driven by the expensive oracle.

    Zero means the target set is so dense that measuring the uniform state
    at once is already the best move; the baseline then costs nothing.
    """
    return int(math.floor((math.pi / 4.0) * math.sqrt(counts.n / counts.k11)))


def crossover_t_y(count_x: int, n_iters: int, t_x: float = 1.0) -> float | None:
    """The t_y (in t_x units) where one run's cost equals the baseline's.

    Above the returned value the two-oracle schedule is cheaper.  None when
    the baseline uses <= 1 expensive query, in which case no finite t_y can
    make the two-oracle run (which itself spends one) cheaper on its own.
    """
    if n_iters <= 1:
        return None
    return count_x * t_x / (n_iters - 1)


@frozen
class RunOutcome:
    """What a repeat-until-verified execution produced."""

    measured_index: int
    verified: bool
    repetitions: int
    p_success: float
    seed: int


def sample_from_reduced(point, inst: ProblemInstance, rng: np.random.Generator) -> int:
    """Draw one measured index from a reduced state without touching amplitudes.

    First pick a class with probability equal to its squared coordinate,
    then a uniform member of that class by rank.  Matches sampling the full
    n-amplitude state exactly, because amplitudes are constant within a class.
    """
    (x, y, z), counts = point, inst.counts
    live = [(cls, size, w) for cls, size, w in ((CLASS_K00, counts.k00, x * x),
                                                (CLASS_K10, counts.k10, y * y),
                                                (CLASS_K11, counts.k11, z * z))
            if size > 0]
    u = rng.random() * sum(w for _, _, w in live)
    acc = 0.0
    chosen = live[-1]
    for entry in live:
        acc += entry[2]
        if u < acc:
            chosen = entry
            break
    return kth_in_class(inst, chosen[0], _uniform_below(chosen[1], rng))


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
                         seed: int, state: np.ndarray | None = None) -> RunOutcome:
    """Run the schedule, measure, verify; repeat on failure up to max_reps.

    Each repetition is an independent fresh start of the whole schedule, but
    the evolution is deterministic, so the final state is computed once and
    only the measurement is redrawn.  Without `state` that is the reduced
    engine's closed form, and a draw picks a class, then a member by rank.
    With `state`, the index-order final state of a `run_schedule_full` run
    of this schedule, p is the squared norm of its target amplitudes and the
    draws all read one cumulative table of its squared amplitudes, built in
    its buffer (the state is consumed).  If no repetition verifies, the
    outcome is the last draw's, with verified False and max_reps repetitions.
    """
    if max_reps < 1:
        raise ValueError(f"max_reps must be >= 1, got {shown(max_reps)}")
    rng = np.random.default_rng(seed)
    if state is None:
        final, _, _ = run_schedule(inst.counts, sched, record_trace=False)
        p = success_probability(final)
        draw = lambda: sample_from_reduced(final, inst, rng)
    else:
        targets = state[inst.y_spec.selector()]
        # not targets @ targets: BLAS's threaded ddot takes ms to wake idle
        # worker threads, and its bits depend on the thread count
        p = float(np.einsum("i,i->", targets, targets))
        draw = measurement_sampler(state, rng)

    for rep in range(1, max_reps + 1):
        index = draw()
        if verify_outcome(inst, index):
            return RunOutcome(index, True, rep, p, seed)
    return RunOutcome(index, False, max_reps, p, seed)


def compare_record(inst: ProblemInstance, sched: Schedule, model: CostModel) -> dict:
    """The JSON-ready cost report of one run against the expensive-oracle-only
    baseline; ValueError if a cost or their ratio is not finite."""
    counts, stats = inst.counts, sched.queries()
    cost = cost_record(counts, stats, model)
    iters, naive = naive_iterations(counts), cost["naive_total"]
    ratio = _finite(cost["total"] / naive, "cost ratio") if naive > 0 else None
    return {
        "instance": {"n": inst.n, "x_size": inst.x_size, "y_size": inst.y_size},
        "L": sched.L,
        "policy": sched.selection_policy,
        "counts": {"x_queries": stats.count_x, "y_queries": stats.count_y},
        "cost": cost,
        "naive_iterations": iters,
        "cost_ratio": ratio,
        "crossover_t_y": crossover_t_y(stats.count_x, iters, model.t_x),
        "two_oracle_wins": bool(ratio is not None and ratio < 1.0),
        "p_success_exact": success_probability(final_point(counts, sched.L)),
    }


def result_record(inst: ProblemInstance, sched: Schedule, outcome: RunOutcome,
                  model: CostModel) -> dict:
    """The JSON-ready summary of one execution, costs included; the query
    counters charge every repetition in full."""
    stats = sched.queries(outcome.repetitions)
    return {
        "instance": instance_to_json(inst),
        "L": sched.L,
        "policy": sched.selection_policy,
        "counts": {
            "x_queries": stats.count_x,
            "y_queries": stats.count_y,
            "repetitions": stats.repetitions,
        },
        "cost": cost_record(inst.counts, stats, model),
        "p_success_exact": outcome.p_success,
        "measured_index": outcome.measured_index,
        "verified": outcome.verified,
        "seed": outcome.seed,
    }
