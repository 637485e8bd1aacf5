"""Acceptance suite: one test and one printed verdict line per criterion.

`pyproject.toml` sets `addopts = "-rP"`, so the verdict lines, and the cells
criterion 6 prints as out of reach of one expensive query, show up in the
summary of every plain `pytest` run, passing or failing.  Run
`pytest -v -s tests/test_acceptance.py` to see them inline instead.
"""

from __future__ import annotations

import math
import time

import numpy as np

import igrover as ig
from conftest import make_counts, one_query_ceiling, random_instance

REF = {"n": 16, "x": {"kind": "range", "lo": 0, "hi": 3},
       "y": {"kind": "list", "members": [2]}}


def report(name: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    return line


def test_criterion_1_engine_equivalence():
    """Reduced and full traces agree pointwise within 1e-9 on 200 random instances."""
    rng = np.random.default_rng(20250821)
    t0 = time.monotonic()
    worst = 0.0
    count = 200
    for i in range(count):
        inst = random_instance(rng, n_lo=8, n_hi=4096)
        counts = ig.partition_classes(inst)
        kind = i % 4
        if kind == 0:
            sched = ig.choose_L(counts, ig.POLICY_PAPER_FORMULA)
        elif kind == 1:
            sched = ig.choose_L(counts, ig.POLICY_ROUNDED_HALF)
        elif kind == 2:
            sched = ig.choose_L(counts, ig.POLICY_SWEPT)
        else:
            sched = ig.Schedule(int(rng.integers(0, 41)))
        _, trace_r, stats_r = ig.run_schedule(counts, sched)
        _, trace_f, stats_f = ig.run_schedule_full(inst, sched)
        assert stats_r == stats_f
        worst = max(worst, float(trace_r.gaps(trace_f).max()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    line = report("criterion-1 engine-equivalence", ok,
                  f"{count} instances, max pointwise delta {worst:.3g}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_2_query_counters():
    """Every run spends exactly 3L cheap and 1 expensive query; L stays bounded.

    The stepwise (traced) path counts per oracle call, and its counters must
    match the oracle rows of its own trace; the closed-form (untraced) path
    reports the schedule's counts, and both must equal (3L, 1).
    """
    rng = np.random.default_rng(77)
    violations = []
    for _ in range(60):
        inst = random_instance(rng)
        counts = ig.partition_classes(inst)
        sched = ig.choose_L(counts)
        _, trace, stepped = ig.run_schedule(counts, sched)
        _, _, stats = ig.run_schedule(counts, sched, record_trace=False)
        calls = (sum(r.op == "oracle_x" for r in trace),
                 sum(r.op == "oracle_y" for r in trace))
        if (stepped.count_x, stepped.count_y) != calls:
            violations.append(("stepwise-vs-trace", counts, stepped, calls))
        for path, got in (("stepwise", stepped), ("untraced", stats)):
            if (got.count_x, got.count_y) != (3 * sched.L, 1):
                violations.append((path, counts, got))
        bound = math.ceil((math.pi / 4.0) * math.sqrt(counts.n / (counts.k11 + counts.k10))) + 1
        if sched.L > bound:
            violations.append(("L-bound", counts, sched.L, bound))
    ok = not violations
    line = report("criterion-2 query-counters", ok,
                  "60 runs, stepwise and untraced counters exactly (3L, 1), "
                  "L within ceil((pi/4)sqrt(n/|X|))+1"
                  if ok else f"violations: {violations[:3]}")
    assert ok, line


def test_criterion_3_norm_drift():
    """Unit norm survives 1e5 reduced operations and a full 2^20-amplitude run.

    The reduced run is traced, which steps every operation (the untraced
    path is a closed form and applies none); each trace row after init is
    one applied operation, and drift is the worst over all of them.
    """
    counts = make_counts(4096, 64, 4)
    L = 16667  # 2*(3L+1) > 1e5 operations applied in one schedule
    _, trace, _ = ig.run_schedule(counts, ig.Schedule(L))
    ops_reduced = len(trace) - 1
    drift_reduced = max(abs(r.point.norm_sq() - 1.0) for r in trace)

    inst = ig.build_instance({
        "n": 1 << 20,
        "x": {"kind": "range", "lo": 0, "hi": 1023},
        "y": {"kind": "range", "lo": 0, "hi": 15},
    })
    state, _, _ = ig.run_schedule_full(inst, ig.Schedule(1000), record_trace=False)
    drift_full = abs(float(state @ state) - 1.0)

    ok = ops_reduced >= 100_000 and drift_reduced <= 1e-9 and drift_full <= 1e-9
    line = report("criterion-3 norm-drift", ok,
                  f"reduced {ops_reduced} ops drift {drift_reduced:.3g}, "
                  f"full n=2^20 L=1000 drift {drift_full:.3g}")
    assert ok, line


def test_criterion_4_phase1_geometry():
    """Sparse-X cells: equal per-step angles near 2*theta_chord, coplanar stops."""
    cells = []
    for n, kx in ((1024, 16), (4096, 16), (4096, 64), (16384, 64), (16384, 256)):
        for ky in {1, max(1, kx // 16)}:
            cells.append((n, kx, ky))
    failures = []
    for n, kx, ky in cells:
        counts = make_counts(n, kx, ky)
        sched = ig.choose_L(counts)
        _, trace, _ = ig.run_schedule(counts, sched)
        angles = ig.phase1_rotation_check(trace)
        resid = ig.phase1_coplanarity_residual(trace)
        theta = ig.compute_theta(counts).theta_chord
        spread = max(angles) - min(angles)
        rel = max(abs(a - 2.0 * theta) / (2.0 * theta) for a in angles)
        if spread > 1e-9 or rel > 0.05 or resid > 1e-9:
            failures.append((n, kx, ky, spread, rel, resid))
    ok = not failures
    line = report("criterion-4 phase1-geometry", ok,
                  f"{len(cells)} cells with |X|/n <= 1/64: angle spread <= 1e-9, "
                  "within 5% of 2*theta_chord, coplanarity residual <= 1e-9"
                  if ok else f"failing cells: {failures}")
    assert ok, line


def test_criterion_5_small_angle_validity():
    """theta_chord and theta_approx differ by at most 0.1% when |X|/n <= 0.01."""
    cells = [(6400, 64), (12800, 64), (65536, 64), (10 ** 6, 100), (10 ** 8, 100)]
    worst = 0.0
    for n, kx in cells:
        assert kx / n <= 0.01
        params = ig.compute_theta(make_counts(n, kx, 1))
        gap = (params.theta_chord - params.theta_approx) / params.theta_chord
        worst = max(worst, gap)
    ok = worst <= 1e-3
    line = report("criterion-5 small-angle-validity", ok,
                  f"max relative gap {worst:.3g} over {len(cells)} cells (bound 1e-3)")
    assert ok, line


def test_criterion_6_twenty_repetition_claim():
    """20 repetitions verify with probability >= 0.9 wherever one query can.

    Per-cell success probability p comes from the reduced engine and must not
    exceed the one-expensive-query ceiling.  The claim 1 - (1-p)^20 >= 0.9 is
    asserted on every cell whose ceiling meets it; the remaining cells
    (|Y|/|X| below ~0.012496) are out of reach of any one-query schedule and
    are printed with their figures.
    """
    reps, target = 20, 0.9
    cells = []
    for n in (1024, 4096, 16384):
        for denom in (256, 64, 16):
            kx = n // denom
            if kx < 1:
                continue
            for ky in sorted({1, max(1, kx // 16)}):
                cells.append((n, kx, ky))
    above_ceiling, violations, out_of_reach = [], [], []
    for n, kx, ky in cells:
        counts = make_counts(n, kx, ky)
        sched = ig.choose_L(counts)
        final, _, _ = ig.run_schedule(counts, sched, record_trace=False)
        p = ig.success_probability(final)
        p_reps = 1.0 - (1.0 - p) ** reps
        ceiling = one_query_ceiling(kx, ky)
        row = (n, kx, ky, sched.L, p, p_reps, ceiling)
        if p > ceiling + 1e-12:
            above_ceiling.append(row)
        if 1.0 - (1.0 - ceiling) ** reps >= target:
            if p_reps < target:
                violations.append(row)
        else:
            out_of_reach.append(row)
    reachable = len(cells) - len(out_of_reach)
    ok = not above_ceiling and not violations
    line = report("criterion-6 twenty-repetition-claim", ok,
                  f"{reachable - len(violations)}/{reachable} reachable cells reach "
                  f">= {target} within {reps} repetitions, p <= one-query ceiling on "
                  f"{len(cells) - len(above_ceiling)}/{len(cells)} cells, "
                  f"{len(out_of_reach)} cells out of reach of one expensive query")
    for label, rows in (("above one-query ceiling", above_ceiling),
                        ("violated", violations),
                        ("out of reach of one expensive query", out_of_reach)):
        for n, kx, ky, L, p, p_reps, ceiling in rows:
            print(f"    {label} at n={n} |X|={kx} |Y|={ky} (L={L}): "
                  f"p_success={p:.8f}, {reps}-rep success={p_reps:.4f}, "
                  f"ceiling={ceiling:.8f}", flush=True)
    assert ok, line


def test_criterion_7_cost_crossover():
    """Reference cell: 18 cheap + 1 expensive vs 25 expensive; crossover at 0.75."""
    inst = ig.build_instance({
        "n": 1024,
        "x": {"kind": "range", "lo": 0, "hi": 15},
        "y": {"kind": "list", "members": [0]},
    })
    counts = ig.partition_classes(inst)
    sched = ig.choose_L(counts)
    _, _, stats = ig.run_schedule(counts, sched, record_trace=False)
    iters = ig.naive_grover_cost(counts, ig.CostModel())[0]
    cross = ig.crossover_t_y(stats.count_x, iters, 1.0)

    checks = [sched.L == 6, (stats.count_x, stats.count_y) == (18, 1),
              iters == 25, cross == 0.75]
    expected_ratios = {1.0: 19 / 25, 10.0: 28 / 250, 100.0: 118 / 2500,
                       1000.0: 1018 / 25000}
    ratios = []
    for t_y in (1.0, 10.0, 100.0, 1000.0):
        model = ig.CostModel(t_x=1.0, t_y=t_y)
        ratio = ig.query_cost(stats, model) / ig.naive_grover_cost(counts, model)[1]
        ratios.append(ratio)
        checks.append(abs(ratio - expected_ratios[t_y]) <= 1e-12)
    checks.append(all(a > b for a, b in zip(ratios, ratios[1:])))
    ok = all(checks)
    line = report("criterion-7 cost-crossover", ok,
                  f"L=6 run: 18 t_x + t_y vs 25 t_y, crossover t_y={cross}, "
                  f"ratios {[round(r, 6) for r in ratios]} strictly decreasing")
    assert ok, line


def test_criterion_8_measurement_statistics():
    """Sampling matches squared amplitudes; repetitions follow the geometric law."""
    inst = ig.build_instance(REF)
    counts = ig.partition_classes(inst)
    sched = ig.choose_L(counts)

    state, _, _ = ig.run_schedule_full(inst, sched, record_trace=False)
    exact = state * state
    rng = np.random.default_rng(2025)
    m = 100_000
    hits = np.zeros(inst.n)
    for _ in range(m):
        hits[ig.sample_measurement(state, rng)] += 1
    tv = 0.5 * float(np.abs(hits / m - exact).sum())

    trials = 10_000
    total_reps = 0
    p = ig.success_probability(ig.run_schedule(counts, sched, record_trace=False)[0])
    for seed in range(trials):
        total_reps += ig.run_with_repetitions(inst, sched, 1000, seed).repetitions
    mean_reps = total_reps / trials
    rel = abs(mean_reps - 1.0 / p) * p

    ok = tv <= 0.01 and rel <= 0.05
    line = report("criterion-8 measurement-statistics", ok,
                  f"TV distance {tv:.4f} at 1e5 samples (bound 0.01); "
                  f"mean repetitions {mean_reps:.4f} vs 1/p {1.0 / p:.4f} "
                  f"({100 * rel:.2f}% off, bound 5%)")
    assert ok, line
