"""Angle parameters, L policies, cost model, and the repetition driver."""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import igrover as ig
from igrover import cli, reduced, scheduling
from conftest import class_of, make_counts, one_query_ceiling, random_instance, theta_approx

REF = {"n": 16, "x": {"kind": "range", "lo": 0, "hi": 3},
       "y": {"kind": "list", "members": [2]}}


@st.composite
def counts_up_to(draw, n_max: int) -> ig.ClassCounts:
    n = draw(st.integers(2, n_max))
    kx = draw(st.integers(1, n))
    return make_counts(n, kx, draw(st.integers(1, kx)))


def end_point(inst: ig.ProblemInstance, sched: ig.Schedule) -> tuple[float, float, float]:
    """The reduced engine's final (x, y, z), which `run` passes to `run_with_repetitions`."""
    return ig.final_point(inst.counts, sched.L)


@st.composite
def nested_instances(draw, n_max: int = 200) -> dict:
    """An instance spec with Y inside X, each a list, range or mod spec; X
    may be the universe (k00 empty) and Y may equal X (k10 empty)."""
    n = draw(st.integers(2, n_max))
    kind = draw(st.sampled_from(["list", "range", "mod"]))
    if kind == "list":
        x = {"kind": "list", "members": sorted(draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=40, unique=True)))}
    elif kind == "range":
        lo = draw(st.integers(0, n - 1))
        x = {"kind": "range", "lo": lo, "hi": draw(st.integers(lo, n - 1))}
    else:
        m = draw(st.integers(1, n))
        x = {"kind": "mod", "m": m, "r": draw(st.integers(0, m - 1))}
    members = np.arange(n)[ig.build_instance({"n": n, "x": x, "y": x}).x_spec.selector()].tolist()
    kind = draw(st.sampled_from(["list", "range", "mod", "same"]))
    if kind == "same":
        y = x
    elif kind == "list":
        y = {"kind": "list", "members": sorted(draw(st.lists(
            st.sampled_from(members), min_size=1, max_size=10, unique=True)))}
    elif kind == "range":  # a run of consecutive members
        lo = draw(st.sampled_from(members))
        hi = lo
        while hi + 1 in members and draw(st.booleans()):
            hi += 1
        y = {"kind": "range", "lo": lo, "hi": hi}
    else:  # a multiple of X's period (the universe's is 1; n, one member, for the rest)
        period = x["m"] if x["kind"] == "mod" else 1 if len(members) == n else n
        m = period * draw(st.integers(1, max(1, n // period)))
        y = {"kind": "mod", "m": m, "r": draw(st.sampled_from(members)) % m}
    return {"n": n, "x": x, "y": y}


class TestAngles:
    def test_reference_values(self):
        counts = make_counts(1024, 16, 1)
        assert theta_approx(counts) == 0.125
        assert ig.compute_theta(counts) == pytest.approx(2.0 * math.asin(0.0625), abs=0)

    def test_chord_vs_small_angle_series(self):
        # 2*asin(s/2) = s + s^3/24 + 3 s^5/640 + ..., so the ratio to the
        # small-angle value sits in [1, 1 + (s^2/24) * (1 + eps)]
        for scale in (10 ** 4, 10 ** 6):
            counts = make_counts(scale * 64, 64, 1)
            ds = theta_approx(counts)
            ratio = ig.compute_theta(counts) / ds
            s2 = ds * ds
            assert 1.0 <= ratio <= 1.0 + (s2 / 24.0) * 1.001

    def test_relative_gap_shrinks_with_ratio(self):
        gaps = []
        for n in (256, 1024, 4096, 65536):
            counts = make_counts(n, 16, 1)
            chord = ig.compute_theta(counts)
            gaps.append((chord - theta_approx(counts)) / chord)
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)

    def test_series_bound_up_to_the_dense_boundary(self):
        # chord - ds <= ds^3/12 holds all the way out to |X| = n, where the
        # small-angle picture is at its worst (ds = 1, chord = pi/3)
        for n, kx in [(16, 16), (16, 8), (100, 99), (4096, 1), (10 ** 9, 12345)]:
            counts = make_counts(n, kx, 1)
            ds = theta_approx(counts)
            gap = ig.compute_theta(counts) - ds
            assert 0.0 <= gap <= ds ** 3 / 12.0
        dense = make_counts(16, 16, 1)
        assert theta_approx(dense) == 1.0
        assert ig.compute_theta(dense) == pytest.approx(math.pi / 3.0, abs=1e-15)

    def test_series_bound_on_random_ratios(self):
        # chord - ds = ds^3/24 + ..., under ds^3/12 for every |X|/n in (0, 1]
        rng = np.random.default_rng(41)
        for _ in range(2000):
            n = int(10 ** rng.uniform(0.31, 12.0))
            kx = int(rng.integers(1, n + 1))
            counts = make_counts(n, kx, 1)
            ds = theta_approx(counts)
            gap = ig.compute_theta(counts) - ds
            assert 0.0 <= gap <= ds ** 3 / 12.0, (n, kx)


class TestChooseL:
    @pytest.mark.parametrize("n,kx,expected", [
        (1024, 16, 6),
        (65536, 16, 50),
        (1024, 512, 1),
        (16, 4, 2),
    ])
    def test_paper_formula_values(self, n, kx, expected):
        assert ig.choose_L(make_counts(n, kx, 1)).L == expected

    def test_rounding_is_half_up(self):
        # raw = pi/4 / (2 asin(1/4)) = 1.554...: the two rounding policies split
        counts = make_counts(64, 16, 1)
        assert ig.choose_L(counts, ig.POLICY_PAPER_FORMULA).L == 2
        assert ig.choose_L(counts, ig.POLICY_ROUNDED_HALF).L == 1

    def test_dense_boundary_policies_split(self):
        # |X| = n: raw = (pi/4)/(pi/3) = 0.75, so formula says 1, half says 0
        counts = make_counts(16, 16, 2)
        assert ig.choose_L(counts, ig.POLICY_PAPER_FORMULA).L == 1
        assert ig.choose_L(counts, ig.POLICY_ROUNDED_HALF).L == 0

    def test_half_policy_never_exceeds_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            inst = random_instance(rng)
            counts = ig.partition_classes(inst)
            lo = ig.choose_L(counts, ig.POLICY_ROUNDED_HALF).L
            hi = ig.choose_L(counts, ig.POLICY_PAPER_FORMULA).L
            assert 0 <= lo <= hi <= lo + 1

    def test_swept_policy_is_at_least_as_good(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            inst = random_instance(rng, n_hi=1024)
            counts = ig.partition_classes(inst)
            best, table = ig.sweep_L(counts, window=3)
            assert best.selection_policy == ig.POLICY_SWEPT
            probs = dict(table)
            for policy in (ig.POLICY_PAPER_FORMULA, ig.POLICY_ROUNDED_HALF):
                other = ig.choose_L(counts, policy).L
                if other in probs:
                    assert probs[best.L] >= probs[other] - 1e-15

    def test_sweep_table_shape_and_clamp(self):
        counts = make_counts(1024, 512, 1)  # formula L = 1, window clips at 0
        best, table = ig.sweep_L(counts, window=3)
        assert [L for L, _ in table] == [0, 1, 2, 3, 4]
        assert all(0.0 <= p <= 1.0 for _, p in table)
        assert best.L in dict(table)

    def test_sweep_window_must_be_non_negative(self):
        counts = make_counts(1024, 16, 1)
        with pytest.raises(ValueError, match="window must be >= 0"):
            ig.sweep_L(counts, window=-1)
        best, table = ig.sweep_L(counts, window=0)
        assert table == [(best.L, table[0][1])]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(counts_up_to(2 ** 70), st.integers(0, 20))
    @example(make_counts(2 ** 1000, 2 ** 10, 3), 20)
    @example(make_counts(1000, 200, 3), 20)  # the window reaches L = 0
    def test_sweep_rows_are_final_point_bits(self, counts, window):
        best, table = ig.sweep_L(counts, window)
        center = ig.choose_L(counts).L
        assert [L for L, _ in table] == list(range(max(0, center - window), center + window + 1))
        for L, p in table:
            assert p.hex() == ig.success_probability(ig.final_point(counts, L)).hex()
        assert dict(table)[best.L] == max(p for _, p in table)

    def test_sweep_checks_every_L(self, monkeypatch):
        checked = []
        monkeypatch.setattr(reduced, "check_norm", lambda norm_sq, engine: checked.append(engine))
        _, table = ig.sweep_L(make_counts(1024, 16, 1), window=3)
        assert checked == ["reduced"] * len(table) and len(table) == 7
        monkeypatch.undo()
        monkeypatch.setattr(reduced, "_NORM_TOL", -1.0)  # no state passes
        with pytest.raises(ig.NormDrift, match="reduced state left the unit sphere"):
            ig.sweep_L(make_counts(1024, 16, 1), window=0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ig.Schedule(-1)
        with pytest.raises(ValueError):
            ig.Schedule(2, "greedy")
        with pytest.raises(ValueError):
            ig.choose_L(make_counts(16, 4, 1), "greedy")


class TestCosts:
    def test_query_cost(self):
        stats = ig.QueryStats(count_x=18, count_y=1, repetitions=3)
        model = ig.CostModel(t_x=1.0, t_y=100.0)
        assert ig.query_cost(stats, model) == 3 * (18 + 100.0)

    def test_naive_baseline(self):
        model = ig.CostModel(t_y=10.0)
        iters = ig.naive_iterations(make_counts(1024, 16, 1))
        assert iters == 25
        assert iters * model.t_y == 250.0
        # target set = everything: measuring immediately is free
        iters = ig.naive_iterations(make_counts(16, 16, 16))
        assert (iters, iters * ig.CostModel().t_y) == (0, 0.0)

    def test_costs_past_the_largest_float_raise(self):
        # finite prices whose products, or whose ratio, overflow a float
        inst, sched = ig.build_instance(REF), ig.Schedule(2)
        huge = ig.CostModel(t_x=1e308, t_y=1e308)
        with pytest.raises(ValueError, match="^cost total overflows a float"):
            ig.query_cost(sched.queries(), huge)
        with pytest.raises(ValueError, match="^naive cost total overflows a float"):
            scheduling.cost_record(inst.counts, ig.QueryStats(0, 1), huge)
        with pytest.raises(ValueError, match="^cost ratio overflows a float"):
            scheduling.compare_record(inst, sched, ig.CostModel(t_x=1e300, t_y=1e-300))
        rep = scheduling.compare_record(inst, sched, ig.CostModel(t_x=1e300, t_y=1e300))
        assert (rep["cost"]["total"], rep["cost"]["naive_total"]) == (7e300, 3e300)
        assert rep["cost_ratio"] == 7e300 / 3e300

    def test_crossover(self):
        assert ig.crossover_t_y(18, 25, 1.0) == 0.75
        assert ig.crossover_t_y(18, 1, 1.0) is None
        assert ig.crossover_t_y(18, 0, 1.0) is None

    def test_cost_model_validation(self):
        with pytest.raises(ValueError):
            ig.CostModel(t_x=0.0)
        with pytest.raises(ValueError):
            ig.CostModel(t_y=-2.0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                ig.CostModel(t_x=bad)
            with pytest.raises(ValueError, match="positive and finite"):
                ig.CostModel(t_y=bad)


class TestRepetitions:
    def test_verified_outcome_is_a_target(self):
        inst = ig.build_instance(REF)
        sched = ig.choose_L(ig.partition_classes(inst))
        out = ig.run_with_repetitions(inst, end_point(inst, sched), max_reps=20, seed=0)
        assert out.verified
        assert out.measured_index == 2
        assert out.repetitions == 1
        q = sched.queries(out.repetitions)
        assert (q.count_x, q.count_y) == (6, 1)
        assert out.p_success == pytest.approx(121 / 256, rel=1e-12)

    def test_deterministic_per_seed(self):
        inst = ig.build_instance(REF)
        sched = ig.choose_L(ig.partition_classes(inst))
        a = ig.run_with_repetitions(inst, end_point(inst, sched), 20, seed=7)
        b = ig.run_with_repetitions(inst, end_point(inst, sched), 20, seed=7)
        assert a == b

    def test_unverified_run_returns_its_last_draw(self):
        inst = ig.build_instance(REF)
        sched = ig.choose_L(ig.partition_classes(inst))
        out = ig.run_with_repetitions(inst, end_point(inst, sched), max_reps=1, seed=1)
        assert not out.verified
        assert out.repetitions == 1
        assert out.measured_index == 3
        assert not inst.in_y(out.measured_index)
        # counters still charge the failed repetition
        q = sched.queries(out.repetitions)
        assert (q.count_x, q.count_y, q.repetitions) == (6, 1, 1)

    def test_repetitions_counted_in_stats(self):
        inst = ig.build_instance(REF)
        sched = ig.choose_L(ig.partition_classes(inst))
        rng = np.random.default_rng(101)
        for _ in range(50):
            out = ig.run_with_repetitions(inst, end_point(inst, sched), 50,
                                          seed=int(rng.integers(2**32)))
            record = ig.result_record(inst, sched, out, ig.CostModel())
            assert record["counts"]["repetitions"] == out.repetitions
            assert inst.in_y(out.measured_index)

    def test_certain_success_always_takes_one_repetition(self):
        # n=4, X=Y={0}, L=2 lands on the target with probability 1 (up to fp),
        # so every seed verifies on the first draw
        inst = ig.build_instance({"n": 4, "x": {"kind": "list", "members": [0]},
                                  "y": {"kind": "list", "members": [0]}})
        sched = ig.Schedule(L=2, selection_policy=ig.POLICY_SWEPT)
        for seed in range(30):
            out = ig.run_with_repetitions(inst, end_point(inst, sched), max_reps=20, seed=seed)
            assert out.verified
            assert out.repetitions == 1
            assert out.measured_index == 0
            assert out.p_success >= 1.0 - 1e-9

    def test_full_engine_agrees_on_probability(self):
        inst = ig.build_instance(REF)
        sched = ig.choose_L(ig.partition_classes(inst))
        red = ig.run_with_repetitions(inst, end_point(inst, sched), 50, seed=5)
        _, _, final = ig.run_schedule_full(inst, sched, record_trace=False)
        ful = ig.run_with_repetitions(inst, final, 50, seed=5)
        assert ful.p_success == pytest.approx(red.p_success, abs=1e-12)
        assert (ful.measured_index, ful.repetitions) == (red.measured_index, red.repetitions)
        assert inst.in_y(ful.measured_index)
        with pytest.raises(ValueError):
            ig.run_with_repetitions(inst, final, 0, 0)

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("engines") / "inst.json"

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(nested_instances(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([[], ["--policy", "half"], ["--L", "0"], ["--L", "3"],
                            ["--reps", "1"]]))
    @example(REF, 1, ["--reps", "1"])  # unverified: exit 3
    @example({"n": 12, "x": {"kind": "mod", "m": 1, "r": 0},
              "y": {"kind": "range", "lo": 3, "hi": 5}}, 4, [])  # k00 empty
    @example({"n": 12, "x": {"kind": "mod", "m": 3, "r": 1},
              "y": {"kind": "mod", "m": 3, "r": 1}}, 4, [])  # k10 empty
    def test_engines_draw_the_same_index(self, path, spec, seed, flags):
        # every engine hands its final (x, y, z) to one sampler, so only the
        # last bits of p can tell the full engine's record from the reduced
        path.write_text(json.dumps(spec))
        runs = {}
        for engine in ("reduced", "full", "both"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["run", "--instance", str(path), "--engine", engine,
                                 "--seed", str(seed), *flags])
            runs[engine] = code, out.getvalue()
        assert runs["both"] == runs["reduced"]
        (code_r, out_r), (code_f, out_f) = runs["reduced"], runs["full"]
        assert code_f == code_r in (0, 3)
        red, ful = json.loads(out_r), json.loads(out_f)
        assert abs(ful.pop("p_success_exact") - red.pop("p_success_exact")) <= 1e-9
        assert ful == red

    def test_sampler_matches_squared_coordinates(self):
        inst = ig.build_instance(REF)
        counts = ig.partition_classes(inst)
        final, _, _ = ig.run_schedule(counts, ig.choose_L(counts), record_trace=False)
        rng = np.random.default_rng(2024)
        m = 40000
        hits = np.zeros(16)
        for _ in range(m):
            hits[ig.sample_from_reduced(final, inst, rng)] += 1
        exact = np.empty(16)
        x, y, z = final
        exact[:] = x ** 2 / 12  # 12 indices outside X
        exact[0:4] = y ** 2 / 3
        exact[2] = z ** 2
        np.testing.assert_allclose(hits / m, exact, rtol=0, atol=0.02)

    def test_sparse_target_asymptote(self):
        # as |Y|/|X| -> 0 (with |X|/n -> 0) the run's success probability
        # approaches 9*|Y|/|X|, read off the closed form in `final_point`
        # with eps = uz = sqrt(|Y|/|X|), uy ~ 1: phase 1 ends on u; the
        # expensive iteration leaves u-part b ~ -1 and w-part g = -2*uy*uz
        # ~ -2*eps; the ~pi phase-3 turn flips b to ~ +1 and keeps g, so
        # z = b*uz - g*uy ~ eps + 2*eps = 3*eps
        for n, kx, ky in ((10 ** 12, 10 ** 6, 1), (10 ** 12, 10 ** 6, 2),
                          (10 ** 10, 10 ** 5, 1)):
            counts = make_counts(n, kx, ky)
            final, _, _ = ig.run_schedule(counts, ig.choose_L(counts),
                                          record_trace=False)
            p = ig.success_probability(final)
            assert p == pytest.approx(9.0 * ky / kx, rel=5e-3)

    def test_never_beats_one_query_ceiling(self):
        # one expensive query caps p at sin^2(3*asin(sqrt(|Y|/|X|))) whatever
        # L is; criterion 6 splits its grid on this ceiling, so check it on
        # random cells (log-uniform n, |X|, |Y|) and every L up to 32
        rng = np.random.default_rng(1997)
        for _ in range(60):
            n = int(np.exp(rng.uniform(np.log(4), np.log(10 ** 9))))
            kx = int(np.exp(rng.uniform(0.0, np.log(n))))
            ky = int(np.exp(rng.uniform(0.0, np.log(kx))))
            counts = make_counts(n, kx, ky)
            ceiling = one_query_ceiling(kx, ky)
            for L in range(33):
                final, _, _ = ig.run_schedule(counts, ig.Schedule(L),
                                              record_trace=False)
                assert ig.success_probability(final) <= ceiling + 1e-12, (n, kx, ky, L)

    def test_unverified_run_on_huge_sparse_instance(self):
        # p ~ 9*|Y|/|X| = 1.8e-5 here, so 20 repetitions essentially never
        # verify; the failure path must still sample real indices from the
        # 10^12-element universe
        inst = ig.build_instance({
            "n": 10 ** 12,
            "x": {"kind": "mod", "m": 10 ** 6, "r": 0},
            "y": {"kind": "list", "members": [0, 5 * 10 ** 6]},
        })
        sched = ig.choose_L(ig.partition_classes(inst))
        out = ig.run_with_repetitions(inst, end_point(inst, sched), max_reps=20, seed=3)
        assert not out.verified
        assert out.repetitions == 20
        assert 0 <= out.measured_index < 10 ** 12
        assert not ig.verify_outcome(inst, out.measured_index)

    def test_sampler_skips_empty_classes(self):
        inst = ig.build_instance({"n": 8, "x": {"kind": "mod", "m": 1, "r": 0},
                                  "y": {"kind": "mod", "m": 1, "r": 0}})
        counts = ig.partition_classes(inst)
        assert (counts.k10, counts.k00) == (0, 0)
        final, _, _ = ig.run_schedule(counts, ig.Schedule(1), record_trace=False)
        rng = np.random.default_rng(8)
        for _ in range(100):
            assert 0 <= ig.sample_from_reduced(final, inst, rng) < 8


class TestHugeClassDraw:
    """A uniform rank in classes past int64 (numpy's `integers` stops at 2**63)."""

    @staticmethod
    def small_x(n):
        return ig.build_instance({"n": n, "x": {"kind": "range", "lo": 0, "hi": 99},
                                  "y": {"kind": "list", "members": [7]}})

    @pytest.mark.parametrize("n", [10 ** 20, 10 ** 30])
    def test_cli_run_measures_an_index_and_reruns_identically(self, n, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(ig.instance_to_json(self.small_x(n))))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            argv = ["run", "--instance", str(path), "--L", "0", "--seed", "3",
                    "--out", str(out)]
            assert cli.main(argv) in (0, 3)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rec = json.loads(outs[0])
        assert 0 <= rec["measured_index"] < n
        assert rec["verified"] == (rec["measured_index"] == 7)

    @pytest.mark.parametrize("n", [10 ** 20, 10 ** 30, (1 << 64) + 100])
    def test_draws_stay_in_their_class_and_spread_over_it(self, n):
        inst = self.small_x(n)
        rng = np.random.default_rng(17)
        ranks = []
        for point, cls in (((1.0, 0.0, 0.0), "k00"), ((0.0, 1.0, 0.0), "k10"),
                           ((0.0, 0.0, 1.0), "k11")):
            for _ in range(200):
                index = ig.sample_from_reduced(point, inst, rng)
                assert 0 <= index < n and class_of(inst, index) == cls
                if cls == "k00":
                    ranks.append((index - 100) / (n - 100))
        # a uniform rank: about half in the upper half, and the top eighth reached
        assert 0.4 < sum(r >= 0.5 for r in ranks) / len(ranks) < 0.6
        assert max(ranks) >= 0.875

    @pytest.mark.parametrize("n", [10 ** 18, (1 << 63) + 100])
    def test_classes_up_to_2_63_draw_as_before(self, n, tmp_path):
        # k00 = n - 100 is at most 2**63 here, where `rng.integers(size)`
        # has always drawn the rank; these records are pinned
        pinned = {10 ** 18: [16527635528529194, 948649447137243975, 91915942135097108],
                  (1 << 63) + 100: [152440531369162866, 8749746783503398989,
                                    847774930430015586]}
        inst = self.small_x(n)
        for seed, index in enumerate(pinned[n]):
            out = ig.run_with_repetitions(inst, end_point(inst, ig.Schedule(0)), 2, seed)
            assert not out.verified
            assert out.measured_index == index
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            ref.random()
            assert (ig.sample_from_reduced((1.0, 0.0, 0.0), inst, rng)
                    == 100 + int(ref.integers(n - 100)))


class TestResultRecord:
    def test_schema_and_values(self):
        inst = ig.build_instance(REF)
        sched = ig.choose_L(ig.partition_classes(inst))
        out = ig.run_with_repetitions(inst, end_point(inst, sched), 20, seed=0)
        rec = ig.result_record(inst, sched, out, ig.CostModel(t_x=1.0, t_y=10.0))
        assert rec["instance"] == REF
        assert rec["L"] == 2
        assert rec["policy"] == "paper_formula"
        assert rec["counts"] == {"x_queries": 6, "y_queries": 1, "repetitions": 1}
        assert rec["cost"]["total"] == 16.0
        assert rec["cost"]["naive_total"] == 30.0
        assert rec["measured_index"] == 2
        assert rec["verified"] is True
        assert rec["seed"] == 0
        assert rec["p_success_exact"] == pytest.approx(121 / 256, rel=1e-12)
