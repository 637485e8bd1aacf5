"""Three-coordinate engine: operators, schedule runs, trace geometry."""

from __future__ import annotations

import csv
import decimal
import hashlib
import json
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import igrover as ig
from igrover import cli, fullstate, reduced
from conftest import (InsufficientTrace, diffusion, exact_p, exact_stops, make_counts,
                      oracle_x, oracle_y, phase1_coplanarity_residual, phase1_rotation_check,
                      range_instance, stepped_stops, theta_approx, trace_labels, trace_rows)


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestOperators:
    def test_initial_point_values(self):
        # sqrt(12/16), sqrt(3/16), sqrt(1/16)
        p = ig.initial_point(make_counts(16, 4, 1))
        assert p == (0.8660254037844386, 0.4330127018922193, 0.25)
        # no indices outside X: first coordinate is exactly zero
        p = ig.initial_point(make_counts(4, 4, 2))
        assert p == (0.0, 0.7071067811865476, 0.7071067811865476)
        # degenerate instance where everything is a target
        p = ig.initial_point(make_counts(8, 8, 8))
        assert p == (0.0, 0.0, 1.0)

    def test_oracles_flip_the_right_signs(self):
        p = (0.3, -0.5, 0.7)
        assert oracle_x(p) == (0.3, 0.5, -0.7)
        assert oracle_y(p) == (0.3, -0.5, -0.7)

    def test_oracles_are_involutions_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            p = tuple(v.tolist())
            for oracle in (oracle_x, oracle_y):
                assert list(map(bits, oracle(oracle(p)))) == list(map(bits, p))
                # the outside-X coordinate never moves at all
                assert bits(oracle(p)[0]) == bits(p[0])

    def test_diffusion_hand_case(self):
        q = diffusion((1.0, 0.0, 0.0), (0.5, 0.5, math.sqrt(0.5)))
        np.testing.assert_allclose(q, (-0.5, 0.5, 0.7071067811865476), rtol=0, atol=1e-15)

    def test_diffusion_hand_case_n16(self):
        # axis state reflected through the n=16, |X|=4, |Y|=1 uniform direction:
        # 2*s_x*s - e_x, worked out by hand
        s = ig.initial_point(make_counts(16, 4, 1))
        q = diffusion((1.0, 0.0, 0.0), s)
        np.testing.assert_allclose(q, (0.5, 0.75, 0.4330127018922193), rtol=0, atol=1e-15)

    def test_diffusion_is_an_involution_and_fixes_s(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = rng.random(3) + 0.01
            w /= w.sum()
            s = tuple(np.sqrt(w).tolist())
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            p = tuple(v.tolist())
            np.testing.assert_allclose(diffusion(diffusion(p, s), s), p, rtol=0, atol=1e-14)
            np.testing.assert_allclose(diffusion(s, s), s, rtol=0, atol=1e-14)

    def test_expensive_iteration_is_oracle_y_then_diffusion_bitwise(self):
        rng = np.random.default_rng(5)
        for cell in ((16, 4, 1), (1024, 8, 8), (999, 999, 5), (10 ** 12, 100, 1)):
            form = reduced.ClosedForm(make_counts(*cell))
            s = form.s
            for _ in range(20):
                v = rng.normal(size=3)
                p = tuple((v / np.linalg.norm(v)).tolist())
                want = diffusion(oracle_y(p), s)
                assert list(map(bits, form.expensive(*p))) == list(map(bits, want))

    def test_success_probability(self):
        assert ig.success_probability((0.0, 0.0, -0.5)) == 0.25


class TestRunSchedule:
    def test_reference_run(self):
        counts = make_counts(16, 4, 1)
        sched = ig.choose_L(counts)
        assert sched.L == 2
        final, trace, stats = ig.run_schedule(counts, sched)
        assert len(trace) == 1 + 2 * (3 * sched.L + 1)
        assert (stats.count_x, stats.count_y, stats.repetitions) == (6, 1, 1)
        np.testing.assert_allclose(
            final,
            (-0.6495190528383286, 0.32475952641916406, 0.6875),
            rtol=0, atol=1e-12)
        # exact value is 121/256
        np.testing.assert_allclose(ig.success_probability(final), 121 / 256,
                                   rtol=1e-12, atol=0)

    def test_trace_structure(self):
        counts = make_counts(64, 16, 4)
        sched = ig.Schedule(3)
        _, trace, _ = ig.run_schedule(counts, sched)
        labels = trace_labels(trace)
        expected = [(0, "init")]
        expected += [(1, "oracle_x"), (1, "diffusion")] * 3
        expected += [(2, "oracle_y"), (2, "diffusion")]
        expected += [(3, "oracle_x"), (3, "diffusion")] * 6
        assert [(phase, op) for phase, _, op in labels] == expected
        steps = [step for phase, step, op in labels if phase == 3 and op == "oracle_x"]
        assert steps == [0, 1, 2, 3, 4, 5]
        rows = trace_rows(trace)
        assert len(rows) == len(labels)
        assert (np.abs(np.square(rows).sum(axis=1) - 1.0) <= 1e-9).all()

    def test_L_zero_still_queries_y_once(self):
        counts = make_counts(16, 4, 2)
        final, trace, stats = ig.run_schedule(counts, ig.Schedule(0))
        assert (stats.count_x, stats.count_y) == (0, 1)
        assert len(trace) == 3
        x, y, z = final
        assert x ** 2 + y ** 2 + z ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_engineered_certain_success(self):
        # n=4, X=Y={0}: the schedule is 7 plain iterations at theta=pi/6,
        # landing exactly on sin^2(15*pi/6) = 1
        counts = make_counts(4, 1, 1)
        final, _, _ = ig.run_schedule(counts, ig.Schedule(2))
        assert ig.success_probability(final) >= 1.0 - 1e-9

    def test_norm_preserved_along_long_run(self):
        counts = make_counts(4096, 64, 4)
        final, trace, stats = ig.run_schedule(counts, ig.Schedule(5000))
        assert stats.count_x == 15000
        assert len(trace) == 1 + 2 * 15001
        x, y, z = final
        assert abs(x ** 2 + y ** 2 + z ** 2 - 1.0) <= 1e-9
        assert np.abs(np.square(trace.stops).sum(axis=1) - 1.0).max() <= 1e-15

    def test_label_and_gaps_reject_rows_of_another_run(self):
        _, trace, _ = ig.run_schedule(make_counts(64, 16, 4), ig.Schedule(3))
        assert trace.label(len(trace) - 1) == (3, 5, "diffusion")
        with pytest.raises(IndexError, match="row 21 is past the end"):
            trace.label(len(trace))
        _, other, _ = ig.run_schedule(make_counts(64, 16, 4), ig.Schedule(2))
        with pytest.raises(ValueError, match="traces of different runs"):
            trace.gaps(other)

    def test_first_gap_names_the_first_row_past_tol(self):
        _, trace, _ = ig.run_schedule(make_counts(64, 16, 4), ig.Schedule(3))
        other = ig.Trace(trace.L, trace.stops.copy())
        assert trace.first_gap(other, 0.0) is None
        other.stops[2, 1] += 1e-6  # row 4, and the oracle row 5 derived from it
        other.stops[4, 0] += 1e-3  # row 8
        assert trace.first_gap(other, 1e-9) == (4, pytest.approx(1e-6))
        assert trace.first_gap(other, 1e-4) == (8, pytest.approx(1e-3))
        assert trace.first_gap(other, 1e-2) is None


def max_gap(a: tuple, b: tuple) -> float:
    """The largest coordinate gap between two (x, y, z) points."""
    return max(abs(u - v) for u, v in zip(a, b, strict=True))


@st.composite
def cells(draw, n_max: int, L_max: int):
    """(n, |X|, |Y|, L) with 1 <= |Y| <= |X| <= n and 0 <= L <= L_max."""
    n = draw(st.integers(2, n_max))
    kx = draw(st.integers(1, n))
    ky = draw(st.integers(1, kx))
    return n, kx, ky, draw(st.integers(0, L_max))


class TestClosedForm:
    """`final_point` against scalar stepping and the full engine, within 1e-9."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(cells(n_max=10 ** 12, L_max=400))
    @example((2, 1, 1, 3))          # n = 2
    @example((64, 16, 16, 5))       # k10 = 0: Y = X
    @example((64, 64, 4, 5))        # k00 = 0: X is the whole universe
    @example((64, 64, 64, 2))       # both: every index is a target
    @example((1000, 10, 3, 0))      # L = 0
    def test_matches_stepwise(self, cell):
        n, kx, ky, L = cell
        counts = make_counts(n, kx, ky)
        stepped = stepped_stops(counts, L)[-1]
        assert max_gap(ig.final_point(counts, L), stepped) <= 1e-9

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(cells(n_max=1 << 12, L_max=60))
    @example((2, 1, 1, 0))
    @example((32, 8, 8, 3))
    @example((32, 32, 5, 3))
    def test_matches_full_engine(self, cell):
        n, kx, ky, L = cell
        inst = range_instance(n, kx, ky)
        state, _, _ = ig.run_schedule_full(inst, ig.Schedule(L), record_trace=False)
        full = ig.project_to_reduced(state, inst)
        assert max_gap(ig.final_point(ig.partition_classes(inst), L), full) <= 1e-9

    @pytest.mark.parametrize("cell, L, xyz", [
        # the README cell at L = 0 and at its paper L
        ((1024, 16, 1), 0, ("0x1.f9fffbf3db8ebp-1", "0x1.edce2d29dff8fp-4",
                            "0x1.7f80000000001p-4")),
        ((1024, 16, 1), 6, ("-0x1.676a770af9d3ap-5", "0x1.7397f368c0522p-1",
                            "0x1.5f81f488b0017p-1")),
        ((1000, 999, 10), 10 ** 6, ("-0x1.3e44a8b58e192p-3", "-0x1.e31f8ca95593dp-1",
                                    "-0x1.2b5dba7e003d1p-2")),
        ((10 ** 12, 100, 1), 78540, ("-0x1.b872136d5740bp-17", "0x1.e90e64c3b85eep-1",
                                     "0x1.2f1a9fbe00617p-2")),
        ((2 ** 70, 100, 1), 0, ("0x1.0000000000000p+0", "0x1.3e655eefe1368p-32",
                                "0x1.8000000000001p-34")),
        ((1024, 8, 8), 25, ("0x1.1f7013947e28cp-1", "0x0.0p+0", "0x1.a7b3c018ba177p-1")),
        ((999, 999, 5), 3, ("-0x1.58801a11a2ee6p-52", "-0x1.f47e1768b3036p-1",
                            "-0x1.afc35cb4e5070p-3")),
    ])
    def test_bits_are_pinned(self, cell, L, xyz):
        counts = make_counts(*cell)
        p = ig.final_point(counts, L)
        assert tuple(v.hex() for v in p) == xyz
        # a traced run takes stop L + 1 from the same expensive iteration
        # (an empty class's column is then set to +0.0, as the engine does);
        # at L = 0 that stop is the last one, which is final_point's
        if not L:
            return
        stops = ig.run_schedule(counts, ig.Schedule(L))[1].stops
        want = np.array(reduced.ClosedForm(counts).expensive(*stops[L].tolist()))
        want[[counts.k00 == 0, counts.k10 == 0, False]] = 0.0
        assert want.tobytes() == stops[L + 1].tobytes()

    def test_large_L_cell(self):
        # n = 1e9, |X| = |Y| = 1 at the paper L (24,836): 74.5k stepped iterations
        counts = make_counts(10 ** 9, 1, 1)
        sched = ig.choose_L(counts)
        assert sched.L > 20000
        stepped = stepped_stops(counts, sched.L)[-1]
        closed, trace, stats = ig.run_schedule(counts, sched, record_trace=False)
        assert max_gap(closed, stepped) <= 1e-9
        assert len(trace) == 0 and (stats.count_x, stats.count_y) == (3 * sched.L, 1)


# the accuracy cells of the ROADMAP at their paper L: 78,540, 19,635, 28,679 and 3,927
POLICY_CELLS = [(10 ** 12, 100, 1), (10 ** 10, 16, 16), (4 * 10 ** 9, 3, 1), (10 ** 8, 4, 4)]


class TestClosedFormTrace:
    """Traced stops from the closed form, against 40-digit stepping."""

    @pytest.mark.parametrize("cell", [
        (2, 1, 1), (16, 4, 1), (10 ** 12, 100, 1), (1000, 999, 10), (1000, 1000, 10),
        (2 ** 1000, 2 ** 10, 3), (2 ** 1000, 2 ** 1000 - 1, 3), (10 ** 300, 1, 1)])
    def test_theta_is_a_double_double(self, cell):
        # theta solves sqrt(k00/n) sin t = sqrt(|X|/n) cos t; 60-digit Newton
        # steps on that from hi, with sin and cos as decimal Taylor series
        counts = make_counts(*cell)
        hi, lo = reduced._theta(counts, reduced.ClosedForm(counts).theta)
        with decimal.localcontext(decimal.Context(prec=60)):
            a = (decimal.Decimal(counts.k00) / counts.n).sqrt()
            b = (decimal.Decimal(counts.k10 + counts.k11) / counts.n).sqrt()
            t = decimal.Decimal(hi)
            for _ in range(3):
                c = s = 0
                term = decimal.Decimal(1)  # t**(k-1) / (k-1)!
                for k in range(1, 70):
                    if k % 2:
                        c += term if k % 4 == 1 else -term
                    else:
                        s += term if k % 4 == 2 else -term
                    term = term * t / k
                t -= (a * s - b * c) / (a * c + b * s)
            assert abs(decimal.Decimal(hi) + decimal.Decimal(lo) - t) <= t / 2 ** 104
            assert abs(lo) <= math.ulp(hi)

    @pytest.mark.parametrize("cell", POLICY_CELLS)
    def test_every_stop_within_1e_15_at_policy_L(self, cell):
        counts = make_counts(*cell)
        sched = ig.choose_L(counts)
        _, trace, _ = ig.run_schedule(counts, sched)
        assert np.abs(trace.stops - exact_stops(counts, sched.L)).max() <= 1e-15

    @pytest.mark.parametrize("L", [10 ** 3, 10 ** 4, 10 ** 5])
    @pytest.mark.parametrize("kx", [999, 1000], ids=["|X|=n-1", "X=universe"])
    def test_no_less_exact_than_stepping_far_past_the_optimum(self, kx, L):
        # the last stop is final_point's, whose float phase (2L+1) theta
        # loses accuracy linearly in L
        counts = make_counts(1000, kx, 10)
        _, trace, _ = ig.run_schedule(counts, ig.Schedule(L))
        exact = exact_stops(counts, L)[:-1]
        closed = np.abs(trace.stops[:-1] - exact).max()
        stepped = np.abs(stepped_stops(counts, L)[:-1] - exact).max()
        assert closed <= stepped and closed <= 1e-15

    def test_last_csv_row_is_the_record(self, tmp_path):
        # the README trace cell, L = 78,540
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 10 ** 12, "x": {"kind": "range", "lo": 0, "hi": 99},
                                    "y": {"kind": "list", "members": [7]}}))
        assert cli.main(["run", "--instance", str(path), "--trace", str(tmp_path / "t.csv"),
                         "--out", str(tmp_path / "r.json")]) == 0
        with open(tmp_path / "t.csv", "rb") as fh:
            fh.seek(-200, 2)
            last = fh.read().decode().splitlines()[-1].split(",")
        assert last[:3] == ["3", "157079", "diffusion"]
        assert float(last[6]) == json.loads((tmp_path / "r.json").read_text())["p_success_exact"]

    @pytest.mark.parametrize("cell", [
        (4096, 64, 64, None),   # k10 = 0
        (256, 8, 8, 4),         # k10 = 0, p . s < 0 at some diffusions
        (1024, 1024, 3, 7),     # k00 = 0
        (64, 64, 64, 3),        # both empty
    ])
    def test_an_empty_class_is_positive_zero_at_every_stop(self, cell):
        n, kx, ky, L = cell
        counts = make_counts(n, kx, ky)
        _, trace, _ = ig.run_schedule(counts, ig.choose_L(counts) if L is None else ig.Schedule(L))
        empty = [c for c, size in enumerate((counts.k00, counts.k10)) if not size]
        assert empty
        for column in empty:
            assert trace.stops[:, column].tobytes() == bytes(8 * len(trace.stops))

    def test_every_stop_is_on_the_orbit_of_the_operators(self):
        # many chunks of both arcs, against the float stepping itself
        counts = make_counts(10 ** 9, 100, 1)
        L = 3 * reduced._ARC_CHUNK + 5
        _, trace, _ = ig.run_schedule(counts, ig.Schedule(L))
        assert np.abs(trace.stops - stepped_stops(counts, L)).max() <= 1e-11


def ulps_off(p: float, exact: Fraction) -> float:
    """|p - exact| in units in the last place of the float nearest exact."""
    return float(abs(Fraction(p) - exact) / Fraction(math.ulp(float(exact))))


class TestExactP:
    """Printed p against `exact_p`, in ulps of the exact p.  The bounds are
    the measured errors with headroom: the float phase (2L+1) theta of
    `final_point` grows its error with L (789 ulps at L = 1,000), which the
    full engine, stepping, does not."""

    @pytest.mark.parametrize("cell, L, reduced_ulps, full_ulps", [
        ((1024, 16, 1), None, 4, 4),            # measured 1.6 and 1.6 at the policy L, 6
        ((2 ** 20, 1024, 1), None, 2, 4),       # 0.75 and 2.2 at the policy L, 25
        ((1000, 999, 10), 100, 40, 40),         # 25.9 and 22.9
        ((1000, 999, 10), 1000, 1200, 40),      # 788.9 and 25.1
    ])
    def test_both_engines_within_a_bound(self, cell, L, reduced_ulps, full_ulps):
        counts, inst = make_counts(*cell), range_instance(*cell)
        sched = ig.choose_L(counts) if L is None else ig.Schedule(L)
        exact = exact_p(counts, sched.L)
        assert ulps_off(ig.success_probability(ig.final_point(counts, sched.L)),
                        exact) <= reduced_ulps
        # the full engine's printed p: the squared norm of its target amplitudes
        state, _, _ = ig.run_schedule_full(inst, sched, record_trace=False)
        try:
            outcome = ig.run_with_repetitions(inst, sched, 1, 0, state=state)
        except ig.ExhaustedRepetitions as exc:
            outcome = exc.outcome
        assert ulps_off(outcome.p_success, exact) <= full_ulps

    @pytest.mark.parametrize("cell, L", [((16, 4, 1), 2), ((999, 999, 5), 3),
                                         ((1024, 8, 8), 25), ((1000, 999, 10), 100)])
    def test_matches_the_40_digit_reference(self, cell, L):
        counts = make_counts(*cell)
        z = exact_stops(counts, L)[-1][2]
        assert float(exact_p(counts, L)) == pytest.approx(z * z, rel=1e-14)
        if cell == (16, 4, 1):
            assert exact_p(counts, L) == Fraction(121, 256)


class TestNormDrift:
    """A state that leaves the unit sphere raises NormDrift, also under -O."""

    @pytest.fixture
    def leaky_diffusion(self, monkeypatch):
        # a diffusion axis 0.1% off the unit sphere: the traced loop starts
        # on it and reflects through it, the closed form reflects through it
        real = reduced.initial_point

        def scaled(counts):
            return tuple(1.001 * v for v in real(counts))

        monkeypatch.setattr(reduced, "initial_point", scaled)

    @pytest.mark.parametrize("record_trace", [True, False])
    def test_reduced_paths(self, leaky_diffusion, record_trace):
        with pytest.raises(ig.NormDrift, match="reduced state left the unit sphere"):
            ig.run_schedule(make_counts(64, 8, 2), ig.Schedule(3), record_trace)

    def test_full_engine(self, monkeypatch):
        # the engine flips and diffuses in place, so the leak goes in at init
        real = fullstate.init_uniform
        monkeypatch.setattr(fullstate, "init_uniform", lambda n: 1.001 * real(n))
        inst = range_instance(64, 8, 2)
        with pytest.raises(ig.NormDrift, match="full state"):
            ig.run_schedule_full(inst, ig.Schedule(3), record_trace=False)

    def test_cli_exits_1(self, leaky_diffusion, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text('{"n": 64, "x": {"kind": "range", "lo": 0, "hi": 7},'
                        ' "y": {"kind": "list", "members": [3]}}')
        assert cli.main(["run", "--instance", str(path)]) == 1
        assert "left the unit sphere" in capsys.readouterr().err


class TestPhase1Geometry:
    """On the closed-form trace, and on the stops of the iteration itself."""

    @pytest.fixture(params=["closed form", "stepped"])
    def trace_for(self, request):
        def make(n, kx, ky, L=None):
            counts = make_counts(n, kx, ky)
            L = ig.choose_L(counts).L if L is None else L
            if request.param == "stepped":
                return counts, ig.Trace(L, stepped_stops(counts, L))
            return counts, ig.run_schedule(counts, ig.Schedule(L))[1]
        return make

    def test_reference_angles(self, trace_for):
        _, trace = trace_for(16, 4, 1)
        angles = phase1_rotation_check(trace)
        np.testing.assert_allclose(angles, [math.pi / 3, math.pi / 3],
                                   rtol=0, atol=1e-12)

    def test_angles_match_chord_formula(self, trace_for):
        counts, trace = trace_for(4096, 64, 4)
        angles = phase1_rotation_check(trace)
        theta_chord = ig.compute_theta(counts)
        assert len(angles) == ig.choose_L(counts).L
        # all steps turn by the same angle ...
        assert max(angles) - min(angles) <= 1e-12
        # ... which is exactly 2*asin(theta_approx) (two reflections compose to one
        # rotation), and 2*theta_chord approximates that to O(ds^2)
        np.testing.assert_allclose(angles, 2.0 * math.asin(theta_approx(counts)),
                                   rtol=1e-12)
        np.testing.assert_allclose(angles, 2.0 * theta_chord, rtol=0.05)

    def test_coplanarity(self, trace_for):
        _, trace = trace_for(1024, 16, 1)
        assert phase1_coplanarity_residual(trace) <= 1e-9

    def test_insufficient_trace(self, trace_for):
        _, trace = trace_for(16, 4, 1, L=1)
        with pytest.raises(InsufficientTrace):
            phase1_rotation_check(trace)
        with pytest.raises(InsufficientTrace):
            phase1_coplanarity_residual(trace)


def write_rows_one_at_a_time(path, trace) -> None:
    """The row-at-a-time writer that `write_trace_csv` must match byte for byte."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phase,step,op,x,y,z,p_success\n")
        for (phase, step, op), (x, y, z) in zip(trace_labels(trace), trace_rows(trace).tolist()):
            fh.write(f"{phase},{step},{op},{x:.17g},{y:.17g},{z:.17g},{z * z:.17g}\n")


class TestTraceCsv:
    @pytest.mark.parametrize("cell", [
        (64, 16, 4, 0),                           # L = 0: init plus 2 rows
        (64, 16, 4, 1),                           # one chunk holds all three phases
        (64, 16, 4, 2),
        (4096, 64, 64, 25),                       # k10 = 0: y is +-0.0
        (1024, 1024, 3, 7),                       # k00 = 0: X is everything
        (10 ** 9, 100, 1, reduced._CSV_CHUNK + 1),  # phases span chunks
    ])
    def test_matches_row_at_a_time_writer(self, tmp_path, cell):
        n, kx, ky, L = cell
        _, trace, _ = ig.run_schedule(make_counts(n, kx, ky), ig.Schedule(L))
        ig.write_trace_csv(tmp_path / "fast.csv", trace)
        write_rows_one_at_a_time(tmp_path / "ref.csv", trace)
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "ref.csv").read_bytes()
        assert fast.count(b"\n") == 2 + 2 * (3 * L + 1)
        if kx == ky:
            assert b",-0," in fast  # the cheap oracle's -0.0 is printed

    @pytest.mark.parametrize("cell", [
        (16, 4, 1, None),
        (4096, 64, 64, None),   # k10 = 0: y is +-0.0
        (256, 256, 2, 3),
        (4, 1, 1, 0),
        (4000, 40, 5, 40),
    ])
    def test_full_engine_trace_matches_row_at_a_time_writer(self, tmp_path, cell):
        n, kx, ky, L = cell
        inst = range_instance(n, kx, ky)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(ig.instance_to_json(inst)))
        flags = [] if L is None else ["--L", str(L)]
        assert cli.main(["run", "--instance", str(path), "--engine", "full",
                         "--trace", str(tmp_path / "fast.csv"), *flags]) in (0, 3)
        sched = ig.choose_L(ig.partition_classes(inst)) if L is None else ig.Schedule(L)
        _, trace, _ = ig.run_schedule_full(inst, sched)
        write_rows_one_at_a_time(tmp_path / "ref.csv", trace)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @staticmethod
    def assert_matches_reference(tmp_path, trace):
        ig.write_trace_csv(tmp_path / "fast.csv", trace)
        write_rows_one_at_a_time(tmp_path / "ref.csv", trace)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("cell", [
        (64, 16, 4, 0),
        (4096, 64, 64, 5),      # k10 = 0: y is +-0.0
        (1024, 1024, 3, 4),     # k00 = 0: x is +-0.0
        (10 ** 9, 100, 1, 7),
    ])
    def test_small_chunks_match_row_at_a_time_writer(self, tmp_path, monkeypatch,
                                                     chunk, cell):
        monkeypatch.setattr(reduced, "_CSV_CHUNK", chunk)
        n, kx, ky, L = cell
        _, trace, _ = ig.run_schedule(make_counts(n, kx, ky), ig.Schedule(L))
        self.assert_matches_reference(tmp_path, trace)

    @pytest.mark.parametrize("chunk", [reduced._CSV_CHUNK, 3])
    def test_step_gains_a_digit_group_inside_a_chunk(self, tmp_path, monkeypatch, chunk):
        # phase-3 steps 9,999 and 10,000 are iterations L + 10,000 and L + 10,001
        L = 5003
        assert (L + 10001) % chunk  # so both are in one chunk
        monkeypatch.setattr(reduced, "_CSV_CHUNK", chunk)
        _, trace, _ = ig.run_schedule(make_counts(10 ** 9, 100, 1), ig.Schedule(L))
        self.assert_matches_reference(tmp_path, trace)
        text = (tmp_path / "fast.csv").read_bytes()
        assert b"\n3,9999,diffusion," in text and b"\n3,10000,oracle_x," in text

    def test_full_engine_y_equals_x_over_many_chunks(self, tmp_path):
        # the full engine projects the empty k10 class to +0.0 at every stop,
        # so every cheap oracle row negates it to -0.0
        L = reduced._CSV_CHUNK
        _, trace, _ = ig.run_schedule_full(range_instance(256, 8, 8), ig.Schedule(L))
        assert len(trace) > 2 * reduced._CSV_CHUNK
        self.assert_matches_reference(tmp_path, trace)
        rows = [line.split(",") for line in (tmp_path / "fast.csv").read_text().splitlines()]
        cheap = [row[4] for row in rows if row[2] == "oracle_x"]
        assert len(cheap) == 3 * L and set(cheap) == {"-0"}

    @pytest.mark.parametrize("cell, markers", [
        ((10 ** 8, 4, 4, None), [b",-0,"]),            # trace-large-L shape: y is +-0.0
        # z starts at 1e-5, printed by the scientific path, and p at 1e-10, by '%'
        ((10 ** 10, 16, 1, 2500), [b"e-05", b"e-06", b"e-10"]),
        # p prints a three-digit exponent through row 3,217 of 47,127 (L = 7,854),
        # so only the first chunk pads its values to seven words
        ((10 ** 106, 10 ** 98, 1, None), [b"e-106\n", b"e-100\n", b"e-99\n"]),
    ])
    def test_large_cells_match_row_at_a_time_writer(self, tmp_path, cell, markers):
        n, kx, ky, L = cell
        counts = make_counts(n, kx, ky)
        _, trace, _ = ig.run_schedule(counts, ig.choose_L(counts) if L is None else ig.Schedule(L))
        assert 3 * trace.L + 1 > 3 * reduced._CSV_CHUNK
        self.assert_matches_reference(tmp_path, trace)
        text = (tmp_path / "fast.csv").read_bytes()
        assert all(marker in text for marker in markers)

    def test_memory_does_not_grow_with_L(self, tmp_path):
        # the writer holds one chunk's words and step labels at a time, so a
        # ten times longer trace peaks no higher
        counts = make_counts(10 ** 10, 16, 1)
        traces = {L: ig.run_schedule(counts, ig.Schedule(L))[1] for L in (5000, 50000)}
        ig.write_trace_csv(tmp_path / "t.csv", traces[5000])  # builds the cached tables
        peaks = {}
        for L, trace in traces.items():
            tracemalloc.start()
            try:
                ig.write_trace_csv(tmp_path / "t.csv", trace)
                peaks[L] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert 3 * 5000 + 1 > 3 * reduced._CSV_CHUNK
        assert peaks[50000] <= peaks[5000] + 64 * 1024

    @pytest.mark.parametrize("cell, stepped, closed", [
        # paper L = 19,635, y = +-0.0 throughout
        ((10 ** 10, 16, 16), "9d2ca142cf0d462a7e1407f7f947ae30459e1dfa67c55fd5b1cb9a8f0c65f56d",
         "11194d3fa136feaa9de5ee2bc845d8ac131c1d0dc4b8a76bb6503d1f3b5c4569"),
        # paper L = 28,679
        ((4 * 10 ** 9, 3, 1), "ff49ed788a47ba72653c274da98e131c8aedcc1dc16397b62c3339b0670525c4",
         "322c2a6d7da99f97db1937cd6d3d6cab4e2d6bb9d5bfff76f437aca81e08de5a"),
    ])
    def test_golden_digests(self, tmp_path, cell, stepped, closed):
        # the stepped stops' digest was recorded from the '%'-formatting
        # writer, so it pins this writer; the other pins the closed form
        counts = make_counts(*cell)
        L = ig.choose_L(counts).L
        for trace, digest in ((ig.Trace(L, stepped_stops(counts, L)), stepped),
                              (ig.run_schedule(counts, ig.Schedule(L))[1], closed)):
            ig.write_trace_csv(tmp_path / "t.csv", trace)
            assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("engine, L", [("reduced", 3), ("reduced", 0), ("full", 3)])
    def test_untraced_run_writes_the_header_only(self, tmp_path, engine, L):
        # rows start with their newline, so a trace with no stops still ends in one
        if engine == "reduced":
            _, trace, _ = ig.run_schedule(make_counts(64, 16, 4), ig.Schedule(L),
                                          record_trace=False)
        else:
            _, trace, _ = ig.run_schedule_full(range_instance(64, 16, 4), ig.Schedule(L),
                                               record_trace=False)
        assert len(trace.stops) == 0
        path = tmp_path / "trace.csv"
        ig.write_trace_csv(path, trace)
        assert path.read_text() == "phase,step,op,x,y,z,p_success\n"

    def test_roundtrip_is_lossless(self, tmp_path):
        counts = make_counts(64, 16, 4)
        _, trace, _ = ig.run_schedule(counts, ig.choose_L(counts))
        path = tmp_path / "trace.csv"
        ig.write_trace_csv(path, trace)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phase", "step", "op", "x", "y", "z", "p_success"]
        assert len(rows) - 1 == len(trace)
        points = trace_rows(trace).tolist()
        for row, label, (x, y, z) in zip(rows[1:], trace_labels(trace), points):
            assert (int(row[0]), int(row[1]), row[2]) == label
            assert [float(v) for v in row[3:]] == [x, y, z, z * z]


def printed(values) -> list[str]:
    """The text `_float_words` gives each value, one string per value."""
    words = reduced._float_words(np.asarray(values, dtype=np.float64))
    return words.tobytes().translate(None, b"\0").decode().split(",")[1:]


def percent_g(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


# 10**-k and the floats around it, the float below each power of ten (it
# prints 17 nines), and dyadic values j / 2**(P + 1), j odd, whose 18th digit
# is an exact tie, at both ends of each decade
TIES = [j / 2 ** (P + 1) for P in range(17, 23)
        for end in (10 ** (16 - P), 10 ** (17 - P))
        for j in range(int(end * 2 ** (P + 1)) - 41, int(end * 2 ** (P + 1)) + 41)
        if j % 2 and 10 ** (16 - P) <= j / 2 ** (P + 1) < 10 ** (17 - P)]
EDGES = sorted({
    *(math.nextafter(b, toward) for k in range(7) for b in (10.0 ** -k, float(f"1e-{k}"))
      for toward in (0.0, 1.0, b)),
    0.099999999999999992, 0.0099999999999999985, 0.00099999999999999980,
    9.9999999999999991e-05, 0.99999999999999989, 1.0000000000000002, 2.0, *TIES,
    *(2.0 ** -k for k in range(14, 20)),  # in [LOW, 1e-4), with trailing zeros
    0.0, 5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308, 1e-300, 1.7976931348623157e308,
})


class TestFloatFormat:
    """`_float_words` prints every float exactly as '%.17g' does."""

    def test_exponent_bounds_and_no_carry(self):
        # each bound is the least float >= its power of ten, and the float
        # just below each power rounds to 17 nines, not up to the power
        for k in range(6):
            bound = float(f"1e-{k}")
            assert Fraction(bound) >= Fraction(1, 10 ** k) > Fraction(math.nextafter(bound, 0))
            below = Fraction(math.nextafter(bound, 0)) * 10 ** (16 + k + 1)
            assert below < 10 ** 17 - Fraction(1, 2)
        # the float 1e-6 is below 10**-6 (it prints as e-07), so the
        # scientific path starts at the float after it
        assert Fraction(1e-6) < Fraction(1, 10 ** 6) <= Fraction(reduced._LOW)
        assert reduced._LOW == math.nextafter(1e-6, 1.0)
        values = [math.nextafter(1e-4, 0), math.nextafter(1e-5, 0), 1e-6, reduced._LOW]
        assert printed(values) == percent_g(values) == [
            "9.9999999999999991e-05", "9.9999999999999991e-06", "9.9999999999999995e-07",
            "1.0000000000000002e-06"]

    def test_exponent_tables_match_a_search_of_the_edges(self):
        # P from the binary exponent, at both ends of every octave in [LOW, 1),
        # at each edge and at the float just below it (below LOW both give 23)
        ends = [e for k in range(-20, 0)
                for e in (math.ldexp(1.0, k), math.nextafter(math.ldexp(1.0, k + 1), 0.0))]
        edges = reduced._EDGES
        values = [*(v for v in ends if reduced._LOW <= v), *edges,
                  *(math.nextafter(b, 0.0) for b in edges)]
        a = np.array(values)
        p = reduced._exponents(a)
        assert len(values) == 51 and ends[0] < reduced._LOW
        assert p.tolist() == (23 - np.searchsorted(edges, a, side="right")).tolist()
        for v, P in zip(values, p.tolist()):
            assert v < reduced._LOW or 10 ** 16 <= Fraction(v) * 10 ** P < 10 ** 17

    def test_field_width_follows_the_longest_text(self):
        # six words hold ',', a sign byte and 22 characters, so only a text
        # of 23 (17 digits and a three-digit exponent) widens every field
        for values, width in (([0.5, -1e99, 3e-5, 5e-324], 7), ([0.5, -1e99, 3e-5, 1e-99], 6),
                              ([-1.1e-100], 7), ([1e-100, -1e100, 2.5e-100], 6),
                              ([math.nan, -math.inf], 6)):
            assert reduced._float_words(np.array(values)).shape == (len(values), width)
            assert printed(values) == percent_g(values)

    def test_scientific_values_always_print_a_fraction(self):
        # no float in [LOW, 1e-4) is within half a unit of the 17th digit of
        # d * 10**-k, so '%.17g' never prints one as 'de-05' or 'de-06'; the
        # nearest to 10**-6 is LOW, since the float 1e-6 is below the range
        for k in (5, 6):
            for d in range(1, 10):
                nearest = Fraction(max(float(Fraction(d, 10 ** k)), reduced._LOW))
                assert abs(nearest * 10 ** (16 + k) - d * 10 ** 16) > Fraction(1, 2)

    def test_edge_values(self):
        assert len(TIES) > 150
        for v in TIES:
            P = 16 - math.floor(math.log10(v))
            assert Fraction(v) * 10 ** P % 1 == Fraction(1, 2)
        values = np.array(EDGES + [-v for v in EDGES])
        assert printed(values) == percent_g(values)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @example([0.0, -0.0, 1.0, math.nextafter(1.0, 0), -math.nextafter(1.0, 0), 5e-324, -5e-324,
              2.2250738585072009e-308, 1.5, 123456789.0, 1e300, -1e-300])
    def test_all_finite_doubles(self, values):
        assert printed(values) == percent_g(values)

    def test_non_finite(self):
        values = [math.inf, -math.inf, math.nan, -math.nan, np.copysign(math.nan, -1.0)]
        assert printed(values) == percent_g(values) == ["inf", "-inf", "nan", "nan", "nan"]

    @pytest.mark.parametrize("draw", ["bit patterns", "log-uniform below 1"])
    def test_a_million_values(self, draw):
        rng = np.random.default_rng(20261018)
        for _ in range(10):
            if draw == "bit patterns":  # inf and nan (with any payload) included
                values = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
            else:
                values = np.exp(rng.uniform(math.log(1e-6), 0.0, 10 ** 5))
                values *= rng.choice([-1.0, 1.0], values.size)
            assert printed(values) == percent_g(values)
