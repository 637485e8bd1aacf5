"""Three-coordinate engine: operators, schedule runs, trace geometry."""

from __future__ import annotations

import csv
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import igrover as ig
from igrover import cli, fullstate, reduced
from conftest import make_counts, range_instance


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestOperators:
    def test_initial_point_values(self):
        # sqrt(12/16), sqrt(3/16), sqrt(1/16)
        p = ig.initial_point(make_counts(16, 4, 1))
        assert (p.x, p.y, p.z) == (0.8660254037844386, 0.4330127018922193, 0.25)
        # no indices outside X: first coordinate is exactly zero
        p = ig.initial_point(make_counts(4, 4, 2))
        assert (p.x, p.y, p.z) == (0.0, 0.7071067811865476, 0.7071067811865476)
        # degenerate instance where everything is a target
        p = ig.initial_point(make_counts(8, 8, 8))
        assert (p.x, p.y, p.z) == (0.0, 0.0, 1.0)

    def test_oracles_flip_the_right_signs(self):
        p = ig.ReducedState(0.3, -0.5, 0.7)
        qx = ig.apply_oracle_x(p)
        assert (qx.x, qx.y, qx.z) == (0.3, 0.5, -0.7)
        qy = ig.apply_oracle_y(p)
        assert (qy.x, qy.y, qy.z) == (0.3, -0.5, -0.7)

    def test_oracles_are_involutions_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            p = ig.ReducedState(*v)
            for oracle in (ig.apply_oracle_x, ig.apply_oracle_y):
                q = oracle(oracle(p))
                assert bits(q.x) == bits(p.x)
                assert bits(q.y) == bits(p.y)
                assert bits(q.z) == bits(p.z)
                # the outside-X coordinate never moves at all
                assert bits(oracle(p).x) == bits(p.x)

    def test_diffusion_hand_case(self):
        s = ig.ReducedState(0.5, 0.5, math.sqrt(0.5))
        p = ig.ReducedState(1.0, 0.0, 0.0)
        q = ig.apply_diffusion(p, s)
        np.testing.assert_allclose((q.x, q.y, q.z),
                                   (-0.5, 0.5, 0.7071067811865476), rtol=0, atol=1e-15)

    def test_diffusion_hand_case_n16(self):
        # axis state reflected through the n=16, |X|=4, |Y|=1 uniform direction:
        # 2*s_x*s - e_x, worked out by hand
        s = ig.initial_point(make_counts(16, 4, 1))
        q = ig.apply_diffusion(ig.ReducedState(1.0, 0.0, 0.0), s)
        np.testing.assert_allclose((q.x, q.y, q.z),
                                   (0.5, 0.75, 0.4330127018922193),
                                   rtol=0, atol=1e-15)

    def test_diffusion_is_an_involution_and_fixes_s(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = rng.random(3) + 0.01
            w /= w.sum()
            s = ig.ReducedState(*np.sqrt(w))
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            p = ig.ReducedState(*v)
            q = ig.apply_diffusion(ig.apply_diffusion(p, s), s)
            np.testing.assert_allclose((q.x, q.y, q.z), (p.x, p.y, p.z),
                                       rtol=0, atol=1e-14)
            fixed = ig.apply_diffusion(s, s)
            np.testing.assert_allclose((fixed.x, fixed.y, fixed.z),
                                       (s.x, s.y, s.z), rtol=0, atol=1e-14)

    def test_success_probability(self):
        assert ig.success_probability(ig.ReducedState(0.0, 0.0, -0.5)) == 0.25


class TestRunSchedule:
    def test_reference_run(self):
        counts = make_counts(16, 4, 1)
        sched = ig.choose_L(counts)
        assert sched.L == 2
        final, trace, stats = ig.run_schedule(counts, sched)
        assert len(trace) == 1 + 2 * (3 * sched.L + 1)
        assert (stats.count_x, stats.count_y, stats.repetitions) == (6, 1, 1)
        np.testing.assert_allclose(
            (final.x, final.y, final.z),
            (-0.6495190528383286, 0.32475952641916406, 0.6875),
            rtol=0, atol=1e-12)
        # exact value is 121/256
        np.testing.assert_allclose(ig.success_probability(final), 121 / 256,
                                   rtol=1e-12, atol=0)

    def test_trace_structure(self):
        counts = make_counts(64, 16, 4)
        sched = ig.Schedule(3)
        _, trace, _ = ig.run_schedule(counts, sched)
        ops = [(r.phase, r.op) for r in trace]
        expected = [(0, "init")]
        expected += [(1, "oracle_x"), (1, "diffusion")] * 3
        expected += [(2, "oracle_y"), (2, "diffusion")]
        expected += [(3, "oracle_x"), (3, "diffusion")] * 6
        assert ops == expected
        steps = [r.step for r in trace if r.phase == 3 and r.op == "oracle_x"]
        assert steps == [0, 1, 2, 3, 4, 5]
        for r in trace:
            assert abs(r.point.norm_sq() - 1.0) <= 1e-9
            assert r.p_success == r.point.z * r.point.z

    def test_L_zero_still_queries_y_once(self):
        counts = make_counts(16, 4, 2)
        final, trace, stats = ig.run_schedule(counts, ig.Schedule(0))
        assert (stats.count_x, stats.count_y) == (0, 1)
        assert len(trace) == 3
        assert final.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_engineered_certain_success(self):
        # n=4, X=Y={0}: the schedule is 7 plain iterations at theta=pi/6,
        # landing exactly on sin^2(15*pi/6) = 1
        counts = make_counts(4, 1, 1)
        final, _, _ = ig.run_schedule(counts, ig.Schedule(2))
        assert ig.success_probability(final) >= 1.0 - 1e-9

    def test_norm_preserved_along_long_run(self):
        # traced, so all 2*(3L+1) operations are really stepped
        counts = make_counts(4096, 64, 4)
        final, trace, stats = ig.run_schedule(counts, ig.Schedule(5000))
        assert stats.count_x == 15000
        assert len(trace) == 1 + 2 * 15001
        assert abs(final.norm_sq() - 1.0) <= 1e-9

    def test_first_gap_names_the_first_row_past_tol(self):
        _, trace, _ = ig.run_schedule(make_counts(64, 16, 4), ig.Schedule(3))
        other = ig.Trace(trace.L, trace.stops.copy())
        assert trace.first_gap(other, 0.0) is None
        other.stops[2, 1] += 1e-6  # row 4, and the oracle row 5 derived from it
        other.stops[4, 0] += 1e-3  # row 8
        assert trace.first_gap(other, 1e-9) == (4, pytest.approx(1e-6))
        assert trace.first_gap(other, 1e-4) == (8, pytest.approx(1e-3))
        assert trace.first_gap(other, 1e-2) is None


def max_gap(a: ig.ReducedState, b: ig.ReducedState) -> float:
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z))


@st.composite
def cells(draw, n_max: int, L_max: int):
    """(n, |X|, |Y|, L) with 1 <= |Y| <= |X| <= n and 0 <= L <= L_max."""
    n = draw(st.integers(2, n_max))
    kx = draw(st.integers(1, n))
    ky = draw(st.integers(1, kx))
    return n, kx, ky, draw(st.integers(0, L_max))


class TestClosedForm:
    """`final_point` against the stepwise loop and the full engine, within 1e-9."""

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
        stepped, _, _ = ig.run_schedule(counts, ig.Schedule(L))
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

    def test_large_L_cell(self):
        # n = 1e9, |X| = |Y| = 1 at the paper L (24,836): 74.5k stepped iterations
        counts = make_counts(10 ** 9, 1, 1)
        sched = ig.choose_L(counts)
        assert sched.L > 20000
        stepped, _, _ = ig.run_schedule(counts, sched)
        closed, trace, stats = ig.run_schedule(counts, sched, record_trace=False)
        assert max_gap(closed, stepped) <= 1e-9
        assert len(trace) == 0 and (stats.count_x, stats.count_y) == (3 * sched.L, 1)


class TestNormDrift:
    """A state that leaves the unit sphere raises NormDrift, also under -O."""

    @pytest.fixture
    def leaky_diffusion(self, monkeypatch):
        # a diffusion axis 0.1% off the unit sphere: the traced loop starts
        # on it and reflects through it, the closed form reflects through it
        real = reduced.initial_point

        def scaled(counts):
            s = real(counts)
            return ig.ReducedState(1.001 * s.x, 1.001 * s.y, 1.001 * s.z)

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
    def trace_for(self, n, kx, ky, L=None):
        counts = make_counts(n, kx, ky)
        sched = ig.choose_L(counts) if L is None else ig.Schedule(L)
        _, trace, _ = ig.run_schedule(counts, sched)
        return counts, trace

    def test_reference_angles(self):
        _, trace = self.trace_for(16, 4, 1)
        angles = ig.phase1_rotation_check(trace)
        np.testing.assert_allclose(angles, [math.pi / 3, math.pi / 3],
                                   rtol=0, atol=1e-12)

    def test_angles_match_chord_formula(self):
        counts, trace = self.trace_for(4096, 64, 4)
        angles = ig.phase1_rotation_check(trace)
        params = ig.compute_theta(counts)
        assert len(angles) == ig.choose_L(counts).L
        # all steps turn by the same angle ...
        assert max(angles) - min(angles) <= 1e-12
        # ... which is exactly 2*asin(theta_approx) (two reflections compose to one
        # rotation), and 2*theta_chord approximates that to O(ds^2)
        np.testing.assert_allclose(angles, 2.0 * math.asin(params.theta_approx),
                                   rtol=1e-12)
        np.testing.assert_allclose(angles, 2.0 * params.theta_chord, rtol=0.05)

    def test_coplanarity(self):
        _, trace = self.trace_for(1024, 16, 1)
        assert ig.phase1_coplanarity_residual(trace) <= 1e-9

    def test_insufficient_trace(self):
        _, trace = self.trace_for(16, 4, 1, L=1)
        with pytest.raises(ig.InsufficientTrace):
            ig.phase1_rotation_check(trace)
        with pytest.raises(ig.InsufficientTrace):
            ig.phase1_coplanarity_residual(trace)


def write_rows_one_at_a_time(path, trace) -> None:
    """The row-at-a-time writer that `write_trace_csv` must match byte for byte."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phase,step,op,x,y,z,p_success\n")
        for r in trace:
            fh.write(
                f"{r.phase},{r.step},{r.op},"
                f"{r.point.x:.17g},{r.point.y:.17g},{r.point.z:.17g},"
                f"{r.p_success:.17g}\n"
            )


class TestTraceCsv:
    @pytest.mark.parametrize("cell", [
        (64, 16, 4, 0),                           # L = 0: init plus 2 rows
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

    def test_roundtrip_is_lossless(self, tmp_path):
        counts = make_counts(64, 16, 4)
        _, trace, _ = ig.run_schedule(counts, ig.choose_L(counts))
        path = tmp_path / "trace.csv"
        ig.write_trace_csv(path, trace)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phase", "step", "op", "x", "y", "z", "p_success"]
        assert len(rows) - 1 == len(trace)
        for row, rec in zip(rows[1:], trace):
            assert (int(row[0]), int(row[1]), row[2]) == (rec.phase, rec.step, rec.op)
            assert float(row[3]) == rec.point.x
            assert float(row[4]) == rec.point.y
            assert float(row[5]) == rec.point.z
            assert float(row[6]) == rec.p_success
