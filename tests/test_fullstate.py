"""Full n-amplitude engine: operators, projection, caps, sampling."""

from __future__ import annotations

import json
import math
import mmap
import struct
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

import igrover as ig
from igrover import cli, fullstate, reduced
from conftest import (class_of, diffusion_full, exact_stops, oracle_full, oracle_x, oracle_y,
                      random_instance, trace_labels, trace_rows, whole_vector_run)


def small_inst():
    return ig.build_instance({"n": 16, "x": {"kind": "range", "lo": 0, "hi": 3},
                              "y": {"kind": "list", "members": [2]}})


def members(*values):
    return {"kind": "list", "members": list(values)}


def span(lo, hi):
    return {"kind": "range", "lo": lo, "hi": hi}


def mod(m, r):
    return {"kind": "mod", "m": m, "r": r}


# every (X kind, Y kind) pair with Y inside X, mostly on n = 1000
SPEC_PAIRS = {
    "list-list": (1000, members(3, 17, 18, 400, 999), members(17, 999)),
    "list-range": (1000, members(3, 4, 5, 6, 10, 20, 500), span(4, 6)),
    "list-mod": (1000, members(3, 103, 250, 303, 503, 703, 903), mod(200, 103)),
    "range-list": (1000, span(100, 299), members(100, 150, 299)),
    "range-range": (1000, span(0, 99), span(10, 12)),
    "range-mod": (1000, span(7, 999), mod(97, 7)),
    "mod-list": (1000, mod(5, 2), members(2, 12, 997)),
    "mod-range": (1000, mod(1, 0), span(0, 9)),        # X is the universe
    "mod-mod": (1000, mod(3, 1), mod(6, 4)),
    "list-list-Y=X": (1000, members(5, 6, 700), members(5, 6, 700)),
    "mod-mod-Y=X": (1024, mod(8, 3), mod(8, 3)),
    "universe-list": (999, mod(1, 0), members(5)),
}


def write_instance(tmp_path, obj):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestOperators:
    def test_init_uniform(self):
        state = ig.init_uniform(10)
        np.testing.assert_allclose(state, 0.31622776601683794, rtol=0, atol=1e-16)
        assert state @ state == pytest.approx(1.0, abs=1e-12)

    def test_oracle_flips_exact_members(self):
        inst = small_inst()
        state = ig.init_uniform(16)
        after_x = oracle_full(state, inst, "x")
        after_y = oracle_full(state, inst, "y")
        for i in range(16):
            assert after_x[i] == (-state[i] if inst.in_x(i) else state[i])
            assert after_y[i] == (-state[i] if inst.in_y(i) else state[i])

    def test_diffusion_hand_case(self):
        # flip of index 0 in uniform(4), then mean inversion, returns e_0
        state = np.array([-0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(diffusion_full(state),
                                   [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)
        # mean inversion preserves the amplitude sum: sum(2m - d) = sum(d)
        rng = np.random.default_rng(12)
        v = rng.normal(size=64)
        v /= np.linalg.norm(v)
        out = diffusion_full(v)
        assert out.sum() == pytest.approx(v.sum(), abs=1e-12)
        assert float(out @ out) == pytest.approx(1.0, abs=1e-12)


class TestProjection:
    def test_checks_dimension(self):
        with pytest.raises(ig.DimensionMismatch):
            ig.project_to_reduced(np.zeros(8), small_inst())

    def test_exact_coordinates(self):
        inst = small_inst()
        state = np.empty(16)
        state[:] = 0.1     # k00 block
        state[0:4] = 0.2   # k10 block
        state[2] = 0.7     # the single target
        x, y, z = ig.project_to_reduced(state, inst)
        np.testing.assert_allclose(x, math.sqrt(12) * 0.1, rtol=1e-15)
        np.testing.assert_allclose(y, math.sqrt(3) * 0.2, rtol=1e-15)
        np.testing.assert_allclose(z, 0.7, rtol=1e-15)

    def test_not_class_uniform(self):
        inst = small_inst()
        state = ig.init_uniform(16)
        state[9] += 1e-6
        with pytest.raises(ig.NotClassUniform):
            ig.project_to_reduced(state, inst)
        # a looser tolerance accepts the same state
        ig.project_to_reduced(state, inst, tol=1e-3)

    def test_empty_class_projects_to_zero(self):
        inst = ig.build_instance({"n": 8, "x": {"kind": "mod", "m": 1, "r": 0},
                                  "y": {"kind": "range", "lo": 0, "hi": 3}})
        x, y, _ = ig.project_to_reduced(ig.init_uniform(8), inst)
        assert x == 0.0
        assert y == pytest.approx(math.sqrt(0.5), abs=1e-15)


class TestRunScheduleFull:
    def test_L_zero_concentrates_single_target(self):
        inst = ig.build_instance({"n": 4, "x": {"kind": "list", "members": [0]},
                                  "y": {"kind": "list", "members": [0]}})
        state, trace, final = ig.run_schedule_full(inst, ig.Schedule(0))
        np.testing.assert_allclose(state, [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)
        assert final == tuple(trace.stops[-1])  # the last stop, bit for bit
        assert final[1:] == (0.0, pytest.approx(1.0, abs=1e-15))
        assert len(trace) == 3

    def test_matches_reduced_engine_pointwise(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            inst = random_instance(rng, n_hi=512)
            counts = ig.partition_classes(inst)
            sched = ig.choose_L(counts)
            final_r, trace_r, _ = ig.run_schedule(counts, sched)
            _, trace_f, final_f = ig.run_schedule_full(inst, sched)
            np.testing.assert_allclose(final_f, final_r, rtol=0, atol=1e-12)
            assert len(trace_r) == len(trace_f)
            assert trace_labels(trace_r) == trace_labels(trace_f)
            rows_r, rows_f = trace_rows(trace_r), trace_rows(trace_f)
            np.testing.assert_allclose(np.column_stack([rows_r, rows_r[:, 2] ** 2]),
                                       np.column_stack([rows_f, rows_f[:, 2] ** 2]),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(SPEC_PAIRS))
    def test_class_layout_matches_reduced_on_every_spec_kind(self, case):
        n, x, y = SPEC_PAIRS[case]
        inst = ig.build_instance({"n": n, "x": x, "y": y})
        counts = ig.partition_classes(inst)
        sched = ig.choose_L(counts)
        final_r, trace_r, _ = ig.run_schedule(counts, sched)
        state, trace_f, final_f = ig.run_schedule_full(inst, sched)
        np.testing.assert_allclose(final_f, final_r, rtol=0, atol=1e-12)
        assert trace_r.gaps(trace_f).max() <= 1e-12
        # the state comes back in index order: every amplitude is its
        # class's coordinate over sqrt(class size)
        x, y, z = trace_f.stops[-1]
        amplitude = {"k00": x / math.sqrt(counts.k00 or 1),
                     "k10": y / math.sqrt(counts.k10 or 1),
                     "k11": z / math.sqrt(counts.k11)}
        for i in range(n):
            assert state[i] == pytest.approx(amplitude[class_of(inst, i)], abs=1e-14)

    def test_broken_flip_raises_not_class_uniform(self, monkeypatch, tmp_path, capsys):
        # an oracle that skips the first amplitude of the slice it should
        # negate keeps the norm but splits that amplitude from its class
        class LeakyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def negative(a, out):
                return np.negative(a[1:], out=out[1:])

        monkeypatch.setattr(fullstate, "np", LeakyNumpy())
        inst = ig.build_instance({"n": 64, "x": span(0, 7), "y": members(3)})
        with pytest.raises(ig.NotClassUniform, match="class k10 amplitudes spread"):
            ig.run_schedule_full(inst, ig.Schedule(2), record_trace=False)
        path = write_instance(tmp_path, ig.instance_to_json(inst))
        assert cli.main(["run", "--instance", path, "--engine", "full"]) == 1
        assert "amplitudes spread" in capsys.readouterr().err

    def test_run_peak_memory_is_one_vector(self, tmp_path):
        # at its peak a run holds one n-float array: the engine evolves, then
        # reorders, in one buffer, and the sampler builds its table there
        n = 1 << 16
        path = write_instance(tmp_path, {"n": n, "x": mod(16, 3), "y": mod(256, 3)})
        argv = ["run", "--instance", path, "--engine", "full",
                "--out", str(tmp_path / "out.json")]
        assert cli.main(argv) == 0  # the first run also imports numpy.random
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n

    def test_stop_reads_the_exact_class_amplitude(self):
        # X the universe, Y = [5]: stop 0's y is sqrt(998) amplitudes of
        # 1/sqrt(999), 1.3e-17 from sqrt(998/999) (their mean was 4.6e-16 off)
        inst = ig.build_instance({"n": 999, "x": mod(1, 0), "y": members(5)})
        _, trace, _ = ig.run_schedule_full(inst, ig.Schedule(1))
        exact = (Decimal(998) / Decimal(999)).sqrt()
        assert abs(Decimal(float(trace.stops[0][1])) - exact) <= Decimal("2.3e-16")

    def test_cap_below_two_rejected(self, monkeypatch):
        monkeypatch.setenv("IGROVER_FULL_CAP", "1")
        with pytest.raises(ig.SpecFormatError, match="IGROVER_FULL_CAP must be >= 2, got 1"):
            ig.run_schedule_full(small_inst(), ig.Schedule(1))

    def test_cap_enforced_and_env_override(self, monkeypatch):
        inst = small_inst()
        monkeypatch.setenv("IGROVER_FULL_CAP", "8")
        with pytest.raises(ig.InstanceTooLarge):
            ig.run_schedule_full(inst, ig.Schedule(1))
        monkeypatch.setenv("IGROVER_FULL_CAP", "16")
        ig.run_schedule_full(inst, ig.Schedule(1))
        monkeypatch.setenv("IGROVER_FULL_CAP", "many")
        with pytest.raises(ig.SpecFormatError):
            ig.run_schedule_full(inst, ig.Schedule(1))

    def test_trace_cap_enforced_before_allocating(self, monkeypatch):
        def never(*args, **kw):
            raise AssertionError("allocated a trace past the cap")

        monkeypatch.setenv("IGROVER_TRACE_CAP", "20")
        inst = small_inst()
        ig.run_schedule_full(inst, ig.Schedule(7), record_trace=False)  # no trace, no cap
        monkeypatch.setattr(fullstate, "init_uniform", never)
        monkeypatch.setattr(fullstate.np, "zeros", never)  # the package's one lazy numpy
        monkeypatch.setattr(fullstate.np, "frombuffer", never)
        for run in (ig.run_schedule_full, lambda inst, sched: ig.run_schedule(inst.counts, sched)):
            with pytest.raises(ig.InstanceTooLarge, match="L=7 is too large to trace"):
                run(inst, ig.Schedule(7))


class CountingArray(np.ndarray):
    """An array that adds up the amplitudes every ufunc call on it touches.

    A call counts its largest operand, so `np.subtract(m, st, out=st)` and
    `st.sum()` each count len(st), and a call on a slice counts the slice.
    A call with an output also logs that output's address and size.
    """

    touched = 0
    writes: list[tuple[int, int]] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kw):
        out = kw.get("out") or ()
        CountingArray.touched += max(a.size for a in (*inputs, *out)
                                     if isinstance(a, np.ndarray))
        if out:
            CountingArray.writes.append((out[0].ctypes.data, out[0].size))

        def plain(a):
            return a.view(np.ndarray) if isinstance(a, CountingArray) else a

        if out:
            kw["out"] = tuple(map(plain, out))
        result = getattr(ufunc, method)(*map(plain, inputs), **kw)
        return out[0] if out else result


class CountingNumpy:
    """numpy, except that the state `init_uniform` allocates counts its traffic."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def full(*args, **kw):
        return np.full(*args, **kw).view(CountingArray)


def reference_rows(inst, L):
    """Trace rows the plain way: operators on an index-order state, projected
    after every oracle and every diffusion."""
    state = ig.init_uniform(inst.n)
    rows = [ig.project_to_reduced(state, inst)]
    for _, op, steps in ig.Schedule(L).segments():
        for _ in range(steps):
            state = oracle_full(state, inst, "x" if op == "oracle_x" else "y")
            rows.append(ig.project_to_reduced(state, inst))
            state = diffusion_full(state)
            rows.append(ig.project_to_reduced(state, inst))
    return np.array(rows)


class TestOnePassEvolution:
    """The loop carries per-class sums instead of re-reading the state."""

    @pytest.mark.parametrize("x_lo", [0, 1], ids=["X=universe", "|X|=n-1"])
    def test_long_L_stays_on_the_exact_orbit(self, x_lo):
        # 3 * 10^4 iterations: k00 (empty, or one amplitude) is never
        # re-read, so its carried sum must not drift
        inst = ig.build_instance({"n": 1000, "x": span(x_lo, 999),
                                  "y": span(x_lo, x_lo + 9)})
        state, _, _ = ig.run_schedule_full(inst, ig.Schedule(10_000),
                                           record_trace=False)
        p = ig.project_to_reduced(state, inst)
        exact = exact_stops(ig.partition_classes(inst), 10_000)[-1]
        np.testing.assert_allclose(p, exact, rtol=0, atol=1e-12)
        assert abs(float(state @ state) - 1.0) <= 1e-12

    @pytest.mark.parametrize("case", sorted(SPEC_PAIRS))
    def test_traced_and_untraced_states_are_bitwise_equal(self, case):
        n, x, y = SPEC_PAIRS[case]
        inst = ig.build_instance({"n": n, "x": x, "y": y})
        for L in (0, 1, ig.choose_L(ig.partition_classes(inst)).L + 3):
            traced, _, _ = ig.run_schedule_full(inst, ig.Schedule(L))
            untraced, _, _ = ig.run_schedule_full(inst, ig.Schedule(L),
                                                  record_trace=False)
            assert traced.tobytes() == untraced.tobytes()

    @pytest.mark.parametrize("case", sorted(SPEC_PAIRS))
    def test_rows_match_row_at_a_time_reference(self, case):
        n, x, y = SPEC_PAIRS[case]
        inst = ig.build_instance({"n": n, "x": x, "y": y})
        for L in (0, ig.choose_L(ig.partition_classes(inst)).L):
            _, trace, _ = ig.run_schedule_full(inst, ig.Schedule(L))
            np.testing.assert_allclose(trace_rows(trace), reference_rows(inst, L),
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("case", sorted(SPEC_PAIRS))
    def test_classes_stay_bitwise_uniform(self, monkeypatch, case):
        # stops and the final reorder read one amplitude per class, which is
        # exact because every class stays bitwise uniform: the end-of-run
        # check, reading the module's tolerance per call, passes at zero
        n, x, y = SPEC_PAIRS[case]
        inst = ig.build_instance({"n": n, "x": x, "y": y})
        monkeypatch.setattr(fullstate, "_UNIFORM_TOL", 0.0)
        for L in (0, 1, ig.choose_L(ig.partition_classes(inst)).L + 3):
            for record_trace in (True, False):
                ig.run_schedule_full(inst, ig.Schedule(L), record_trace=record_trace)
        monkeypatch.setattr(fullstate, "_UNIFORM_TOL", -1.0)  # fails even a zero spread
        with pytest.raises(ig.NotClassUniform):
            ig.run_schedule_full(inst, ig.Schedule(1), record_trace=False)

    def test_broken_diffusion_raises(self, monkeypatch):
        # a diffusion that skips the first amplitude (a k00 member) leaves
        # the state off the sphere and that amplitude off its class
        class LeakyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def subtract(a, b, out):
                return np.subtract(a, b[1:], out=out[1:])

        monkeypatch.setattr(fullstate, "np", LeakyNumpy())
        inst = ig.build_instance({"n": 64, "x": span(8, 15), "y": members(9)})
        with pytest.raises((ig.NormDrift, ig.NotClassUniform)):
            ig.run_schedule_full(inst, ig.Schedule(2), record_trace=False)

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_one_pass_per_iteration(self, monkeypatch, record_trace):
        # amplitudes touched by 3 extra cheap iterations (L 1 -> 2), set-up
        # and final checks cancelling: each iteration shifts all n, the X
        # tail at once and k00 later with its block, traced or not (a stop
        # reads one amplitude per class), plus the negated X tail, read
        # again for its class sums
        monkeypatch.setattr(fullstate, "np", CountingNumpy())
        n = 4096
        inst = ig.build_instance({"n": n, "x": mod(64, 5), "y": mod(1024, 5)})
        touched = []
        for L in (1, 2):
            CountingArray.touched = 0
            ig.run_schedule_full(inst, ig.Schedule(L), record_trace=record_trace)
            touched.append(CountingArray.touched)
        per_iteration = (touched[1] - touched[0]) / 3
        assert per_iteration == n + 2 * inst.x_size


def layout_order(state, inst):
    """An index-order state's amplitudes in the class-contiguous layout."""
    labels = np.zeros(inst.n, dtype=np.int8)
    labels[inst.x_spec.selector()] = 1
    labels[inst.y_spec.selector()] = 2
    return np.concatenate([state[labels == c] for c in range(3)])


def assert_matches_whole_vector_run(inst, L):
    for record_trace in (True, False):
        state, trace, _ = ig.run_schedule_full(inst, ig.Schedule(L), record_trace=record_trace)
        want_state, want_stops = whole_vector_run(inst, L, record_trace)
        assert layout_order(state, inst).tobytes() == want_state.tobytes()
        assert trace.stops.tobytes() == want_stops.tobytes()


class TestK00Blocks:
    """k00 takes the X pass's recorded shifts one block at a time, bit for bit."""

    @pytest.mark.parametrize("block", [1, 7, 64, None])
    @pytest.mark.parametrize("case", sorted(SPEC_PAIRS))
    def test_bitwise_equal_to_the_whole_vector_loop(self, monkeypatch, case, block):
        # every spec kind, k00 empty (X the universe) and k10 empty (Y = X);
        # with blocks of 1, 7 and 64 k00 ends in a partial block
        if block is not None:
            monkeypatch.setattr(fullstate, "_BLOCK", block)
        n, x, y = SPEC_PAIRS[case]
        inst = ig.build_instance({"n": n, "x": x, "y": y})
        for L in (0, 1, ig.choose_L(ig.partition_classes(inst)).L):
            assert_matches_whole_vector_run(inst, L)

    def test_bitwise_equal_past_one_default_block(self):
        inst = ig.build_instance({"n": 3 * 2 ** 16 + 5, "x": mod(64, 5),
                                  "y": members(5, 65541)})
        assert 2 * fullstate._BLOCK < inst.n - inst.x_size < 3 * fullstate._BLOCK
        assert_matches_whole_vector_run(inst, ig.choose_L(ig.partition_classes(inst)).L)

    @pytest.mark.parametrize("flush", [None, 4])
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_each_block_takes_its_shifts_in_turn(self, monkeypatch, record_trace, flush):
        # k00 holds 3,937 amplitudes: 61 blocks of 64, then one of 33; each
        # takes every pending shift in consecutive calls before the next
        # block starts, and the 7 shifts of L = 2 come in flushes of `flush`
        monkeypatch.setattr(fullstate, "np", CountingNumpy())
        monkeypatch.setattr(fullstate, "_BLOCK", 64)
        if flush is not None:
            monkeypatch.setattr(fullstate, "_FLUSH", flush)
        inst = ig.build_instance({"n": 4000, "x": mod(64, 5), "y": mod(1024, 5)})
        k00, iterations = inst.n - inst.x_size, 7
        CountingArray.writes = []
        state, _, _ = ig.run_schedule_full(inst, ig.Schedule(2), record_trace=record_trace)
        base = state.ctypes.data
        got = [((address - base) // 8, size) for address, size in CountingArray.writes
               if 0 <= address - base < 8 * k00]
        window = flush or iterations
        want = [(lo, min(64, k00 - lo))
                for first in range(0, iterations, window)
                for lo in range(0, k00, 64)
                for _ in range(min(window, iterations - first))]
        assert k00 == 3937
        assert got == want

    def test_memory_stays_flat_past_the_flush_interval(self):
        # 15,001 iterations, more than _FLUSH: the pending shifts are flushed
        # to k00, so a run holds at most _FLUSH of them whatever L is
        inst = ig.build_instance({"n": 64, "x": span(0, 7), "y": members(3)})
        assert 3 * 5000 + 1 > fullstate._FLUSH
        state, _, _ = ig.run_schedule_full(inst, ig.Schedule(5000), record_trace=False)
        want_state, _ = whole_vector_run(inst, 5000, False)
        assert layout_order(state, inst).tobytes() == want_state.tobytes()
        peaks = {}
        for L in (500, 5000):
            tracemalloc.start()
            try:
                ig.run_schedule_full(inst, ig.Schedule(L), record_trace=False)
                peaks[L] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[5000] <= peaks[500] + 64 * 1024


class TestSampling:
    def test_deterministic_given_seed(self):
        state, _, _ = ig.run_schedule_full(small_inst(), ig.Schedule(2),
                                           record_trace=False)
        draws_a = [ig.sample_measurement(state, seed) for seed in range(20)]
        draws_b = [ig.sample_measurement(state, seed) for seed in range(20)]
        assert draws_a == draws_b

    def test_point_mass_always_sampled(self):
        state = np.zeros(32)
        state[13] = 1.0
        rng = np.random.default_rng(0)
        assert all(ig.sample_measurement(state, rng) == 13 for _ in range(50))

    def test_frequencies_track_squared_amplitudes(self):
        state, _, _ = ig.run_schedule_full(small_inst(), ig.Schedule(2),
                                           record_trace=False)
        rng = np.random.default_rng(99)
        hits = np.zeros(16)
        m = 20000
        for _ in range(m):
            hits[ig.sample_measurement(state, rng)] += 1
        np.testing.assert_allclose(hits / m, state * state, rtol=0, atol=0.02)

    def test_leaves_its_state_unchanged(self):
        # the cumulative table is a new array, not the caller's state
        state, _, _ = ig.run_schedule_full(small_inst(), ig.Schedule(2),
                                           record_trace=False)
        before = state.tobytes()
        ig.sample_measurement(state, 3)
        assert state.tobytes() == before

    def test_p_success_over_many_targets_is_the_projected_z_squared(self, tmp_path):
        # the record's p is z * z of the full engine's final point, one
        # amplitude per class, and agrees with the sum over the 2 * 10^4
        # squared target amplitudes of the state it returns
        inst = ig.build_instance({"n": 1 << 16, "x": {"kind": "range", "lo": 0, "hi": 39999},
                                  "y": {"kind": "range", "lo": 0, "hi": 19999}})
        path, out = tmp_path / "inst.json", tmp_path / "out.json"
        path.write_text(json.dumps(ig.instance_to_json(inst)))
        assert cli.main(["run", "--instance", str(path), "--engine", "full",
                         "--out", str(out)]) in (0, 3)
        record = json.loads(out.read_text())
        state, _, final = ig.run_schedule_full(inst, ig.Schedule(record["L"]),
                                               record_trace=False)
        assert record["p_success_exact"].hex() == ig.success_probability(final).hex()
        targets = state[inst.y_spec.selector()]
        assert targets.size > 10 ** 4
        assert record["p_success_exact"] == pytest.approx(float(targets @ targets), abs=1e-12)


def bits(p: tuple) -> bytes:
    return struct.pack("<3d", *p)


def engine_traces(inst, L):
    """The reduced and the full trace of one schedule on inst."""
    sched = ig.Schedule(L)
    _, trace_r, _ = ig.run_schedule(ig.partition_classes(inst), sched)
    _, trace_f, _ = ig.run_schedule_full(inst, sched)
    return {"reduced": trace_r, "full": trace_f}


class TestStops:
    """A trace stores the stops; every oracle row is derived from the stop before it."""

    @pytest.mark.parametrize("chunk", [1, 3, None])
    @pytest.mark.parametrize("case", sorted(SPEC_PAIRS))
    def test_oracle_rows_are_the_stop_before_them_flipped(self, tmp_path, monkeypatch,
                                                         case, chunk):
        # every spec kind, Y = X and X = universe, L = 0, and CSVs written
        # one, three and all iterations per chunk
        if chunk is not None:
            monkeypatch.setattr(reduced, "_CSV_CHUNK", chunk)
        n, x, y = SPEC_PAIRS[case]
        inst = ig.build_instance({"n": n, "x": x, "y": y})
        oracles = {"oracle_x": oracle_x, "oracle_y": oracle_y}
        for L in (0, ig.choose_L(ig.partition_classes(inst)).L):
            for trace in engine_traces(inst, L).values():
                ig.write_trace_csv(tmp_path / "t.csv", trace)
                lines = (tmp_path / "t.csv").read_text().splitlines()[1:]
                labels, rows = trace_labels(trace), trace_rows(trace)
                assert len(labels) == len(lines) == 1 + 2 * (3 * L + 1)
                for row, ((_, _, op), line) in enumerate(zip(labels, lines)):
                    if op not in oracles:
                        continue
                    assert labels[row - 1][2] in ("init", "diffusion") and row % 2
                    want = oracles[op](trace.stops[row // 2].tolist())
                    assert bits(rows[row].tolist()) == bits(want)
                    assert line.split(",")[3:] == [f"{v:.17g}" for v in (
                        *want, want[2] * want[2])]

    @pytest.mark.parametrize("L", [0, 4])
    def test_memory_is_24_bytes_a_stop(self, L):
        inst = ig.build_instance({"n": 1000, "x": mod(5, 2), "y": members(2, 12, 997)})
        for trace in engine_traces(inst, L).values():
            assert trace.stops.nbytes == 24 * (3 * L + 2)
        _, untraced, _ = ig.run_schedule(ig.partition_classes(inst), ig.Schedule(L),
                                         record_trace=False)
        assert untraced.stops.nbytes == 0 and len(untraced) == 0
        _, untraced, _ = ig.run_schedule_full(inst, ig.Schedule(L), record_trace=False)
        assert untraced.stops.nbytes == 0 and len(untraced) == 0

    def test_allocate_checks_the_cap_before_mapping(self, monkeypatch):
        def never(*args, **kw):
            raise AssertionError("mapped a trace")

        monkeypatch.setattr(mmap, "mmap", never)
        monkeypatch.setenv("IGROVER_TRACE_CAP", "20")
        with pytest.raises(ig.InstanceTooLarge, match="L=7 is too large to trace"):
            ig.Trace.allocate(7)
        with pytest.raises(AssertionError, match="mapped a trace"):
            ig.Trace.allocate(6)  # 20 stops fit the cap, so it maps them

    @pytest.mark.parametrize("L", [0, 4])
    def test_both_engines_fill_one_mapping(self, L):
        inst = ig.build_instance({"n": 1000, "x": mod(5, 2), "y": members(2, 12, 997)})
        for trace in engine_traces(inst, L).values():
            owner = trace.stops
            while isinstance(owner, (np.ndarray, memoryview)):  # views, then the buffer
                owner = owner.base if isinstance(owner, np.ndarray) else owner.obj
            assert isinstance(owner, mmap.mmap) and len(owner) == 24 * (3 * L + 2)
            assert trace.stops.shape == (3 * L + 2, 3)

    @pytest.mark.parametrize("cell", [
        (1000, members(5, 6, 700), None),
        (1024, mod(8, 3), None),
        (4096, span(0, 63), None),
        (4096, span(0, 63), 5),
        (100, span(0, 2), 7),
    ])
    def test_engines_agree_on_the_sign_of_zero(self, cell):
        # Y = X leaves k10 empty: both engines hold +0.0 at every stop, and
        # every cheap oracle row negates it to -0.0 in both
        n, x, L = cell
        inst = ig.build_instance({"n": n, "x": x, "y": x})
        if L is None:
            L = ig.choose_L(ig.partition_classes(inst)).L
        traces = engine_traces(inst, L)
        ys = {name: trace_rows(trace)[:, 1] for name, trace in traces.items()}
        assert (ys["reduced"] == 0.0).all() and (ys["full"] == 0.0).all()
        np.testing.assert_array_equal(np.signbit(ys["reduced"]), np.signbit(ys["full"]))
        assert not np.signbit(traces["reduced"].stops[:, 1]).any()
        cheap = [row for row, (_, _, op) in enumerate(trace_labels(traces["full"]))
                 if op == "oracle_x"]
        assert np.signbit(ys["full"][cheap]).all()
        assert np.signbit(ys["full"]).sum() == len(cheap) == 3 * L
