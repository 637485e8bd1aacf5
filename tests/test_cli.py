"""CLI behavior: subcommands, exit codes, determinism, file outputs."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import igrover as ig
from igrover import cli
from parse_corpus import CORPUS, differences

REF = {"n": 16, "x": {"kind": "range", "lo": 0, "hi": 3},
       "y": {"kind": "list", "members": [2]}}


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(REF))
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


class TestRun:
    def test_basic_run(self, inst_path, capsys):
        assert run_cli("run", "--instance", inst_path, "--seed", "0") == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["L"] == 2
        assert rec["verified"] is True
        assert rec["measured_index"] == 2
        assert rec["counts"] == {"x_queries": 6, "y_queries": 1, "repetitions": 1}

    def test_engines_agree(self, inst_path, capsys):
        assert run_cli("run", "--instance", inst_path, "--engine", "both") == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_reruns_are_byte_identical(self, inst_path, tmp_path):
        outs = []
        traces = []
        for tag in ("a", "b"):
            out = tmp_path / f"out-{tag}.json"
            tr = tmp_path / f"tr-{tag}.csv"
            assert run_cli("run", "--instance", inst_path, "--seed", "42",
                           "--out", str(out), "--trace", str(tr)) == 0
            outs.append(out.read_bytes())
            traces.append(tr.read_bytes())
        assert outs[0] == outs[1]
        assert traces[0] == traces[1]

    def test_trace_row_count(self, inst_path, tmp_path):
        tr = tmp_path / "trace.csv"
        assert run_cli("run", "--instance", inst_path, "--L", "5",
                       "--trace", str(tr)) == 0
        lines = tr.read_text().splitlines()
        assert lines[0] == "phase,step,op,x,y,z,p_success"
        assert len(lines) == 1 + 1 + 2 * (3 * 5 + 1)

    def test_policy_and_L_flags(self, inst_path, capsys):
        assert run_cli("run", "--instance", inst_path, "--policy", "half") == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["policy"] == "rounded_half"
        assert run_cli("run", "--instance", inst_path, "--L", "0",
                       "--policy", "sweep") == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["L"] == 0
        assert rec["counts"]["x_queries"] == 0

    def test_exit_3_when_unverified(self, inst_path, capsys):
        code = run_cli("run", "--instance", inst_path, "--seed", "1", "--reps", "1")
        assert code == 3
        rec = json.loads(capsys.readouterr().out)
        assert rec["verified"] is False
        assert rec["counts"]["repetitions"] == 1

    def test_exit_2_on_engine_disagreement(self, inst_path, capsys, monkeypatch):
        real = cli.run_schedule_full

        def corrupted(inst, sched, **kw):
            state, trace, final = real(inst, sched, **kw)
            trace.stops[-1, 0] += 1e-6  # x of the last row
            return state, trace, final

        monkeypatch.setattr(cli, "run_schedule_full", corrupted)
        code = run_cli("run", "--instance", inst_path, "--engine", "both")
        assert code == 2
        # the first bad row is named: the last diffusion of phase 3 (L = 2)
        assert ("engine disagreement: phase 3 step 3 op diffusion"
                in capsys.readouterr().err)
        # a tolerance wider than the corruption hides it again
        monkeypatch.setattr(cli, "run_schedule_full", corrupted)
        assert run_cli("run", "--instance", inst_path, "--engine", "both",
                       "--tol", "1e-3") == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_tol_must_be_finite(self, inst_path, capsys, monkeypatch, tol):
        # a NaN tol used to pass every gap, so this corruption exited 0
        real = cli.run_schedule_full

        def corrupted(inst, sched, **kw):
            state, trace, final = real(inst, sched, **kw)
            trace.stops[-1, 0] += 1e-6
            return state, trace, final

        monkeypatch.setattr(cli, "run_schedule_full", corrupted)
        assert run_cli("run", "--instance", inst_path, "--engine", "both",
                       f"--tol={tol}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --tol must be finite, got {float(tol)}"]
        # a zero tol is still a tolerance: the corruption shows
        assert run_cli("run", "--instance", inst_path, "--engine", "both",
                       "--tol", "0") == 2

    def test_full_engine_evolves_once(self, inst_path, tmp_path, capsys, monkeypatch):
        # the traced run's final state also serves the repetition draws
        real = ig.fullstate.run_schedule_full
        calls = []

        def counted(*args, **kw):
            calls.append(kw.get("record_trace", True))
            return real(*args, **kw)

        monkeypatch.setattr(cli, "run_schedule_full", counted)
        tr = tmp_path / "trace.csv"
        assert run_cli("run", "--instance", inst_path, "--engine", "full",
                       "--trace", str(tr)) == 0
        assert calls == [True]
        traced = capsys.readouterr().out
        # the record is the one an untraced full run prints
        assert run_cli("run", "--instance", inst_path, "--engine", "full") == 0
        assert calls == [True, False]
        assert capsys.readouterr().out == traced

    def test_a_failed_write_leaves_no_file(self, inst_path, tmp_path, capsys, monkeypatch):
        # a disk that fills after `budget` bytes: at the trace's first byte, in
        # the trace, at the report's first byte and in the report
        trace, out = tmp_path / "t.csv", tmp_path / "r.json"
        argv = ["run", "--instance", inst_path, "--trace", str(trace), "--out", str(out)]
        assert run_cli(*argv) == 0
        sizes = trace.stat().st_size, out.stat().st_size
        trace.unlink()
        out.unlink()
        left = []

        class FillingFile(io.FileIO):
            def write(self, data):
                n = super().write(data[:min(len(data), left[0])])
                left[0] -= n
                if n < len(data):
                    raise OSError(errno.ENOSPC, "No space left on device")
                return n

        for module in (cli, ig.reduced):
            monkeypatch.setattr(module, "open", lambda path, mode, buffering=-1:
                                FillingFile(path, mode), raising=False)
        for budget in (0, sizes[0] // 2, sizes[0], sizes[0] + sizes[1] // 2):
            left[:] = [budget]
            assert run_cli(*argv) == 1
            assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
            assert not trace.exists() and not out.exists()
        out.write_bytes(b"kept")  # a report the failed run never opened stays
        left[:] = [sizes[0] // 2]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().out == ""
        assert not trace.exists() and out.read_bytes() == b"kept"
        out.unlink()
        # an --out the run cannot open is left as it is; the trace still goes
        monkeypatch.undo()
        assert run_cli(*argv[:-1], str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "inst.json"]
        out.write_bytes(b"kept")

        def refusing_open(path, mode, buffering):
            raise PermissionError(errno.EACCES, "Permission denied", path)

        monkeypatch.setattr(cli, "open", refusing_open, raising=False)
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{out}'\n"
        assert not trace.exists() and out.read_bytes() == b"kept"

    def test_exit_1_on_bad_inputs(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert run_cli("run", "--instance", missing) == 1
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert run_cli("run", "--instance", str(garbled)) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 8, "x": {"kind": "range", "lo": 0, "hi": 1},
                                   "y": {"kind": "list", "members": [5]}}))
        assert run_cli("run", "--instance", str(bad)) == 1
        err = capsys.readouterr().err
        assert "error" in err
        # the diagnostic names the offending index
        assert "5" in err.splitlines()[-1]

    def test_usage_errors_exit_1(self, inst_path):
        with pytest.raises(SystemExit) as err:
            run_cli("run")  # --instance is required
        assert err.value.code == 1
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--instance", inst_path, "--engine", "quantum")
        assert err.value.code == 1

    @pytest.mark.parametrize("cap", [None, str(2 ** 80)])
    @pytest.mark.parametrize("L", [2 ** 62, 2 ** 70])
    def test_trace_of_huge_L_is_a_typed_error(self, inst_path, tmp_path, capsys,
                                              monkeypatch, L, cap):
        # 3L + 2 rows of 24 bytes pass a C ssize_t: refused before any mapping,
        # whatever IGROVER_TRACE_CAP asks for
        if cap is not None:
            monkeypatch.setenv("IGROVER_TRACE_CAP", cap)
        trace = tmp_path / "t.csv"
        assert run_cli("run", "--instance", inst_path, "--L", str(L),
                       "--trace", str(trace)) == 1
        captured = capsys.readouterr()
        limit = 2 ** 25 if cap is None else sys.maxsize // 24
        assert captured.out == ""
        assert captured.err == (f"error: L={L} is too large to trace: 3L + 2 stops exceed"
                                f" the trace cap {limit} (set IGROVER_TRACE_CAP to raise it)\n")
        assert not trace.exists()

    @pytest.mark.parametrize("engine", ["reduced", "full", "both"])
    def test_trace_cap_checked_before_any_stepping(self, inst_path, tmp_path, capsys,
                                                   monkeypatch, engine):
        def never(*args, **kw):
            raise AssertionError("stepped a trace past the cap")

        monkeypatch.setenv("IGROVER_TRACE_CAP", "20")
        # the first work each engine does past its trace cap
        monkeypatch.setattr(ig.reduced, "_theta", never)
        monkeypatch.setattr(ig.fullstate, "init_uniform", never)
        trace = tmp_path / "t.csv"
        # L = 7 needs 23 stops; --engine both traces even without --trace
        flags = ["--trace", str(trace)] if engine != "both" else []
        assert run_cli("run", "--instance", inst_path, "--L", "7", "--engine", engine,
                       *flags) == 1
        assert capsys.readouterr().err == (
            "error: L=7 is too large to trace: 3L + 2 stops exceed the trace cap 20"
            " (set IGROVER_TRACE_CAP to raise it)\n")
        assert not trace.exists()

    def test_trace_cap_boundary_and_untraced_runs(self, inst_path, tmp_path, monkeypatch):
        monkeypatch.setenv("IGROVER_TRACE_CAP", "20")
        trace = tmp_path / "t.csv"
        # L = 6 needs exactly 20 stops; an untraced run never allocates a trace
        for engine in ("reduced", "full", "both"):
            assert run_cli("run", "--instance", inst_path, "--L", "6", "--engine", engine,
                           "--trace", str(trace)) in (0, 3)
            assert trace.read_text().count("\n") == 2 + 2 * 19
        assert run_cli("run", "--instance", inst_path, "--L", "7") in (0, 3)

    @pytest.mark.parametrize("raw, message", [
        ("many", "IGROVER_TRACE_CAP must be an integer, got 'many'"),
        ("1", "IGROVER_TRACE_CAP must be >= 2, got 1"),
    ])
    def test_bad_trace_cap_rejected(self, inst_path, tmp_path, capsys, monkeypatch,
                                    raw, message):
        monkeypatch.setenv("IGROVER_TRACE_CAP", raw)
        assert run_cli("run", "--instance", inst_path, "--trace", str(tmp_path / "t.csv")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "t.csv").exists()
        with pytest.raises(ig.SpecFormatError, match=message):
            ig.Trace.allocate(0)

    def test_negative_L_rejected(self, inst_path):
        assert run_cli("run", "--instance", inst_path, "--L", "-3") == 1

    @pytest.mark.parametrize("engine", ["both", "full"])
    def test_full_cap_checked_before_any_stepping(self, tmp_path, capsys, monkeypatch,
                                                  engine):
        def never(*args, **kw):
            raise AssertionError("stepped an instance the full engine refuses")

        monkeypatch.setenv("IGROVER_FULL_CAP", "64")
        monkeypatch.setattr(cli, "run_schedule", never)
        monkeypatch.setattr(ig.fullstate, "init_uniform", never)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 65, "x": {"kind": "range", "lo": 0, "hi": 3},
                                    "y": {"kind": "list", "members": [2]}}))
        assert run_cli("run", "--instance", str(path), "--engine", engine,
                       "--trace", str(tmp_path / "t.csv")) == 1
        assert capsys.readouterr().err == (
            "error: n=65 exceeds full-state cap 64 (set IGROVER_FULL_CAP to raise it)\n")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("engine", ["reduced", "full", "both"])
    def test_cost_overflow_checked_before_any_stepping(self, inst_path, tmp_path, capsys,
                                                       monkeypatch, engine):
        def never(*args, **kw):
            raise AssertionError("stepped a run whose cost overflows")

        monkeypatch.setattr(cli, "run_schedule", never)
        monkeypatch.setattr(cli, "run_schedule_full", never)
        assert run_cli("run", "--instance", inst_path, "--engine", engine, "--tx", "1e308",
                       "--trace", str(tmp_path / "t.csv")) == 1
        assert capsys.readouterr().err == (
            "error: cost total overflows a float (inf); lower the query costs\n")
        assert not (tmp_path / "t.csv").exists()

    def test_cost_overflow_over_repetitions_still_fails(self, inst_path, capsys):
        # one run of L = 2 costs 6 * 2e307 + 1, finite: seed 0 verifies on
        # the first draw, seed 2 on the second, whose total overflows
        argv = ["run", "--instance", inst_path, "--L", "2", "--tx", "2e307"]
        assert run_cli(*argv, "--seed", "0") == 0
        capsys.readouterr()
        assert run_cli(*argv, "--seed", "2") == 1
        assert capsys.readouterr() == ("", "error: cost total overflows a float (inf);"
                                           " lower the query costs\n")

    @pytest.mark.parametrize("engine", ["reduced", "full", "both"])
    def test_class_sizes_computed_once(self, tmp_path, capsys, monkeypatch, engine):
        # the instance keeps its class sizes: the command, the engines, twenty
        # draws that all miss Y and the record share one partition
        real = ig.instance.partition_classes
        calls = []

        def counted(inst):
            calls.append(inst)
            return real(inst)

        for module in (ig.instance, ig.scheduling, ig.fullstate, ig.reduced, cli):
            if hasattr(module, "partition_classes"):
                monkeypatch.setattr(module, "partition_classes", counted)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 4096, "x": {"kind": "range", "lo": 0, "hi": 999},
                                    "y": {"kind": "list", "members": [5]}}))
        assert run_cli("run", "--instance", str(path), "--engine", engine, "--L", "0",
                       "--reps", "20", "--seed", "1") == 3
        rec = json.loads(capsys.readouterr().out)
        assert rec["counts"]["repetitions"] == 20
        assert len(calls) == 1


class TestSweep:
    def test_single_instance_table(self, inst_path, capsys):
        assert run_cli("sweep", "--instance", inst_path, "--window", "2") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,x_size,y_size,L,p_success,cost"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[3]) for r in rows] == [0, 1, 2, 3, 4]
        assert all(r[0] == "16" and r[1] == "4" and r[2] == "1" for r in rows)
        by_L = {int(r[3]): float(r[4]) for r in rows}
        assert by_L[2] == pytest.approx(121 / 256, rel=1e-12)
        assert max(by_L.values()) >= by_L[2]

    def test_grid_mode(self, capsys):
        assert run_cli("sweep", "--grid-n", "64,256", "--grid-x", "8,16",
                       "--grid-y", "1,4") == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        # all 8 combinations are valid here, ordered lexicographically
        assert len(rows) == 8
        keys = [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        assert all(0.0 <= float(r[4]) <= 1.0 for r in rows)

    def test_one_cell_grid_prints_the_instance_best_row(self, inst_path, capsys):
        # REF is n = 16, |X| = 4, |Y| = 1: both modes print one row format
        assert run_cli("sweep", "--instance", inst_path, "--window", "4", "--tx", "2") == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        p_max = max(float(row.split(",")[4]) for row in rows)
        best = next(row for row in rows if float(row.split(",")[4]) == p_max)  # first on ties
        assert run_cli("sweep", "--grid-n", "16", "--grid-x", "4", "--grid-y", "1",
                       "--window", "4", "--tx", "2") == 0
        assert capsys.readouterr().out.splitlines()[1:] == [best]

    def test_grid_skips_invalid_cells(self, capsys):
        assert run_cli("sweep", "--grid-n", "16", "--grid-x", "8,32",
                       "--grid-y", "4") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # |X|=32 > n=16 dropped

    def test_grid_with_no_cells_fails(self, capsys):
        assert run_cli("sweep", "--grid-n", "16", "--grid-x", "4",
                       "--grid-y", "8") == 1
        assert "no valid cells" in capsys.readouterr().err

    def test_partial_grid_flags_fail(self, capsys):
        assert run_cli("sweep", "--grid-n", "16,64") == 1
        assert run_cli("sweep") == 1

    @pytest.mark.parametrize("raw, message", [
        ("1,x", "--grid-n wants a comma-separated integer list, got '1,x'"),
        (",", "--grid-n is empty"),
    ])
    def test_bad_grid_lists_fail(self, capsys, raw, message):
        assert run_cli("sweep", "--grid-n", raw, "--grid-x", "4", "--grid-y", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("mode", ["grid", "instance"])
    def test_negative_window_rejected(self, inst_path, capsys, mode):
        where = (["--grid-n", "16", "--grid-x", "4", "--grid-y", "1"] if mode == "grid"
                 else ["--instance", inst_path])
        assert run_cli("sweep", *where, "--window", "-1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: window must be >= 0, got -1"]
        # a zero window is the formula L alone
        assert run_cli("sweep", *where, "--window", "0") == 0
        assert [line.split(",")[3] for line in capsys.readouterr().out.splitlines()[1:]
                ] == ["2"]

    @pytest.mark.parametrize("flag", [["--L", "50"], ["--policy", "half"]])
    def test_schedule_flags_rejected(self, inst_path, capsys, flag):
        # sweep tabulates a window of L around the formula; --L and --policy
        # belong to run and compare, which read them
        with pytest.raises(SystemExit) as err:
            run_cli("sweep", "--instance", inst_path, *flag)
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"igrover: error: unrecognized arguments: {' '.join(flag)}")
        for command in ("run", "compare"):
            assert run_cli(command, "--instance", inst_path, *flag) == 0

    def test_out_file(self, inst_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--instance", inst_path, "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("n,x_size,y_size,L,p_success,cost\n")


class TestCompare:
    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("flag", ["--tx=inf", "--ty=-inf", "--ty=inf", "--tx=nan"])
    def test_non_finite_costs_rejected(self, inst_path, capsys, command, flag):
        # an infinite price made compare print Infinity and NaN, not JSON
        assert run_cli(command, "--instance", inst_path, flag) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: query costs must be positive and finite")

    def test_reference_report(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "n": 1024,
            "x": {"kind": "range", "lo": 0, "hi": 15},
            "y": {"kind": "list", "members": [0]},
        }))
        assert run_cli("compare", "--instance", str(path), "--ty", "100") == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["L"] == 6
        assert rep["counts"] == {"x_queries": 18, "y_queries": 1}
        assert rep["naive_iterations"] == 25
        assert rep["crossover_t_y"] == 0.75
        assert rep["cost"]["total"] == 118.0
        assert rep["cost"]["naive_total"] == 2500.0
        assert rep["cost_ratio"] == pytest.approx(0.0472, abs=1e-12)
        assert rep["two_oracle_wins"] is True

    def test_dense_target_has_no_ratio(self, tmp_path, capsys):
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({
            "n": 8,
            "x": {"kind": "mod", "m": 1, "r": 0},
            "y": {"kind": "mod", "m": 1, "r": 0},
        }))
        assert run_cli("compare", "--instance", str(path)) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["naive_iterations"] == 0
        assert rep["cost_ratio"] is None
        assert rep["two_oracle_wins"] is False


# |X| / n underflowed to 0.0 (ZeroDivisionError in choose_L) and n or 4L
# overflowed a float (OverflowError) before n and L were bounded
HUGE_N = {"n": 10 ** 400, "x": {"kind": "range", "lo": 0, "hi": 9},
          "y": {"kind": "list", "members": [0]}}
HUGE_MOD = {"n": 2 ** 1030, "x": {"kind": "mod", "m": 2 ** 1000, "r": 0},
            "y": {"kind": "list", "members": [0]}}


class TestFloatLimits:
    @pytest.mark.parametrize("obj, argv, message", [
        (HUGE_N, ["run"], "n must be <= 2**1023"),
        (HUGE_N, ["compare"], "n must be <= 2**1023"),
        (HUGE_N, ["sweep"], "n must be <= 2**1023"),
        (None, ["sweep", "--grid-n", str(10 ** 400), "--grid-x", "10", "--grid-y", "1"],
         "n must be <= 2**1023"),
        (HUGE_MOD, ["run"], "n must be <= 2**1023"),
        (REF, ["compare", "--L", str(10 ** 400)], "L must be <= 2**1021"),
        (REF, ["compare", "--L", str(2 ** 1022)], "L must be <= 2**1021"),
    ], ids=["run", "compare", "sweep", "grid", "run-mod", "L-1e400", "L-2^1022"])
    def test_too_large_for_a_float_exits_1(self, tmp_path, capsys, obj, argv, message):
        if obj is not None:
            path = tmp_path / "inst.json"
            path.write_text(json.dumps(obj))
            argv = [*argv, "--instance", str(path)]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {message}, got ")

    def test_largest_n_and_L_still_answer(self, tmp_path, inst_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**HUGE_MOD, "n": 2 ** 1023}))
        assert run_cli("run", "--instance", str(path)) == 3
        assert json.loads(capsys.readouterr().out)["counts"]["repetitions"] == 20
        assert run_cli("compare", "--instance", inst_path, "--L", str(2 ** 1021)) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["L"], rep["counts"]["x_queries"]) == (2 ** 1021, 3 * 2 ** 1021)


json_scalars = (st.none() | st.booleans()
                | st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(max_size=8))
json_records = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(st.integers(min_value=-(2 ** 65), max_value=2 ** 65), max_size=6)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=30)


def emitted(obj) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(obj, None)
    return buf.getvalue()


class TestEmit:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(json_records)
    @example({"n": 2 ** 64 + 1, "m": -7, "nan": float("nan"), "inf": float("inf"),
              "-inf": float("-inf"), "z": -0.0, "small": 1e-7, "big": 1e22,
              "t": True, "f": False, "none": None, "s": "\u00e9\u2603\"\\\n",
              "empty": [[], {}], "ints": [3, -1, 2 ** 63], "mixed": [1, True, 1.0]})
    def test_matches_stdlib_indent_2_sorted(self, obj):
        assert emitted(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_long_member_list_and_out_file(self, tmp_path):
        # more members than one formatting call takes, some past 2**63
        obj = {"y": {"members": [7 + 10 ** 13 * j for j in range(2 * cli._INT_CHUNK + 3)]},
               "p": 0.5, "ok": [True, None]}
        cli._emit(obj, tmp_path / "out.json")
        want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "out.json").read_text() == want == emitted(obj)

    def test_subclasses_encode_as_their_base(self):
        import enum

        class Level(enum.IntEnum):
            HIGH = 3

        class Label(str):
            pass

        obj = {"a": Level.HIGH, "b": [Level.HIGH, 2], "c": Label("x")}
        assert emitted(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        with pytest.raises(TypeError):
            emitted({"a": object()})


# a reduced run whose Y list takes three formatting calls, the full engine, a grid
# sweep, an instance sweep and compare; {ref} is REF's path, {long} LONG's
OUT_ARGVS = {
    "run-long-y": ["run", "--instance", "{long}", "--seed", "4"],
    "run-full": ["run", "--instance", "{ref}", "--engine", "full", "--seed", "4"],
    "sweep-grid": ["sweep", "--grid-n", "16,1024,1000000", "--grid-x", "1,4,64",
                   "--grid-y", "1,2"],
    "sweep-instance": ["sweep", "--instance", "{ref}", "--window", "5", "--tx", "2"],
    "compare": ["compare", "--instance", "{ref}", "--ty", "10"],
}
LONG = {"n": 10 ** 12, "x": {"kind": "range", "lo": 0, "hi": 10 ** 6},
        "y": {"kind": "list", "members": list(range(5, 10 ** 6, 97))}}


class TestOutFile:
    """`--out FILE` holds the bytes the same command line prints to stdout."""

    @pytest.fixture
    def out_argv(self, tmp_path, inst_path, request):
        long_path = tmp_path / "long.json"
        long_path.write_text(json.dumps(LONG))
        assert len(LONG["y"]["members"]) > 2 * cli._INT_CHUNK
        return [a.format(ref=inst_path, long=long_path) for a in request.param]

    def stdout_and_out_file(self, argv, out, capsys):
        code = run_cli(*argv)
        printed = capsys.readouterr().out
        assert run_cli(*argv, "--out", str(out)) == code in (0, 3)
        assert capsys.readouterr() == ("", "")
        return printed.encode(), out.read_bytes()

    @pytest.mark.parametrize("out_argv", OUT_ARGVS.values(), indirect=True, ids=OUT_ARGVS)
    def test_out_file_bytes_equal_stdout(self, out_argv, tmp_path, capsys):
        printed, written = self.stdout_and_out_file(out_argv, tmp_path / "out", capsys)
        assert written == printed and len(written) > 100

    @pytest.mark.parametrize("out_argv", OUT_ARGVS.values(), indirect=True, ids=OUT_ARGVS)
    def test_short_writes_still_land_in_full(self, out_argv, tmp_path, capsys, monkeypatch):
        # a raw file that takes at most 7 bytes a call: every part needs its retries
        calls = []

        class SevenBytes(io.FileIO):
            def write(self, data):
                calls.append(len(data))
                return super().write(data[:7])

        def seven_byte_open(path, mode, buffering):
            assert (mode, buffering) == ("wb", 0)
            return SevenBytes(path, mode)

        monkeypatch.setattr(cli, "open", seven_byte_open, raising=False)
        printed, written = self.stdout_and_out_file(out_argv, tmp_path / "out", capsys)
        assert written == printed
        assert len(calls) >= len(printed) / 7 and max(calls) > 7


# command lines drawn from: each command, an abbreviated or unknown one, `-h` or `--`
# first; then flags with values each command takes, or any flag next to any value
# (an abbreviation, an `=` form, a value that looks like a number, a flag or nothing)
COMMANDS = ["run", "sweep", "compare", "ru", "bogus", "-h", "--"]
FLAG_VALUES = {"--instance": ["i.json"], "--policy": ["paper", "sweep"], "--L": ["3", "-5"],
               "--tx": ["0.5", "-1", "nan"], "--ty": ["10"], "--out": ["o.json"],
               "--engine": ["full", "both"], "--seed": ["1"], "--reps": ["2"],
               "--trace": ["t.csv"], "--tol": ["1e-9"], "--window": ["1"],
               "--grid-n": ["16,1024"], "--grid-x": ["1,4"], "--grid-y": ["1"]}
FLAGS = [*FLAG_VALUES, "--inst", "--t", "--grid", "-h", "--help", "-x"]
VALUES = ["i.json", "1", "-1", "inf", "quantum", "-", ""]
flag_items = st.one_of(
    st.sampled_from([(flag, v) for flag, values in FLAG_VALUES.items() for v in values]),
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.builds(lambda f, v: (f"{f}={v}",), st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.tuples(st.sampled_from(FLAGS + VALUES + ["--"])))
# each command's required flags, then its other flags
COMMON = ["--tx", "--ty", "--out"]
COMMAND_FLAGS = {
    "run": (["--instance"], ["--policy", "--L", *COMMON, "--engine", "--seed", "--reps",
                             "--trace", "--tol"]),
    "sweep": ([], ["--instance", *COMMON, "--window", "--grid-n", "--grid-x", "--grid-y"]),
    "compare": (["--instance"], ["--policy", "--L", *COMMON]),
}


@st.composite
def own_flag_lines(draw) -> list[str]:
    """A command, then its required flags and some of its others, in any order, each
    once with a value from FLAG_VALUES: mostly the `--flag value` lines that
    cli._parse builds without argparse."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    required, others = COMMAND_FLAGS[command]
    flags = draw(st.permutations(required + draw(st.lists(st.sampled_from(others), unique=True))))
    values = [draw(st.sampled_from(FLAG_VALUES[flag])) for flag in flags]
    return [command, *(tok for pair in zip(flags, values) for tok in pair)]


command_lines = st.one_of(
    st.builds(
        lambda head, items: head + [tok for item in items for tok in item],
        st.one_of(st.sampled_from([["run", "--instance", "i.json"], ["sweep"], ["compare"],
                                   ["compare", "--instance", "i.json"]]),
                  st.lists(st.sampled_from(COMMANDS), max_size=1)),
        st.lists(flag_items, max_size=5)),
    own_flag_lines())


class TestParse:
    """cli.main parses as build_parser().parse_args does (see parse_corpus.py)."""

    def test_the_corpus_parses_alike(self):
        assert differences(CORPUS) == []

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(command_lines)
    def test_any_command_line_parses_alike(self, argv):
        assert differences([argv]) == []


# valid instances, most with every bound at its limit, so that one step off breaks them
TIGHT = [
    {"n": 8, "x": {"kind": "range", "lo": 0, "hi": 7}, "y": {"kind": "mod", "m": 8, "r": 7}},
    {"n": 8, "x": {"kind": "list", "members": [0, 7]},
     "y": {"kind": "list", "members": [0, 7]}},
    {"n": 9, "x": {"kind": "mod", "m": 3, "r": 2}, "y": {"kind": "range", "lo": 5, "hi": 5}},
    {"n": 8, "x": {"kind": "mod", "m": 1, "r": 0}, "y": {"kind": "list", "members": [0, 7]}},
    REF,
]
EDGE_N = [1, 2, 3, 2 ** 1023 - 1, 2 ** 1023, 2 ** 1023 + 1]


@st.composite
def mutated_instances(draw) -> dict:
    """A tight instance as it is, or with one field dropped, swapped for another
    JSON value or moved one step, or with n set near 2 or near 2**1023."""
    obj = json.loads(json.dumps(draw(st.sampled_from(TIGHT))))
    paths = [(obj, key) for key in obj] + [(obj[s], key) for s in "xy" for key in obj[s]]
    parent, key = draw(st.sampled_from(paths))
    how = draw(st.sampled_from(["keep", "drop", "swap", "step", "edge-n"]))
    value = parent[key]
    if how == "keep":
        pass
    elif how == "drop":
        del parent[key]
    elif how == "swap":
        parent[key] = draw(json_records)
    elif how == "step" and isinstance(value, list):
        j = draw(st.integers(0, len(value) - 1))
        value[j] += draw(st.sampled_from([-1, 1]))
    elif how == "step" and isinstance(value, int):
        parent[key] = value + draw(st.sampled_from([-1, 1]))
    else:
        obj["n"] = draw(st.sampled_from(EDGE_N))
    return obj


def nested_text(depth: int, where: str) -> str:
    """An instance file nested depth deep: all of it, or its x, as arrays or objects."""
    if where == "dict":
        inner = '{"a": ' * depth + "1" + "}" * depth
    else:
        inner = "[" * depth + "]" * depth
    return inner if where == "top" else '{"n": 10, "x": ' + inner + ', "y": 1}'


instance_texts = st.one_of(
    json_records.map(json.dumps),
    mutated_instances().map(json.dumps),
    st.builds(nested_text, st.sampled_from([1, 2, 999, 1000, 1001, 10 ** 4, 10 ** 5]),
              st.sampled_from(["top", "x", "dict"])))
EXTRA_FLAGS = [[], ["--policy", "half"], ["--policy", "sweep"], ["--L", "0"], ["--L", "5"],
               ["--L", str(2 ** 1021)], ["--L", str(2 ** 1021 + 1)], ["--L", "-1"],
               ["--tx", "1e308", "--ty", "1e308"]]


class TestExitCodes:
    """Every instance file gets an answer (0), all repetitions unverified (3),
    or one short `error:` line and nothing else (1), never a traceback."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "inst.json"

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(instance_texts, st.sampled_from([["compare"], ["run", "--engine", "reduced"]]),
           st.sampled_from(EXTRA_FLAGS))
    @example('{"n": 10, "x": ' + "[" * 1000 + "]" * 1000 + ', "y": 1}', ["compare"], [])
    @example(json.dumps({**REF, "n": list(range(10 ** 5))}), ["compare"], [])
    @example(json.dumps({**REF, "x": "a" * 10 ** 5}), ["run", "--engine", "reduced"], [])
    @example(json.dumps({**TIGHT[3], "n": 2 ** 1023}), ["run", "--engine", "reduced"], [])
    @example(json.dumps(REF), ["run", "--engine", "reduced"], [])  # verified: exit 0
    @example(json.dumps({**REF, "n": 10 ** 12}), ["run", "--engine", "reduced"],
             ["--L", "0"])  # p is 9e-12: exit 3
    def test_exit_code_and_error_line(self, path, text, command, flags):
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--instance", str(path), *flags])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 3), (code, err)
        assert "Traceback" not in err
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            assert err.endswith("\n") and len(err) <= 1001, len(err)
        else:
            record = json.loads(out)
            assert err == "" and record
            # the exit code is the record's verdict: compare has none and exits 0
            assert record.get("verified", True) is (code == 0), (command, code)

    LONG = "-" + "9" * 300  # a flag value longer than any error line should be

    @pytest.mark.parametrize("argv", [
        ["compare", "--instance", "{path}", "--L", str(10 ** 4000)],
        ["compare", "--instance", "{path}", "--L", LONG],
        ["run", "--instance", "{path}", "--reps", LONG],
        ["sweep", "--instance", "{path}", "--window", LONG],
        ["sweep", "--grid-n", "5," + "x" * 50000, "--grid-x", "2", "--grid-y", "1"],
    ], ids=["L-huge", "L-negative", "reps", "window", "grid-n"])
    def test_flag_values_are_clipped(self, path, argv):
        path.write_text(json.dumps(REF), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(path=path) for a in argv])
        err = err.getvalue()
        assert code == 1 and out.getvalue() == "" and err.count("\n") == 1, err
        assert err.startswith("error: ") and "..." in err and len(err) <= 100, err

    @pytest.mark.parametrize("command, flag, kind", [
        ("compare", "--L", "int"), ("run", "--reps", "int"), ("run", "--seed", "int"),
        ("sweep", "--window", "int"), ("compare", "--tx", "float"), ("compare", "--ty", "float"),
        ("run", "--tol", "float")])
    def test_refused_flag_tokens_keep_argparse_wording_clipped(self, path, command, flag, kind):
        # int() refuses more than 4,300 digits and float() a trailing letter;
        # a token of up to 30 characters is echoed whole, as argparse does
        path.write_text(json.dumps(REF), encoding="utf-8")
        long = "9" * 4999 + ("9" if kind == "int" else "x")
        for token, echo in (("1e3x", "'1e3x'"), (long, f"'{long[:12]}...{long[-13:]}'")):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    pytest.raises(SystemExit) as exc:
                cli.main([command, "--instance", str(path), flag, token])
            assert exc.value.code == 1 and out.getvalue() == ""
            assert err.getvalue().splitlines()[-1] == (
                f"igrover {command}: error: argument {flag}: invalid {kind} value: {echo}")
