"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

import reference
import run
from spans import Tracer
from workloads import WORKLOADS, Op, cycle_ops

sys.path.insert(0, str(run.SRC))

import igrover.cli as cli  # noqa: E402
from igrover.instance import ClassCounts, build_instance  # noqa: E402
from igrover.reduced import run_schedule, success_probability  # noqa: E402
from igrover.scheduling import Schedule  # noqa: E402

INSTANCE = {"n": 4096, "x": {"kind": "range", "lo": 0, "hi": 63},
            "y": {"kind": "list", "members": [3, 40]}}


def _run_op(tmp_path, extra=(), trace=False) -> Op:
    argv = ["run", "--instance", "i.json", "--policy", "paper", "--tx", "1.0", "--ty", "5.0",
            "--engine", "reduced", "--seed", "7", "--reps", "20", *extra, "--out", "o.json"]
    if trace:
        argv += ["--trace", "t.csv"]
    return Op("t0", "run", argv,
              {"instance": INSTANCE, "policy": "paper", "tx": 1.0, "ty": 5.0,
               "engine": "reduced", "seed": 7, "reps": 20},
              inputs={"i.json": json.dumps(INSTANCE)}, out="o.json",
              trace="t.csv" if trace else None, slot="run0")


@pytest.fixture
def in_tmp(tmp_path):
    home = os.getcwd()
    os.chdir(tmp_path)
    yield tmp_path
    os.chdir(home)


def _record(in_tmp):
    (in_tmp / "i.json").write_text(json.dumps(INSTANCE))
    assert cli.main(_run_op(in_tmp).argv) == 0
    return json.loads((in_tmp / "o.json").read_text())


def test_reference_matches_stepwise_engine():
    rnd = random.Random(5)
    for _ in range(60):
        n = rnd.randint(2, 10 ** 6)
        kx = rnd.randint(1, n)
        ky = rnd.randint(1, kx)
        L = rnd.randint(0, 200)
        final, _, _ = run_schedule(ClassCounts(ky, kx - ky, n - kx, n), Schedule(L),
                                   record_trace=False)
        assert abs(success_probability(final) - reference.p_success(n, kx, ky, L)) < 1e-11


def test_checker_accepts_a_correct_run(in_tmp):
    op = _run_op(in_tmp, trace=True)
    res = run.execute(cli, op)
    assert res.problems == []
    assert res.iterations > 1 and (res.iterations - 1) % 3 == 0
    assert res.csv_bytes > 0 and res.out_bytes > 0 and res.digest


def test_checker_flags_perturbed_p(in_tmp):
    rec = _record(in_tmp)
    rec["p_success_exact"] += 1e-6
    problems = reference.check_run(_run_op(in_tmp).flags, 0, json.dumps(rec), None)
    assert any("p_success_exact" in p for p in problems)


def test_checker_flags_wrong_L(in_tmp):
    rec = _record(in_tmp)
    rec["L"] += 1
    problems = reference.check_run(_run_op(in_tmp).flags, 0, json.dumps(rec), None)
    assert any(p.startswith("L=") for p in problems)


def test_checker_flags_index_outside_Y(in_tmp):
    rec = _record(in_tmp)
    assert rec["verified"] is True
    rec["measured_index"] = 5   # in X, not in Y
    problems = reference.check_run(_run_op(in_tmp).flags, 0, json.dumps(rec), None)
    assert any("in Y is False" in p for p in problems)


def test_exit_code_2_is_a_failed_op(in_tmp):
    # a negative tolerance makes the engines "disagree" on every step
    op = _run_op(in_tmp, extra=["--engine", "both", "--tol", "-1"])
    res = run.execute(cli, op)
    assert res.rc == 2
    assert res.problems and res.problems[0].startswith("exit code 2")
    assert reference.check_run(op.flags, 2, "{}", None)[0] == "exit code 2"


def test_rejected_command_line_is_a_failed_op(in_tmp):
    op = _run_op(in_tmp, extra=["--no-such-flag"])
    res = run.execute(cli, op)
    assert res.rc == 1 and res.problems[0].startswith("exit code 1")


def test_checker_flags_trace_row_count(in_tmp):
    rec = _record(in_tmp)
    L = rec["L"]
    good = (1 + 2 * (3 * L + 1), f"3,{2 * L - 1},diffusion,0,0,0,{rec['p_success_exact']!r}")
    flags = _run_op(in_tmp).flags
    assert reference.check_run(flags, 0, json.dumps(rec), good) == []
    bad = (good[0] - 2, good[1])
    assert any("trace has" in p for p in reference.check_run(flags, 0, json.dumps(rec), bad))


def test_sweep_and_compare_checks(in_tmp):
    sweep = Op("s", "sweep", ["sweep", "--grid-n", "5000,900", "--grid-x", "7", "--grid-y", "2",
                              "--tx", "1.5", "--ty", "3.0", "--out", "s.csv"],
               {"ns": [5000, 900], "xs": [7], "ys": [2], "tx": 1.5, "ty": 3.0},
               out="s.csv", slot="sweep0")
    res = run.execute(cli, sweep)
    assert res.problems == [] and res.iterations > 0
    assert cli.main(sweep.argv) == 0
    text = (in_tmp / "s.csv").read_text()
    rows = text.splitlines()
    fields = rows[1].split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)
    broken = "\n".join([rows[0], ",".join(fields), *rows[2:]]) + "\n"
    assert any("cell" in p for p in reference.check_sweep(sweep.flags, 0, broken))

    op = _run_op(in_tmp)
    compare = Op("c", "compare", ["compare", "--instance", "i.json", "--tx", "1.0", "--ty", "5.0",
                                  "--out", "c.json"],
                 {**op.flags}, inputs=op.inputs, out="c.json", slot="compare0")
    assert run.execute(cli, compare).problems == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    def fingerprint(seed):
        return [(op.argv, op.inputs) for op in cycle_ops(WORKLOADS[name], seed, 0)]

    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generated_instances_are_valid(name):
    kinds = set()
    for seed in range(3):
        for cycle in range(2):
            for op in cycle_ops(WORKLOADS[name], seed, cycle):
                for text in op.inputs.values():
                    obj = json.loads(text)
                    inst = build_instance(obj)
                    kinds.update((obj["x"]["kind"], obj["y"]["kind"]))
                    if name == "engines-both":
                        assert inst.n <= 2 ** 20
    if name in ("trace-large-L", "engines-both"):
        assert kinds == {"list", "range", "mod"}


def test_summary_uses_slot_medians():
    # 4 cycles of slots a, b, c (1, 2, 4 s) and one stalled op in slot c
    results = []
    for cycle in range(4):
        for slot, secs in (("a", 1.0), ("b", 2.0), ("c", 40.0 if cycle == 0 else 4.0)):
            r = run.OpResult(f"c{cycle}{slot}", slot, 0.0, secs, 0, iterations=10)
            r.scaled = secs
            results.append(r)
    figures, q, beyond = run.summarize(results, min_ops=12, key=lambda r: r.scaled)
    assert figures["ops_per_s"] == 3 / 7.0 and figures["sim_iters_per_s"] == 30 / 7.0
    assert figures["op_p50_ms"] == 2000.0 and figures["op_tail_ms"] == 1000.0
    assert round(q, 6) == round(100 * 2 / 12, 6) and beyond == 8
    figures, _, _ = run.summarize(results, min_ops=40, key=lambda r: r.scaled)
    assert figures["op_tail_ms"] == 4000.0


def test_tracer_records_nested_spans_and_restores(in_tmp):
    original = cli.run_schedule
    tracer = Tracer()
    with tracer:
        assert cli.run_schedule is not original
        tracer.op_id = "op1"
        assert run.execute(cli, _run_op(in_tmp, trace=True)).problems == []
    assert cli.run_schedule is original
    names = [s.name for s in tracer.spans]
    assert names.count("cli.main") == 1 and "reduced.write_trace_csv" in names
    main = next(s for s in tracer.spans if s.name == "cli.main")
    load = next(s for s in tracer.spans if s.name == "instance.load_instance")
    assert load.parent == main.sid and {s.op_id for s in tracer.spans} == {"op1"}
    traced = [s for s in tracer.spans if s.name == "reduced.run_schedule" and s.attrs["traced"]]
    assert traced and traced[0].attrs["rows"] == 1 + 2 * (3 * traced[0].attrs["L"] + 1)
