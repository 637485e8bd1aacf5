"""Golden CLI corpus: every output byte of about seventy `igrover` command lines.

Each case is an argv, an instance file and environment variables.  It runs
in-process through `cli.main`, and the exit code plus the sha256 of stdout,
of stderr and of every file it writes must match `golden_cli.json`.  Three
cases (`FRESH`) also run as new `python -m igrover.cli` processes.  The
temporary directory's path is replaced by `TMP` before hashing, so error
lines that name a file compare equal on any machine.

A change that moves a digest on purpose lists each moved case in
CHANGES.md.  `python tests/test_golden_cli.py` prints the table the cases
give now, next to nothing else, so that it can be diffed against the
committed one before that one is replaced.  With `--changed` it prints
only the fields that differ, the committed value next to the current one,
and exits 1 if any does; neither form writes the table.  The script needs
only the standard library: without numpy, `--changed` skips the cases that
import it (most `run` cases) and prints how many it skipped.

`run` draws from numpy's `default_rng`, and NEP 19 lets numpy change a
Generator's stream between feature releases; such a change fails the `run`
digests here loudly, which is what they are for.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from igrover import cli

if __name__ == "__main__":  # the script form needs the standard library alone
    def parametrize(*_, **__):
        return lambda test: test
else:
    from pytest import mark
    parametrize = mark.parametrize

GOLDEN = Path(__file__).with_name("golden_cli.json")
SRC = str(Path(cli.__file__).resolve().parents[1])


def members(*values):
    return {"kind": "list", "members": list(values)}


def span(lo, hi):
    return {"kind": "range", "lo": lo, "hi": hi}


def mod(m, r):
    return {"kind": "mod", "m": m, "r": r}


def inst(n, x, y):
    return {"n": n, "x": x, "y": y}


INSTANCES = {
    "ref": inst(16, span(0, 3), members(2)),
    # the nine (X kind, Y kind) pairs, on n = 1000
    "list-list": inst(1000, members(3, 17, 18, 400, 999), members(17, 999)),
    "list-range": inst(1000, members(3, 4, 5, 6, 10, 20, 500), span(4, 6)),
    "list-mod": inst(1000, members(3, 103, 250, 303, 503, 703, 903), mod(200, 103)),
    "range-list": inst(1000, span(100, 299), members(100, 150, 299)),
    "range-range": inst(1000, span(0, 99), span(10, 12)),
    "range-mod": inst(1000, span(7, 999), mod(97, 7)),
    "mod-list": inst(1000, mod(5, 2), members(2, 12, 997)),
    "mod-range": inst(1000, mod(1, 0), span(0, 9)),        # X is the universe
    "mod-mod": inst(1000, mod(3, 1), mod(6, 4)),
    "y-eq-x": inst(1024, mod(8, 3), mod(8, 3)),             # k10 empty
    "universe": inst(999, mod(1, 0), members(5)),            # k00 empty
    "wide": inst(10 ** 9, span(0, 99), members(3)),
    "n1e12": inst(10 ** 12, span(0, 99), members(7)),
    "n2^70": inst(2 ** 70, span(0, 99), members(7)),     # k00 past 2**63
    # y and z start near 1e-5 and p near 1e-10: a trace printing values in
    # scientific notation, both above and below 10**-6
    "sci": inst(10 ** 10, span(0, 15), members(3)),
    # p starts at 1e-106 and prints with a three-digit exponent through row
    # 3,217 of the policy L = 7,854's trace, and with two digits after it
    "tiny-p": inst(10 ** 106, span(0, 10 ** 98 - 1), members(3)),
    "n2^1000": inst(2 ** 1000, mod(2 ** 990, 0), members(0, 2 ** 990)),
    "too-big": inst(2 ** 1030, mod(2 ** 1000, 0), members(0)),
    "not-subset": inst(8, span(0, 1), members(5)),
    "full-cap": inst(65, span(0, 3), members(2)),
    # n = 3 * 2^16 + 5: the full engine's k00 spans several blocks, the last partial
    "blocks-mod": inst(3 * 2 ** 16 + 5, mod(64, 5), members(5, 65541)),
    "blocks-list": inst(3 * 2 ** 16 + 5,
                        members(0, 9, 4000, 65535, 65536, 70001, 131072, 150000, 196612),
                        members(65536, 196612)),
    # 2,024 bytes nested 1,000 deep: json's decoder runs out of recursion (Python 3.11 and
    # older); json.dumps would too, so the file's text is given as it is
    "deep-nesting": '{"n": 10, "x": ' + "[" * 1000 + "]" * 1000 + ', "y": 1}',
    # |X| = n and |Y| = n - 1: the baseline needs no iteration, so it costs nothing
    "dense": inst(4, span(0, 3), members(0, 1, 2)),
    # values an error line echoes, each far longer than a line: a list of 10^5 ints
    # (689 KB) as n, and a 100 KB string as a list member
    "n-long-list": inst(list(range(10 ** 5)), span(0, 3), members(2)),
    "member-long-string": inst(16, members(0, "a" * 10 ** 5), members(0)),
}

PAIRS = ["list-list", "list-range", "list-mod", "range-list", "range-range", "range-mod",
         "mod-list", "mod-range", "mod-mod"]

# (case id, instance or None, argv with {inst} and {tmp} placeholders, environment)
CASES = [
    *((f"run-both-trace-{pair}", pair,
       ["run", "--instance", "{inst}", "--engine", "both", "--seed", "5",
        "--trace", "{tmp}/t.csv"], {}) for pair in PAIRS),
    *((f"run-{engine}-untraced-{pair}", pair,
       ["run", "--instance", "{inst}", "--engine", engine, "--seed", "2"], {})
      for pair, engine in zip(PAIRS[::3], ("reduced", "full", "both"))),
    *((f"run-{engine}-{name}", name,
       ["run", "--instance", "{inst}", "--engine", engine, "--seed", "3", *trace], {})
      for name in ("blocks-mod", "blocks-list")
      for engine, trace in (("full", []), ("both", ["--trace", "{tmp}/t.csv"]))),
    ("run-reduced", "ref", ["run", "--instance", "{inst}"], {}),
    ("run-reduced-trace-out", "ref",
     ["run", "--instance", "{inst}", "--seed", "42", "--out", "{tmp}/r.json",
      "--trace", "{tmp}/t.csv"], {}),
    ("run-full", "ref", ["run", "--instance", "{inst}", "--engine", "full"], {}),
    ("run-full-trace", "ref",
     ["run", "--instance", "{inst}", "--engine", "full", "--L", "5",
      "--trace", "{tmp}/t.csv"], {}),
    ("run-both", "ref", ["run", "--instance", "{inst}", "--engine", "both", "--tx", "2"], {}),
    ("run-full-trace-y-eq-x", "y-eq-x",
     ["run", "--instance", "{inst}", "--engine", "full", "--trace", "{tmp}/t.csv"], {}),
    ("run-reduced-trace-y-eq-x", "y-eq-x",
     ["run", "--instance", "{inst}", "--trace", "{tmp}/t.csv"], {}),
    ("run-full-trace-universe", "universe",
     ["run", "--instance", "{inst}", "--engine", "full", "--policy", "half",
      "--trace", "{tmp}/t.csv"], {}),
    ("run-reduced-trace-universe", "universe",
     ["run", "--instance", "{inst}", "--policy", "sweep", "--trace", "{tmp}/t.csv"], {}),
    ("run-reduced-trace-chunks", "wide",
     ["run", "--instance", "{inst}", "--L", "400", "--trace", "{tmp}/t.csv"], {}),
    ("run-reduced-trace-sci", "sci",
     ["run", "--instance", "{inst}", "--L", "30", "--trace", "{tmp}/t.csv"], {}),
    # 3,301 iterations: past a chunk boundary at 1,024, 1,536, 2,048 and 3,072 each
    ("run-reduced-trace-chunks-3301", "wide",
     ["run", "--instance", "{inst}", "--L", "1100", "--trace", "{tmp}/t.csv"], {}),
    ("run-reduced-trace-tiny-p", "tiny-p",
     ["run", "--instance", "{inst}", "--trace", "{tmp}/t.csv"], {}),
    ("run-n1e12", "n1e12", ["run", "--instance", "{inst}", "--seed", "9"], {}),
    ("run-n2^1000", "n2^1000", ["run", "--instance", "{inst}", "--reps", "3"], {}),
    # every draw lands in k00, a class above 2**63, so each takes rng.bytes
    ("run-n2^70", "n2^70",
     ["run", "--instance", "{inst}", "--L", "0", "--reps", "3", "--seed", "1"], {}),
    ("run-exit-3", "ref", ["run", "--instance", "{inst}", "--seed", "1", "--reps", "1"], {}),
    ("run-exit-2", "ref",
     ["run", "--instance", "{inst}", "--engine", "both", "--tol", "-1"], {}),
    # the engines' first gap above 0 is past row 0: phase 1 step 1 op diffusion
    ("run-exit-2-tol-0", "ref",
     ["run", "--instance", "{inst}", "--engine", "both", "--tol", "0"], {}),
    ("run-trace-cap", "ref",
     ["run", "--instance", "{inst}", "--L", "7", "--trace", "{tmp}/t.csv"],
     {"IGROVER_TRACE_CAP": "20"}),
    ("run-both-trace-cap", "ref",
     ["run", "--instance", "{inst}", "--L", "7", "--engine", "both"],
     {"IGROVER_TRACE_CAP": "20"}),
    # two checks fail at once: the costs come first, then the full cap, then the trace cap
    ("run-trace-cap-and-overflow", "ref",
     ["run", "--instance", "{inst}", "--L", "7", "--tx", "1e308", "--trace", "{tmp}/t.csv"],
     {"IGROVER_TRACE_CAP": "20"}),
    ("run-both-full-and-trace-cap", "full-cap",
     ["run", "--instance", "{inst}", "--engine", "both", "--L", "7"],
     {"IGROVER_FULL_CAP": "64", "IGROVER_TRACE_CAP": "20"}),
    ("run-bad-trace-cap", "ref",
     ["run", "--instance", "{inst}", "--trace", "{tmp}/t.csv"],
     {"IGROVER_TRACE_CAP": "many"}),
    ("run-full-cap", "full-cap", ["run", "--instance", "{inst}", "--engine", "full"],
     {"IGROVER_FULL_CAP": "64"}),
    ("run-tol-nan", "ref", ["run", "--instance", "{inst}", "--engine", "both", "--tol", "nan"],
     {}),
    ("run-n-too-big", "too-big", ["run", "--instance", "{inst}"], {}),
    ("run-not-subset", "not-subset", ["run", "--instance", "{inst}"], {}),
    ("run-missing-file", None, ["run", "--instance", "{tmp}/nope.json"], {}),
    ("run-negative-L", "ref", ["run", "--instance", "{inst}", "--L", "-3"], {}),
    ("run-cost-model-error", "ref", ["run", "--instance", "{inst}", "--tx", "0"], {}),
    ("sweep-instance", "ref",
     ["sweep", "--instance", "{inst}", "--window", "5", "--tx", "2"], {}),
    ("sweep-n2^70", "n2^70", ["sweep", "--instance", "{inst}"], {}),
    ("sweep-n2^1000", "n2^1000", ["sweep", "--instance", "{inst}", "--out", "{tmp}/s.csv"], {}),
    ("sweep-grid", None,
     ["sweep", "--grid-n", "16,1024,1000000", "--grid-x", "1,4,64", "--grid-y", "1,2",
      "--ty", "3", "--out", "{tmp}/g.csv"], {}),
    # the bench's sweep scale: two n in [1e6, 1e9], |X| <= 64, L up to about 25,000
    ("sweep-grid-large-L", None,
     ["sweep", "--grid-n", "3141593,987654321", "--grid-x", "1,17,64", "--grid-y", "1,5,64",
      "--tx", "0.7", "--ty", "40"], {}),
    # a dense cell whose window runs from L = 0 to 42
    ("sweep-window-40-dense", "range-list",
     ["sweep", "--instance", "{inst}", "--window", "40"], {}),
    ("sweep-partial-grid", None, ["sweep", "--grid-n", "16"], {}),
    ("sweep-empty-grid", None, ["sweep", "--grid-n", "16", "--grid-x", "32",
                                "--grid-y", "64"], {}),
    ("sweep-grid-not-int", None, ["sweep", "--grid-n", "5,x", "--grid-x", "2",
                                  "--grid-y", "1"], {}),
    ("sweep-grid-empty-list", None, ["sweep", "--grid-n", ",", "--grid-x", "2",
                                     "--grid-y", "1"], {}),
    ("sweep-no-input", None, ["sweep"], {}),
    ("compare", "ref", ["compare", "--instance", "{inst}"], {}),
    ("compare-tx-ty", "ref",
     ["compare", "--instance", "{inst}", "--tx", "0.5", "--ty", "10", "--policy", "sweep"], {}),
    ("compare-n1e12", "n1e12", ["compare", "--instance", "{inst}", "--ty", "100",
                                "--out", "{tmp}/c.json"], {}),
    ("compare-n1e12-sweep", "n1e12", ["compare", "--instance", "{inst}", "--policy", "sweep"],
     {}),
    ("compare-n2^70", "n2^70", ["compare", "--instance", "{inst}"], {}),
    ("compare-n2^1000", "n2^1000", ["compare", "--instance", "{inst}", "--policy", "half"], {}),
    ("compare-L-too-big", "ref", ["compare", "--instance", "{inst}", "--L", str(2 ** 1022)],
     {}),
    # flag values far longer than a line, echoed clipped
    ("compare-L-long", "ref", ["compare", "--instance", "{inst}", "--L", str(10 ** 4000)], {}),
    # tokens int() or float() refuses: a short one is echoed whole, a long one clipped
    ("compare-L-not-int", "ref", ["compare", "--instance", "{inst}", "--L", "1e3"], {}),
    ("compare-tx-not-float", "ref", ["compare", "--instance", "{inst}", "--tx", "cheap"], {}),
    ("compare-L-5000-nines", "ref", ["compare", "--instance", "{inst}", "--L", "9" * 5000], {}),
    ("sweep-grid-n-long", None, ["sweep", "--grid-n", "5," + "x" * 50000, "--grid-x", "2",
                                 "--grid-y", "1"], {}),
    ("compare-cost-model-error", "ref", ["compare", "--instance", "{inst}", "--ty", "nan"], {}),
    ("compare-deep-nesting", "deep-nesting", ["compare", "--instance", "{inst}"], {}),
    # naive_iterations 0: cost_ratio and crossover_t_y are both null
    ("compare-dense", "dense", ["compare", "--instance", "{inst}"], {}),
    ("compare-n-long-list", "n-long-list", ["compare", "--instance", "{inst}"], {}),
    ("compare-member-long-string", "member-long-string", ["compare", "--instance", "{inst}"],
     {}),
    # finite prices whose costs still fit a float, then ones whose costs overflow:
    # exit 1 with one error line and no --out or --trace file
    ("compare-huge-finite", "ref", ["compare", "--instance", "{inst}", "--tx", "1e300",
                                    "--ty", "1e300"], {}),
    ("compare-overflow", "ref", ["compare", "--instance", "{inst}", "--tx", "1e308",
                                 "--ty", "1e308", "--out", "{tmp}/c.json"], {}),
    ("compare-ratio-overflow", "ref", ["compare", "--instance", "{inst}", "--tx", "1e300",
                                       "--ty", "1e-300"], {}),
    ("run-overflow", "ref", ["run", "--instance", "{inst}", "--tx", "1e308", "--ty", "1e308",
                             "--trace", "{tmp}/t.csv", "--out", "{tmp}/r.json"], {}),
    ("sweep-grid-overflow", None, ["sweep", "--grid-n", "1000000", "--grid-x", "1",
                                   "--grid-y", "1", "--tx", "1e306", "--out", "{tmp}/g.csv"],
     {}),
    # an --out path no file can be made at: exit 1 with one error line naming it, no file
    ("sweep-out-missing-dir", None, ["sweep", "--grid-n", "16,1024", "--grid-x", "1,4",
                                     "--grid-y", "1", "--out", "{tmp}/nodir/g.csv"], {}),
    ("compare-out-is-dir", "ref", ["compare", "--instance", "{inst}", "--out", "{tmp}"], {}),
    ("run-out-missing-dir", "ref",
     ["run", "--instance", "{inst}", "--out", "{tmp}/nodir/r.json"], {}),
    # the trace is written before --out fails, and is removed again
    ("run-trace-out-missing-dir", "ref",
     ["run", "--instance", "{inst}", "--trace", "{tmp}/t.csv", "--out", "{tmp}/nodir/r.json"],
     {}),
    ("argparse-no-command", None, [], {}),
    ("argparse-run-needs-instance", None, ["run"], {}),
    ("argparse-bad-engine", "ref", ["run", "--instance", "{inst}", "--engine", "quantum"], {}),
    ("argparse-sweep-rejects-L", "ref", ["sweep", "--instance", "{inst}", "--L", "3"], {}),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(tmp: Path, name: str | None, argv: list[str], env: dict,
             fresh: bool = False) -> dict:
    """Exit code and digests of one case, run in directory tmp: in-process, or
    as a new `python -m igrover.cli` process (same -O level) if fresh."""
    path = tmp / "inst.json"
    if name is not None:
        spec = INSTANCES[name]
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    argv = [a.format(inst=path, tmp=tmp) for a in argv]
    if fresh:
        child_env = {**os.environ, **env,
                     "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-m",
                               "igrover.cli", *argv], capture_output=True, text=True,
                              env=child_env, timeout=120)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code, out, err = run_in_process(argv, env)
    text = {k: v.replace(str(tmp), "TMP").encode() for k, v in
            (("stdout", out), ("stderr", err))}
    files = {f.name: sha(f.read_bytes()) for f in sorted(tmp.iterdir()) if f != path}
    return {"exit": code, "stdout": sha(text["stdout"]), "stderr": sha(text["stderr"]),
            "files": files}


def run_in_process(argv: list[str], env: dict) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `cli.main(argv)` under env."""
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def test_case_ids_are_unique_and_recorded():
    ids = [case[0] for case in CASES]
    assert len(set(ids)) == len(ids) >= 40
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(ids)


@parametrize("case_id, name, argv, env", CASES, ids=[c[0] for c in CASES])
def test_outputs_match_the_recorded_digests(tmp_path, case_id, name, argv, env):
    assert run_case(tmp_path, name, argv, env) == json.loads(GOLDEN.read_text())[case_id]


# a traced run, a compare writing --out and a grid sweep, each as a new process
FRESH = ["run-reduced-trace-out", "compare-n1e12", "sweep-grid"]


@parametrize("case_id", FRESH)
def test_a_fresh_process_prints_the_same_bytes(tmp_path, case_id):
    _, name, argv, env = next(case for case in CASES if case[0] == case_id)
    want = json.loads(GOLDEN.read_text())[case_id]
    assert run_case(tmp_path, name, argv, env, fresh=True) == want


def test_changed_lines_name_each_moved_field():
    old = {"same": {"exit": 0, "stdout": "a", "stderr": "b", "files": {}},
           "moved": {"exit": 1, "stdout": "a", "stderr": "b", "files": {"t.csv": "c"}}}
    new = {"same": old["same"],
           "moved": {"exit": 1, "stdout": "a", "stderr": "d", "files": {"r.json": "e"}},
           "added": {"exit": 0, "stdout": "a", "stderr": "b", "files": {}}}
    assert changed_lines(old, old) == []
    assert changed_lines(old, new) == [
        "added exit: - -> 0", "added stderr: - -> b", "added stdout: - -> a",
        "moved files/r.json: - -> e", "moved files/t.csv: c -> -", "moved stderr: b -> d"]


def changed_lines(committed: dict, table: dict) -> list[str]:
    """One line per field that differs between two tables: case, field, the
    committed value and the current one ('-' where a side has none)."""
    def fields(record):
        return {**{k: v for k, v in record.items() if k != "files"},
                **{f"files/{name}": digest for name, digest in record.get("files", {}).items()}}

    lines = []
    for case_id in sorted(committed.keys() | table.keys()):
        old, new = fields(committed.get(case_id, {})), fields(table.get(case_id, {}))
        lines += [f"{case_id} {field}: {old.get(field, '-')} -> {new.get(field, '-')}"
                  for field in sorted(old.keys() | new.keys())
                  if old.get(field) != new.get(field)]
    return lines


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--changed"]):
        sys.exit("usage: python tests/test_golden_cli.py [--changed]")
    table, skipped = {}, set()
    for case_id, name, argv, env in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                table[case_id] = run_case(Path(tmp), name, argv, env)
            except ModuleNotFoundError as exc:  # --changed checks what runs without numpy
                if exc.name != "numpy" or not sys.argv[1:]:
                    raise
                skipped.add(case_id)
    if sys.argv[1:]:
        committed = json.loads(GOLDEN.read_text())
        lines = changed_lines({k: v for k, v in committed.items() if k not in skipped}, table)
        sys.stdout.writelines(line + "\n" for line in lines)
        if skipped:
            print(f"skipped {len(skipped)} cases that need numpy, which is not installed")
        sys.exit(1 if lines else 0)
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
