"""Start-up and shape: `sweep` and `compare` never import numpy; `run` loads it
on demand; one parser serves every `cli.main` call of a process, and a
well-formed command line runs no argparse parse at all; the package's
modules import one another in one layer order, and only a pinned set of the
stdlib at module level; each derived value has one owner, and each memory
cap is checked by what it bounds; only `cli.main` catches the package's own
errors; the README's quick tour runs.

Each start-up test starts a fresh interpreter, since numpy, once imported,
stays in `sys.modules` for the rest of a process.
"""

from __future__ import annotations

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import igrover
from igrover import cli

SRC = str(Path(igrover.__file__).resolve().parents[1])
INSTANCE = {"n": 4096, "x": {"kind": "mod", "m": 16, "r": 3},
            "y": {"kind": "list", "members": [3, 19, 2051]}}

# the package's public names, listed here so that dropping one from
# `igrover/__init__.py`, or bringing a retired one back, fails this test
EXPORTS = """
ClassCounts CostModel DEFAULT_FULL_CAP DimensionMismatch EmptyX EmptyY
IGroverError IndexOutOfRange InstanceTooLarge Members Modular
NormDrift NotClassUniform NotSubset POLICY_PAPER_FORMULA POLICY_ROUNDED_HALF
POLICY_SWEPT ProblemInstance QueryStats Range RunOutcome Schedule
SpecFormatError Trace build_instance choose_L compute_theta crossover_t_y errors
final_point fullstate init_uniform initial_point instance instance_to_json kth_in_class
load_instance naive_iterations partition_classes project_to_reduced query_cost reduced
result_record run_schedule run_schedule_full run_with_repetitions sample_from_reduced
sample_measurement scheduling success_probability sweep_L verify_outcome
write_trace_csv __version__
""".split()

# runs each argv in sys.argv[2:] through cli.main and prints, as JSON, the
# exit codes (argparse's usage errors included) and whether numpy was loaded
# before the first and after each
CLI_SCRIPT = """
import json, sys
if sys.argv[1] == "numpy-first":
    import numpy
import igrover.cli as cli
codes, loaded = [], ["numpy" in sys.modules]
for argv in sys.argv[2:]:
    try:
        codes.append(cli.main(json.loads(argv)))
    except SystemExit as exc:
        codes.append(exc.code)
    loaded.append("numpy" in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def fresh_python(code: str, *args: str) -> dict:
    """Run code in a new interpreter (same -O level) and parse its JSON stdout."""
    cmd = [sys.executable, *["-O"] * sys.flags.optimize, "-c",
           f"import sys; sys.path.insert(0, {SRC!r})\n{code}", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def run_cli(mode: str, *argvs: list[str]) -> dict:
    return fresh_python(CLI_SCRIPT, mode, *(json.dumps(argv) for argv in argvs))


def test_sweep_and_compare_never_import_numpy(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(INSTANCE))
    inst = ["--instance", str(path)]
    argvs = [
        ["sweep", "--grid-n", "16,1024,1000000", "--grid-x", "1,4,64", "--grid-y", "1,2",
         "--out", str(tmp_path / "grid.csv")],
        ["sweep", *inst, "--window", "5", "--out", str(tmp_path / "sweep.csv")],
        ["compare", *inst, "--out", str(tmp_path / "compare.json")],
        ["compare", *inst, "--policy", "sweep", "--ty", "10", "--out", str(tmp_path / "c2.json")],
    ]
    result = run_cli("lazy", *argvs)
    assert result == {"codes": [0] * 4, "loaded": [False] * 5}


def test_run_loads_numpy_and_prints_what_an_eager_import_prints(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(INSTANCE))
    outputs = {}
    for mode in ("lazy", "numpy-first"):
        out = tmp_path / mode
        out.mkdir()
        argvs = []
        for engine in ("reduced", "full", "both"):
            for traced in (False, True):
                tag = f"{engine}-{'traced' if traced else 'untraced'}"
                argv = ["run", "--instance", str(path), "--engine", engine, "--seed", "3",
                        "--out", str(out / f"{tag}.json")]
                argvs.append(argv + ["--trace", str(out / f"{tag}.csv")] if traced else argv)
        result = run_cli(mode, *argvs)
        assert result["codes"] == [0] * 6
        assert result["loaded"] == [mode == "numpy-first"] + [True] * 6
        outputs[mode] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert len(outputs["lazy"]) == 9  # six records and three traces
    assert outputs["lazy"] == outputs["numpy-first"]


def test_one_parser_serves_every_call_of_a_process(tmp_path):
    # main() reuses one parser; no flag or default may leak from one call into
    # the next, a rejected command line included
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(INSTANCE))
    inst = ["--instance", str(path)]
    argvs = [["run", *inst, "--engine", "full", "--L", "3", "--reps", "2", "--tx", "2"],
             ["run", *inst],
             ["sweep", *inst, "--L", "3"],
             ["compare", *inst, "--policy", "half"],
             ["sweep", *inst, "--window", "1"],
             ["run", *inst]]

    def tagged(mode: str) -> list[list[str]]:
        (tmp_path / mode).mkdir()
        return [[*argv, "--out", str(tmp_path / mode / f"{k}.out")]
                for k, argv in enumerate(argvs)]

    shared = run_cli("lazy", *tagged("shared"))["codes"]
    alone = [run_cli("lazy", argv)["codes"][0] for argv in tagged("alone")]
    assert shared == alone == [3, 0, 1, 0, 0, 0]
    outs = {mode: {f.name: f.read_bytes() for f in sorted((tmp_path / mode).iterdir())}
            for mode in ("shared", "alone")}
    assert len(outs["shared"]) == 5 and outs["shared"] == outs["alone"]
    assert cli.build_parser() is cli.build_parser()


def test_a_command_line_with_a_command_skips_the_top_level_parse(tmp_path, monkeypatch):
    # a command's `--flag value` pairs become its namespace without argparse; the
    # top-level parser sees only a command line with no command, or with a token left over
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(INSTANCE))
    inst, out = ["--instance", str(path)], ["--out", str(tmp_path / "out")]
    top, seen = cli.build_parser(), []
    parse_known_args = cli._Parser.parse_known_args

    def spy(self, args=None, namespace=None):
        seen.append((self is top, list(args)))
        return parse_known_args(self, args, namespace)

    monkeypatch.setattr(cli._Parser, "parse_known_args", spy)
    for argv in (["run", *inst, "--seed", "1", *out], ["sweep", *inst, "--window", "1", *out],
                 ["compare", *inst, "--tx", "2", *out]):
        assert cli.main(argv) in (0, 3)
    assert seen == []
    for argv in ([], ["-h"], ["compare", *inst, "extra"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert [args for is_top, args in seen if is_top] == [[], ["-h"], ["compare", *inst, "extra"]]


def test_every_exported_name_resolves_without_numpy():
    code = ("import json, igrover\n"
            "missing = [n for n in sys.argv[1:] if not hasattr(igrover, n)]\n"
            "public = [n for n in dir(igrover) if not n.startswith('_')]\n"
            "print(json.dumps([missing, 'numpy' in sys.modules, public]))")
    missing, numpy_loaded, public = fresh_python(code, *EXPORTS)
    assert (missing, numpy_loaded) == ([], False)
    assert sorted(public + ["__version__"]) == sorted(EXPORTS)


# each module imports, at module level, only modules to its left
LAYERS = ["_numpy", "errors", "instance", "reduced", "fullstate", "scheduling", "cli"]


def test_modules_import_in_layer_order_and_only_at_module_level():
    package = Path(igrover.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level and path.stem in LAYERS:
                assert node.module in LAYERS[:LAYERS.index(path.stem)], (path.name, node.module)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    assert not node.level and not (node.module or "").startswith("igrover"), \
                        (path.name, fn.name, node.module)
                elif isinstance(node, ast.Import):
                    assert not any(a.name.split(".")[0] == "igrover" for a in node.names), \
                        (path.name, fn.name)


def test_scheduling_imports_no_full_engine():
    # scheduling draws from a final (x, y, z) whichever engine computed it
    tree = ast.parse((Path(igrover.__file__).parent / "scheduling.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "reduced" in imported and "fullstate" not in imported


# the stdlib modules that src/ imports at module level, so that every fresh
# `import igrover.cli` loads them: adding one is a deliberate edit
STARTUP_STDLIB = {"__future__", "argparse", "bisect", "functools", "importlib", "json", "math",
                  "operator", "os", "sys", "typing"}


def test_module_level_stdlib_imports_stay_pinned():
    package = Path(igrover.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        stack = list(ast.parse(path.read_text(), str(path)).body)
        while stack:  # everything but function bodies runs at import time
            node = stack.pop()
            if isinstance(node, ast.Import):
                found |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                if not node.level:  # a relative import is the package's own
                    found.add(node.module.split(".")[0])
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))
    assert found == STARTUP_STDLIB


def test_import_skips_dataclasses_inspect_and_array():
    # `dataclasses` alone pulls in `inspect`, about a fifth of a fresh import
    code = ("import json, igrover.cli\n"
            "print(json.dumps([m for m in ('dataclasses', 'inspect', 'array', 'numpy')"
            " if m in sys.modules]))")
    assert fresh_python(code) == []


def test_query_stats_built_only_by_the_schedule():
    # Schedule.queries holds the 3L + 1 rule; no engine or command counts queries
    package = Path(igrover.__file__).parent
    sites = [path.name for path in sorted(package.glob("*.py"))
             for _ in range(path.read_text().count("QueryStats("))]
    assert sites == ["reduced.py"]
    assert "QueryStats(" in inspect.getsource(igrover.Schedule.queries)
    assert igrover.Schedule(4).queries(3) == igrover.QueryStats(12, 1, 3)


def test_expensive_iteration_written_only_by_the_closed_form():
    # ClosedForm.expensive holds the diffusion; final and traced runs call it
    package = Path(igrover.__file__).parent
    sites = [path.name for path in sorted(package.glob("*.py"))
             for _ in range(path.read_text().count("2.0 * d * s"))]
    assert sites == ["reduced.py"] * 3
    assert inspect.getsource(igrover.reduced.ClosedForm.expensive).count("2.0 * d * s") == 3


def test_no_blas_products_in_the_package():
    # numpy's BLAS runs a dot product over 10^4 elements on worker threads
    # that take ms to wake, and its bits depend on the thread count
    package = Path(igrover.__file__).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                sites.append((path.name, node.lineno, "@"))
            name = getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Attribute, ast.alias)) and name in {
                    "dot", "vdot", "inner", "linalg"}:
                sites.append((path.name, node.lineno, name))
    assert sites == []


def test_derived_values_are_not_parameters():
    removed = {"kth_in_class": {"counts"}, "sample_from_reduced": {"counts"},
               "choose_L": {"window"}, "run_schedule_full": {"cap"},
               "run_with_repetitions": {"engine", "evolved", "state"}}
    for name, params in removed.items():
        assert not params & set(inspect.signature(getattr(igrover, name)).parameters), name


def test_each_cap_is_checked_by_what_it_bounds():
    # the trace cap where stops are mapped, the full cap where amplitudes are
    package = Path(igrover.__file__).parent
    calls = {path.name: path.read_text().count("check_cap(")
             for path in sorted(package.glob("*.py")) if "check_cap(" in path.read_text()}
    assert calls == {"fullstate.py": 1, "reduced.py": 2}  # reduced.py also defines it
    for owner in (igrover.Trace.allocate, igrover.run_schedule_full):
        assert "check_cap(" in inspect.getsource(owner)


def test_only_cli_main_catches_the_package_errors():
    # an error of igrover.errors is a refused input or a broken invariant, and
    # main turns each into exit 1; anything else a caller must act on (a run
    # that verified no draw, exit 3) is a returned value, not a raise
    package = Path(igrover.__file__).parent
    errors = {node.name for node in ast.walk(ast.parse((package / "errors.py").read_text()))
              if isinstance(node, ast.ClassDef)}
    sites = []
    for path in sorted(package.glob("*.py")):
        tree, owner = ast.parse(path.read_text(), str(path)), {}
        for fn in ast.walk(tree):  # outer functions first, so the innermost one wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update({id(h): fn.name for h in ast.walk(fn)
                              if isinstance(h, ast.ExceptHandler)})
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = {getattr(n, "id", None) or getattr(n, "attr", None)
                         for n in ast.walk(node.type)} & errors
                if named:
                    sites.append((path.name, owner.get(id(node)), sorted(named)))
    assert "IGroverError" in errors
    assert sites == [("cli.py", "main", ["IGroverError"])]


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert blocks
    for block in blocks:
        exec(compile(block.split("```")[0], "README.md", "exec"), {})
