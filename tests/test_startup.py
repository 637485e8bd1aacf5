"""Start-up: `sweep` and `compare` never import numpy; `run` loads it on demand;
the package's modules import one another in one layer order.

Each test starts a fresh interpreter, since numpy, once imported, stays in
`sys.modules` for the rest of a process.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import igrover

SRC = str(Path(igrover.__file__).resolve().parents[1])
INSTANCE = {"n": 4096, "x": {"kind": "mod", "m": 16, "r": 3},
            "y": {"kind": "list", "members": [3, 19, 2051]}}

# the package's public names, listed here so that dropping one from
# `igrover/__init__.py` fails this test
EXPORTS = """
AngleParams ClassCounts CostModel DEFAULT_FULL_CAP DimensionMismatch EmptyX EmptyY
ExhaustedRepetitions IGroverError IndexOutOfRange InstanceTooLarge InsufficientTrace
Members Modular NormDrift NotClassUniform NotSubset POLICY_PAPER_FORMULA
POLICY_ROUNDED_HALF POLICY_SWEPT ProblemInstance QueryStats Range ReducedState
RunOutcome Schedule SpecFormatError Trace TraceRecord apply_diffusion
apply_diffusion_full apply_oracle_full apply_oracle_x apply_oracle_y build_instance
choose_L class_of compute_theta crossover_t_y errors final_point fullstate
init_uniform initial_point instance instance_to_json kth_in_class load_instance
load_state naive_grover_cost partition_classes phase1_coplanarity_residual
phase1_rotation_check project_to_reduced query_cost reduced result_record
run_schedule run_schedule_full run_with_repetitions sample_from_reduced
sample_measurement save_state scheduling success_probability sweep_L
verify_outcome write_trace_csv __version__
""".split()

# runs each argv in sys.argv[2:] through cli.main and prints, as JSON, the
# exit codes and whether numpy was loaded before the first and after each
CLI_SCRIPT = """
import json, sys
if sys.argv[1] == "numpy-first":
    import numpy
import igrover.cli as cli
codes, loaded = [], ["numpy" in sys.modules]
for argv in sys.argv[2:]:
    codes.append(cli.main(json.loads(argv)))
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


def test_every_exported_name_resolves_without_numpy():
    code = ("import json, igrover\n"
            "missing = [n for n in sys.argv[1:] if not hasattr(igrover, n)]\n"
            "print(json.dumps([missing, 'numpy' in sys.modules]))")
    assert fresh_python(code, *EXPORTS) == [[], False]


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
