"""Command lines that `cli.main` must parse exactly as
`cli.build_parser().parse_args` does, and the check that compares the two:
the same exit code, stdout and stderr, and the same `vars(namespace)`.

`tests/test_cli.py::TestParse` runs the check on `CORPUS` and on a
`hypothesis` strategy.  The check needs the standard library alone, and no
command runs (each one's func is swapped for `vars`), so numpy is never
imported either.  On an interpreter with none of numpy, pytest or
hypothesis installed,

    PYTHONPATH=src python tests/parse_corpus.py

prints one line per command line of `CORPUS` whose outcome differs, then a
count, and exits 1 if any differs.
"""

from __future__ import annotations

import contextlib
import io
import sys

from igrover import cli

INST = "inst.json"  # never opened

CORPUS = [
    # the four argparse-* golden cases
    [],
    ["run"],
    ["run", "--instance", INST, "--engine", "quantum"],
    ["sweep", "--instance", INST, "--L", "3"],
    # help, before and after a command
    ["-h"],
    ["--help", "compare"],
    ["compare", "-h"],
    # an unknown and an abbreviated command
    ["bogus"],
    ["ru"],
    ["ru", "--instance", INST],
    # an abbreviated flag, the `=` form, a repeated flag
    ["compare", "--inst", INST],
    ["compare", f"--instance={INST}"],
    ["compare", "--instance", INST, "--instance", "other.json"],
    # `--` before the command, before the flags and after them
    ["--", "compare", "--instance", INST],
    ["compare", "--", "--instance", INST],
    ["compare", "--instance", INST, "--"],
    # a leftover positional, a flag the command lacks, an unknown flag
    ["compare", "--instance", INST, "extra"],
    ["sweep", "--L", "3"],
    ["compare", "-x"],
    # values that look like flags, or like no number
    ["compare", "--instance", INST, "--tx", "-1"],
    ["compare", "--instance", INST, "--tx", "nan"],
    ["run", "--instance", INST, "--L", "-5"],
    # `--flag value` pairs that argparse must parse: an odd token count, a missing
    # required flag, a refused int, an empty value (which argparse takes), a value
    # that is a flag, a refused choice
    ["compare", "--instance"],
    ["run", "--seed", "1"],
    ["compare", "--instance", INST, "--L", "x"],
    ["compare", "--instance", ""],
    ["compare", "--instance", INST, "--out", "--tx"],
    ["run", "--instance", INST, "--policy", "best"],
    # well-formed command lines of each command
    ["run", "--instance", INST, "--engine", "both", "--seed", "3", "--trace", "t.csv"],
    ["sweep", "--grid-n", "16,1024", "--grid-x", "1,4", "--grid-y", "1", "--out", "g.csv"],
    ["compare", "--instance", INST, "--policy", "sweep", "--ty", "10"],
]


def outcome(call, argv: list[str]) -> tuple:
    """(exit code or None, stdout, stderr, the returned dict's sorted items or
    None) of call(argv), as text, so that a parsed NaN equals itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            value, code = sorted(call(list(argv)).items()), None
        except SystemExit as exc:
            value, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), repr(value)


@contextlib.contextmanager
def commands_return_vars():
    """Swap each command's func for `vars`, so that `cli.main` returns the
    parsed namespace as a dict instead of running the command."""
    parsers = list(cli.build_parser().commands.values())
    funcs = [p.get_default("func") for p in parsers]
    for p in parsers:
        p.set_defaults(func=vars)
    try:
        yield
    finally:
        for p, func in zip(parsers, funcs):
            p.set_defaults(func=func)


def differences(argvs) -> list[str]:
    """One line per argv whose outcome under `cli.main` differs from its
    outcome under `vars(cli.build_parser().parse_args(argv))`."""
    lines = []
    with commands_return_vars():
        for argv in argvs:
            got = outcome(cli.main, argv)
            want = outcome(lambda a: vars(cli.build_parser().parse_args(a)), argv)
            if got != want:
                lines.append(f"{argv}: main gave {got!r}, parse_args {want!r}")
    return lines


if __name__ == "__main__":
    lines = differences(CORPUS)
    sys.stdout.writelines(line + "\n" for line in lines)
    print(f"{len(CORPUS) - len(lines)} of {len(CORPUS)} command lines parse alike "
          f"on Python {sys.version.split()[0]}")
    sys.exit(1 if lines else 0)
