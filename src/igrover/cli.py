"""Command-line front end: run, sweep, compare.

Exit codes: 0 success, 1 validation or input problems, 2 the two engines
disagree beyond --tol, 3 every repetition measured an unverified index.
All randomness flows from --seed, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .errors import IGroverError, shown
from .fullstate import run_schedule_full
from .instance import load_instance, ClassCounts
from .reduced import run_schedule, write_trace_csv
from .scheduling import (
    POLICY_PAPER_FORMULA,
    POLICY_ROUNDED_HALF,
    POLICY_SWEPT,
    CostModel,
    Schedule,
    choose_L,
    compare_record,
    cost_record,
    query_cost,
    result_record,
    run_with_repetitions,
    sweep_L,
)

_POLICY_FLAG = {
    "paper": POLICY_PAPER_FORMULA,
    "half": POLICY_ROUNDED_HALF,
    "sweep": POLICY_SWEPT,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for engine
    # disagreement here, so treat bad command lines as validation failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(kind):
    """A `type=` converter: kind(raw), or argparse's "invalid int value"
    (or float) error with the token clipped by `shown`, since a refused
    token can be thousands of characters long."""
    def convert(raw: str):
        try:
            return kind(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {shown(raw)}") from None
    return convert


_INT, _FLOAT = _number(int), _number(float)

_FLOAT_NAMES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}
# list members formatted per call: the stdlib's pure-Python encoder (which
# json.dumps runs whenever indent is set) takes twice as long, and one piece
# per list would be a second full copy of a long list's text
_INT_CHUNK = 4096


def _json_parts(obj, indent: str, out: list) -> None:
    """Add the text of json.dumps(obj, indent=2, sort_keys=True) to out, a
    non-empty list of pieces.  A list's close, each of its members and each
    `_INT_CHUNK` members of an all-int list (an instance's) start a new
    piece; the rest goes onto the last piece, so a record with a long list
    takes a few pieces, each written as it is, and one without takes one."""
    if isinstance(obj, str):
        out[-1] += encode_basestring_ascii(obj)
    elif obj is None or obj is True or obj is False:
        out[-1] += "null" if obj is None else "true" if obj else "false"
    elif isinstance(obj, int):
        out[-1] += int.__repr__(obj)
    elif isinstance(obj, float):
        out[-1] += "NaN" if obj != obj else _FLOAT_NAMES.get(obj) or float.__repr__(obj)
    elif isinstance(obj, dict):
        inner = indent + "  "
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            out[-1] += sep + encode_basestring_ascii(k) + ": "
            _json_parts(v, inner, out)
            sep = "," + inner
        out[-1] += indent + "}" if obj else "{}"
    elif isinstance(obj, (list, tuple)):
        inner = indent + "  "
        sep = "[" + inner
        if set(map(type, obj)) == {int}:
            for lo in range(0, len(obj), _INT_CHUNK):
                chunk = obj[lo:lo + _INT_CHUNK]
                out.append((sep + "%d" + ("," + inner + "%d") * (len(chunk) - 1))
                           % tuple(chunk))
                sep = "," + inner
        else:
            for v in obj:
                out.append(sep)
                _json_parts(v, inner, out)
                sep = "," + inner
        out.append(indent + "]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(parts, out_path) -> None:
    """Write the text parts to stdout, or to out_path through one unbuffered
    binary file: each part is encoded and written in full, a short write
    retried, so every byte lands or an OSError is raised."""
    if not out_path:
        return sys.stdout.writelines(parts)
    with open(out_path, "wb", buffering=0) as fh:
        for part in parts:
            data = memoryview(part.encode())
            while data:
                data = data[fh.write(data):]


def _emit(obj, out_path) -> None:
    parts = [""]
    _json_parts(obj, "\n", parts)
    parts[-1] += "\n"
    _write(parts, out_path)


def _schedule_for(args, counts) -> Schedule:
    policy = _POLICY_FLAG[args.policy]
    if args.L is not None:
        return Schedule(args.L, policy)
    return choose_L(counts, policy)


def cmd_run(args) -> int:
    # a NaN tol passes every gap (a negative one fails every gap, on purpose)
    if not math.isfinite(args.tol):
        raise IGroverError(f"--tol must be finite, got {args.tol}")
    inst = load_instance(args.instance)
    sched = _schedule_for(args, inst.counts)
    model = CostModel(args.tx, args.ty)

    traced = bool(args.trace) or args.engine == "both"
    cost_record(inst.counts, sched.queries(), model)  # if one run's costs overflow, fail at once
    if args.engine != "reduced":
        # checks both caps before it allocates, so before any O(L) reduced trace
        _, full_trace, final = run_schedule_full(inst, sched, record_trace=traced)
        trace = full_trace
    if args.engine != "full":
        final, trace, _ = run_schedule(inst.counts, sched, record_trace=traced)
    if args.engine == "both":
        gap = trace.first_gap(full_trace, args.tol)
        if gap is not None:
            phase, step, op = trace.label(gap[0])
            print(f"engine disagreement: phase {phase} step {step} op {op}: "
                  f"max delta {gap[1]:.3g} > tol {args.tol:.3g}", file=sys.stderr)
            return 2

    outcome = run_with_repetitions(inst, final, args.reps, args.seed)
    record = result_record(inst, sched, outcome, model)  # all repetitions' costs, before any write
    out = None  # set once the trace, if any, is written in full
    try:
        if args.trace:
            write_trace_csv(args.trace, trace)
        out = args.out
        _emit(record, out)
    except OSError as exc:  # remove the files this run wrote: no device, no path open refused
        for path in filter(os.path.isfile, {args.trace, out} - {None, exc.filename}):
            os.remove(path)
        raise
    return 0 if outcome.verified else 3


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        values = sorted({int(tok) for tok in raw.split(",") if tok.strip()})
    except ValueError:
        raise IGroverError(f"{flag} wants a comma-separated integer list, got {shown(raw)}")
    if not values:
        raise IGroverError(f"{flag} is empty")
    return values


def cmd_sweep(args) -> int:
    model = CostModel(args.tx, args.ty)
    grid_flags = (args.grid_n, args.grid_x, args.grid_y)
    grid = any(g is not None for g in grid_flags)
    if grid:
        if not all(g is not None for g in grid_flags):
            raise IGroverError("grid mode needs all of --grid-n, --grid-x, --grid-y")
        ns = _parse_int_list(args.grid_n, "--grid-n")
        xs = _parse_int_list(args.grid_x, "--grid-x")
        ys = _parse_int_list(args.grid_y, "--grid-y")
        # cells ordered lexicographically by (n, |X|, |Y|)
        cells = [
            (n, kx, ky)
            for n in ns
            for kx in xs
            for ky in ys
            if n >= 2 and 1 <= ky <= kx <= n
        ]
        if not cells:
            raise IGroverError("grid contains no valid cells (need 1 <= |Y| <= |X| <= n)")
    else:
        if not args.instance:
            raise IGroverError("sweep needs --instance or a full --grid-n/x/y trio")
        counts = load_instance(args.instance).counts
        cells = [(counts.n, counts.k11 + counts.k10, counts.k11)]

    # a grid cell gives its best L's row, an instance every L of its window
    lines = ["n,x_size,y_size,L,p_success,cost\n"]
    for n, kx, ky in cells:
        best, table = sweep_L(ClassCounts(k11=ky, k10=kx - ky, k00=n - kx, n=n), args.window)
        for L, p in [table[best.L - table[0][0]]] if grid else table:
            cost = query_cost((best if grid else Schedule(L)).queries(), model)
            lines.append(f"{n},{kx},{ky},{L},{p:.17g},{cost:.17g}\n")
    _write(lines, args.out)
    return 0


def cmd_compare(args) -> int:
    inst = load_instance(args.instance)
    sched = _schedule_for(args, inst.counts)
    _emit(compare_record(inst, sched, CostModel(args.tx, args.ty)), args.out)
    return 0


def _add_common(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    p.add_argument("--instance", required=not sweep, help="path to an instance JSON file")
    if not sweep:  # sweep reads neither --policy nor --L, so it rejects them
        p.add_argument("--policy", choices=sorted(_POLICY_FLAG), default="paper",
                       help="how to pick L when --L is not given")
        p.add_argument("--L", type=_INT, default=None, help="override the step count")
    p.add_argument("--tx", type=_FLOAT, default=1.0, help="cost of one cheap query")
    p.add_argument("--ty", type=_FLOAT, default=1.0, help="cost of one expensive query")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


@cache  # parsing keeps no state on a parser, so every main() call shares these
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="igrover",
                     description="Two-oracle search simulator for nested-set instances")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the schedule and report the outcome")
    _add_common(run)
    run.add_argument("--engine", choices=["reduced", "full", "both"], default="reduced")
    run.add_argument("--seed", type=_INT, default=0, help="measurement RNG seed")
    run.add_argument("--reps", type=_INT, default=20,
                     help="max repetitions before giving up")
    run.add_argument("--trace", default=None, help="write the step trace CSV here")
    run.add_argument("--tol", type=_FLOAT, default=1e-9,
                     help="engine agreement tolerance for --engine both")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="success probability across step counts")
    _add_common(sweep, sweep=True)
    sweep.add_argument("--window", type=_INT, default=3,
                       help="half-width of the L window around the formula value")
    sweep.add_argument("--grid-n", default=None, help="comma list of universe sizes")
    sweep.add_argument("--grid-x", default=None, help="comma list of |X| values")
    sweep.add_argument("--grid-y", default=None, help="comma list of |Y| values")
    sweep.set_defaults(func=cmd_sweep)

    compare = sub.add_parser("compare",
                             help="query cost versus the expensive-oracle-only baseline")
    _add_common(compare)
    compare.set_defaults(func=cmd_compare)
    parser.commands = sub.choices  # each command's name to its parser
    # each command's name to its value-taking actions by full option string
    parser.flags = {name: {s: a for a in p._actions if a.nargs is None for s in a.option_strings}
                    for name, p in sub.choices.items()}
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), with argparse's parse skipped where it is plain.

    A command followed by `--flag value` pairs gets its namespace built here:
    each flag one of the command's own option strings, in full and given once,
    each value not starting with '-' and taken by the flag's type and choices,
    and every required flag given.  Any other argv (no command, a help,
    abbreviated, `=`-form or unknown flag, `--`, a leftover or refused token)
    takes argparse's parse, which prints every usage error and help.
    """
    parser = build_parser()
    flags = parser.flags.get(argv[0]) if argv else None
    given = dict(zip(argv[1::2], argv[2::2]))
    if (flags is None or len(given) * 2 + 1 != len(argv) or not given.keys() <= flags.keys()
            or any(a.required and given.keys().isdisjoint(a.option_strings)
                   for a in flags.values())):
        return parser.parse_args(argv)
    values = {a.dest: a.default for a in flags.values()}
    for flag, raw in given.items():
        action = flags[flag]
        try:
            value = raw if action.type is None else action.type(raw)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # as argparse catches
            return parser.parse_args(argv)
        if raw[:1] == "-" or action.choices is not None and value not in action.choices:
            return parser.parse_args(argv)
        values[action.dest] = value
    return argparse.Namespace(**values, command=argv[0],
                              func=parser.commands[argv[0]].get_default("func"))


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (IGroverError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
