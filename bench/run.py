"""Seeded, output-checked benchmark of ``igrover run | sweep | compare``.

Usage, from the root of a source checkout (no install or build needed):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

One process per workload acts as a single closed-loop client: it calls
``igrover.cli.main(argv)`` in-process, one op at a time, each op writing
its result with ``--out``.  Ops come from ``workloads.py`` in cycles drawn
from ``--seed``; whole cycles run until ``--seconds`` have passed (and at
least the workload's minimum number of cycles).  Every op's output is
checked against ``reference.py``; an exception, an exit code other than 0
or 3, a mismatch, or a replay that does not reproduce the output bytes
counts as a failed op.

Op times are scaled to a reference machine speed measured next to them
(``probe.py``), and throughput and percentiles come from each design
slot's median over the cycles (``summarize``): the shared machine this was
built on drifts by up to 2x over seconds to minutes.  The report also
holds the plain wall-clock figures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
cycles a second time with spans around every module's public functions
(``spans.py``) and reports the per-layer metrics and the tracing overhead.
The last line of standard output is the JSON result; a fuller report (the
environment, failed ops, tail percentile, spans) goes to ``.bench_results/``.
``--workload all`` runs every workload in its own process and prints one
table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from probe import SpeedProbe
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Op, Workload, cycle_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
# stop starting new ops past this point, so a run always ends within 180 s
HARD_CAP_S = 110.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "sim_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class OpResult:
    op_id: str
    slot: str
    start: float               # perf_counter at the call and at its return
    end: float
    rc: int | None
    problems: list[str] = field(default_factory=list)
    iterations: int = 0        # simulated schedule iterations the output answers
    out_bytes: int = 0
    csv_bytes: int = 0
    digest: str = ""           # of every output file, for the replay check
    scaled: float = 0.0        # seconds at the reference machine speed (probe.py)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _scan_trace(path: Path, digest) -> tuple[int, str, int]:
    """(data rows, last row, bytes) of a trace CSV, read in chunks."""
    rows, tail, nbytes = 0, b"", 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            nbytes += len(chunk)
            rows += chunk.count(b"\n")
            tail = (tail + chunk)[-512:]
    last = tail.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode()
    return rows - 1, last, nbytes


def _iterations(op: Op, text: str) -> int:
    try:
        if op.verb == "sweep":
            return sum(3 * int(row.split(",")[3]) + 1 for row in text.splitlines()[1:] if row)
        return 3 * int(json.loads(text)["L"]) + 1
    except (ValueError, KeyError, IndexError, TypeError):
        return 0


def execute(cli, op: Op) -> OpResult:
    """Run one op in the current directory, time it, and check its output."""
    for name, text in op.inputs.items():
        Path(name).write_text(text, encoding="utf-8")
    err = io.StringIO()
    rc = None
    crash = None
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse exits on a command line it rejects
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the op fails; the benchmark keeps going
            crash = traceback.format_exc(limit=3)
        end = time.perf_counter()
    res = OpResult(op.op_id, op.slot, start, end, rc)
    try:
        if crash is not None:
            res.problems.append(f"exception: {crash.strip().splitlines()[-1]}")
        elif rc not in (0, 3):
            msg = err.getvalue().strip().splitlines()
            res.problems.append(f"exit code {rc}: {msg[-1] if msg else ''}")
        else:
            _check_outputs(op, res)
    finally:
        for name in (*op.inputs, op.out, op.trace):
            if name:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(name)
    return res


def _check_outputs(op: Op, res: OpResult) -> None:
    try:
        digest = hashlib.sha256()
        raw = Path(op.out).read_bytes()
        digest.update(raw)
        res.out_bytes = len(raw)
        text = raw.decode()
        res.iterations = _iterations(op, text)
        tail = None
        if op.trace is not None:
            rows, last, res.csv_bytes = _scan_trace(Path(op.trace), digest)
            tail = (rows, last)
        res.digest = digest.hexdigest()
        if op.verb == "sweep":
            res.problems += reference.check_sweep(op.flags, res.rc, text)
        elif op.verb == "compare":
            res.problems += reference.check_compare(op.flags, res.rc, text)
        else:
            res.problems += reference.check_run(op.flags, res.rc, text, tail)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        res.problems.append(f"output unreadable: {type(exc).__name__}: {exc}")


def replay_target(ops: list[Op]) -> Op:
    """The cheapest op of the cycle among those writing the most output files."""
    widest = max(op.trace is not None for op in ops)
    return min((op for op in ops if (op.trace is not None) == widest), key=lambda op: op.cost)


def run_cycles(cli, workload: Workload, seed: int, seconds: float, cycles: int | None,
               started: float, probe: SpeedProbe | None = None, tracer: Tracer | None = None):
    """Run whole cycles; returns (results, cycles run, replay op, its result).

    Without a fixed number of cycles, runs until ``seconds`` have passed and
    at least ``workload.min_cycles`` cycles are done.
    """
    results: list[OpResult] = []
    target = target_res = None
    cycle = 0
    while True:
        ops = cycle_ops(workload, seed, cycle)
        if cycle == 0:
            target = replay_target(ops)
        for op in ops:
            if time.perf_counter() - started > HARD_CAP_S:
                return results, cycle, target, target_res
            if tracer is not None:
                tracer.op_id = op.op_id
            if probe is not None:
                probe.maybe_sample()
            res = execute(cli, op)
            results.append(res)
            if op is target:
                target_res = res
        cycle += 1
        if cycles is not None:
            if cycle >= cycles:
                break
        elif cycle >= workload.min_cycles and time.perf_counter() - started >= seconds:
            break
    return results, cycle, target, target_res


def replay(cli, op: Op, first: OpResult) -> OpResult:
    again = execute(cli, op)
    if not first.problems and not again.problems and again.digest != first.digest:
        again.problems.append("replay: output bytes differ from the first run of the same argv")
    again.op_id = f"replay:{op.op_id}"
    return again


def summarize(results: list[OpResult], min_ops: int, key) -> tuple[dict, float, int]:
    """Throughput and latency figures of a run, from a typical cycle.

    Every cycle holds one op per design slot, so a slot's median latency
    over the cycles is robust to a stall of the shared machine during a few
    cycles.  The figures come from these slot medians: throughput is the
    slots' ops and iterations over the sum of their medians, and the
    percentiles are taken over the slot medians, each standing for the
    slot's ops.  The tail percentile is the highest with ten samples beyond
    it at the workload's minimum op count; the cycle sizes put it, and the
    median, inside one slot rather than between two.  Returns the figures,
    the tail percentile and the number of ops slower than the tail.
    """
    by_slot: dict[str, list[OpResult]] = {}
    for r in results:
        by_slot.setdefault(r.slot, []).append(r)
    lat = sorted(statistics.median(key(r) for r in rs) for rs in by_slot.values())
    iters = sum(statistics.median(r.iterations for r in rs) for rs in by_slot.values())
    q = 1.0 - 10.0 / min_ops
    tail = lat[int(q * len(lat))]
    figures = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "sim_iters_per_s": iters / sum(lat),
    }
    return figures, 100.0 * q, sum(key(r) > tail for r in results)


def measure_setup() -> tuple[float, float]:
    """Median seconds for a fresh interpreter to import igrover.cli, and bare start-up."""
    importer = [sys.executable, "-c",
                f"import sys; sys.path.insert(0, {str(SRC)!r}); import igrover.cli"]
    bare = [sys.executable, "-c", "pass"]
    quiet = dict(check=True, timeout=60, stdout=subprocess.DEVNULL)
    subprocess.run(importer, **quiet)   # byte-compiles the sources once
    medians = []
    for cmd in (importer, bare):
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(cmd, **quiet)
            times.append(time.perf_counter() - t0)
        medians.append(statistics.median(times))
    return medians[0], medians[1]


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_revision": _git_revision(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    setup = measure_setup() if args.trace == 0 else None

    sys.path.insert(0, str(SRC))
    import igrover.cli as cli

    work = WORK / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    home = os.getcwd()
    os.chdir(work)
    probe = SpeedProbe(workload.py_share)
    started = time.perf_counter()
    try:
        results, cycles, target, target_res = run_cycles(
            cli, workload, args.seed, args.seconds, None, started, probe)
        probe.sample()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        replayed = [replay(cli, target, target_res)] if target_res is not None else []
        tracer = None
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced, _, _, _ = run_cycles(cli, workload, args.seed, args.seconds, cycles,
                                             started, tracer=tracer)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    attempted = results + replayed + (traced if args.trace else [])
    failures = [r for r in attempted if r.problems]
    report = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "cycles": cycles, "env": env,
              "failed_ops": [{"op": r.op_id, "rc": r.rc, "problems": r.problems[:5]}
                             for r in failures]}
    if args.trace == 0:
        for r in results:
            r.scaled = r.seconds / probe.factor(r.start, r.end)
        figures, q, beyond = summarize(results, workload.min_ops, lambda r: r.scaled)
        values = {"setup_s": setup[0], **figures, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        report["tail"] = {"percentile": q, "samples": len(results), "beyond": beyond}
        report["speed_factor"] = {"median": statistics.median(probe.factors),
                                  "min": min(probe.factors), "max": max(probe.factors),
                                  "probes": len(probe.factors)}
        report["wall_clock"] = summarize(results, workload.min_ops, lambda r: r.seconds)[0]
        # per op: id, slot, start and end in s from the first op, time at reference speed
        report["ops"] = [[r.op_id, r.slot, r.start - started, r.end - started, r.scaled]
                         for r in results]
        report["probes"] = [[t - started, f] for t, f in zip(probe.times, probe.factors)]
        report["bare_python_s"] = setup[1]
    else:
        # tracing overhead compares the same ops, untraced and traced
        untraced_s = sum(r.seconds for r in results[:len(traced)])
        traced_s = sum(r.seconds for r in traced)
        per_layer = layer_metrics(tracer.spans, len(traced), sum(r.out_bytes for r in traced),
                                  sum(r.csv_bytes for r in traced), traced_s, untraced_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "op": s.op_id,
                                     "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                                     "error": s.error, **s.attrs}) + "\n")
        layers = {k.split(".")[0]: metrics[k]["value"] for k in metrics if k.endswith(".self_s")}
        report["layer_self_s"] = layers
        report["dominant_layer"] = max(layers, key=layers.get)
    report["metrics"] = metrics
    report["failed_op_ratio"] = len(failures) / len(attempted)
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    _print_table(f"{workload.name} seed={args.seed} cycles={cycles} ops={len(results)}", metrics)
    print(f"  {'failed_op_ratio':<36} {report['failed_op_ratio']:>16.6g} "
          f"({len(failures)} of {len(attempted)} ops)")
    if args.trace == 0:
        t = report["tail"]
        print(f"  op_tail_ms is p{t['percentile']:.4g} of {t['samples']} ops, {t['beyond']} beyond it")
        print(f"  times above are at the reference speed; median speed factor "
              f"{report['speed_factor']['median']:.3f}; wall clock: "
              + ", ".join(f"{k}={v:.6g}" for k, v in report["wall_clock"].items()))
    else:
        print(f"  dominant layer by self time: {report['dominant_layer']}")
    for f in report["failed_ops"]:
        print(f"  FAILED {f['op']}: {'; '.join(f['problems'])}")
    print(json.dumps({"correct": not failures, "attempted": len(attempted),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of their metrics."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"\n{'metric':<36}" + "".join(f"{w:>16}" for w in rows) + "  unit")
    for m in names + ["failed_op_ratio"]:
        cells = []
        for r in rows.values():
            v = r["failed"] / r["attempted"] if m == "failed_op_ratio" else r["metrics"][m]["value"]
            cells.append(f"{v:>16.6g}")
        unit = "ratio" if m == "failed_op_ratio" else next(iter(rows.values()))["metrics"][m]["unit"]
        print(f"{m:<36}" + "".join(cells) + f"  {unit}")
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "igrover" / "cli.py").is_file():
        print(f"error: no igrover sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
