"""Spans around the public functions of each ``igrover`` module.

The benchmark wraps the functions from outside, at schedule granularity:
one span per call of, say, ``run_schedule``, never one per oracle step.
A span records its name, start, end, parent span and op id, plus a few
attributes read from the call's arguments and results.  Spans stay in
memory; ``layer_metrics`` derives the per-layer numbers from them.

``igrover.cli`` and ``igrover.scheduling`` bind several of these functions
by name at import time, so every ``igrover`` module attribute that *is* a
wrapped function is replaced, not only the defining one.  Functions that
``scheduling`` imports inside its own bodies are found on the defining
module at call time and so are covered by the same patch.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int | None
    op_id: str
    name: str           # "<layer>.<function>"
    start_ns: int
    end_ns: int = 0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


def _schedule_L(args, kwargs) -> int:
    return (kwargs.get("sched") or args[1]).L


def _run_schedule_attrs(args, kwargs, result):
    traced = kwargs.get("record_trace", args[2] if len(args) > 2 else True)
    return {"L": _schedule_L(args, kwargs), "traced": bool(traced), "rows": len(result[1])}


def _run_full_attrs(args, kwargs, result):
    inst = kwargs.get("inst") or args[0]
    traced = kwargs.get("record_trace", args[2] if len(args) > 2 else True)
    return {"L": _schedule_L(args, kwargs), "traced": bool(traced), "n": inst.n,
            "kx": inst.x_size, "ky": inst.y_size}


def _write_csv_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path") or args[0])}


def _verify_attrs(args, kwargs, result):
    return {"ok": bool(result)}


# (module, function, attribute reader or None)
TARGETS = (
    ("instance", "load_instance", None),
    ("instance", "partition_classes", None),
    ("instance", "kth_in_class", None),
    ("instance", "verify_outcome", _verify_attrs),
    ("scheduling", "choose_L", None),
    ("scheduling", "sweep_L", None),
    ("scheduling", "sample_from_reduced", None),
    ("scheduling", "run_with_repetitions", None),
    ("reduced", "run_schedule", _run_schedule_attrs),
    ("reduced", "write_trace_csv", _write_csv_attrs),
    ("fullstate", "run_schedule_full", _run_full_attrs),
    ("fullstate", "project_to_reduced", None),
    ("fullstate", "sample_measurement", None),
    ("cli", "main", None),
)


class Tracer:
    """Installs span-recording wrappers; ``with tracer:`` scopes the patch."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, reader):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.op_id, name, 0)
            spans.append(span)
            stack.append(span.sid)
            span.start_ns = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = clock()
                stack.pop()
            if reader is not None:
                span.attrs = reader(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "igrover" or key.startswith("igrover."))]
        for mod_name, fn_name, reader in TARGETS:
            original = getattr(sys.modules[f"igrover.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, reader)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False


def _self_seconds(spans: list[Span]) -> np.ndarray:
    """Duration of each span minus the time its direct children cover."""
    own = np.array([s.end_ns - s.start_ns for s in spans], dtype=np.int64)
    self_ns = own.copy()
    for s in spans:
        if s.parent is not None:
            self_ns[s.parent] -= own[s.sid]
    return self_ns * 1e-9


def _ancestor_names(spans: list[Span], s: Span):
    p = s.parent
    while p is not None:
        yield spans[p].name
        p = spans[p].parent


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: int, out_bytes: int, csv_bytes: int,
                  traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); see BENCHMARK.json."""
    self_s = _self_seconds(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, pred=lambda s: True):
        return float(sum(s.seconds for s in by_name.get(name, ()) if pred(s)))

    def calls(name, pred=lambda s: True):
        return sum(1 for s in by_name.get(name, ()) if pred(s))

    def self_total(pred):
        return float(sum(self_s[s.sid] for s in spans if pred(s)))

    untraced = lambda s: not s.attrs.get("traced", False)
    traced = lambda s: s.attrs.get("traced", False)
    in_rep = lambda s: "scheduling.run_with_repetitions" in _ancestor_names(spans, s)
    outside_sweep = lambda s: "scheduling.sweep_L" not in _ancestor_names(spans, s)

    rs = by_name.get("reduced.run_schedule", [])
    fs = by_name.get("fullstate.run_schedule_full", [])
    evolve_iters = sum(3 * s.attrs["L"] + 1 for s in rs if untraced(s))
    full_iters = sum(3 * s.attrs["L"] + 1 for s in fs)
    full_time = total("fullstate.run_schedule_full")
    draws = (calls("scheduling.sample_from_reduced", in_rep)
             + calls("fullstate.sample_measurement", in_rep))
    verified_draws = calls("instance.verify_outcome", lambda s: in_rep(s) and s.attrs["ok"])
    evolutions = (calls("reduced.run_schedule", outside_sweep)
                  + calls("fullstate.run_schedule_full", outside_sweep))
    # Computed, not measured.  Per iteration the diffusion makes 3 passes over
    # the n float64 amplitudes (read for the mean, read and write for
    # 2*mean - s); each flip reads the int64 indices of the flipped
    # amplitudes, gathers and scatters them (3 passes over |X| or |Y|); a
    # traced iteration also projects twice, each an index read, a gather, a
    # temporary write and a mean read over all n amplitudes.
    bytes_moved = 0
    for s in fs:
        n, kx, ky, L = s.attrs["n"], s.attrs["kx"], s.attrs["ky"], s.attrs["L"]
        iters = 3 * L + 1
        bytes_moved += 8 * (3 * n * iters + 3 * kx * 3 * L + 3 * ky)
        if s.attrs["traced"]:
            bytes_moved += 8 * 2 * 4 * n * iters

    m = {
        "instance.load_s": (total("instance.load_instance"), "s"),
        "instance.load_calls": (calls("instance.load_instance"), "count"),
        "instance.partition_calls": (calls("instance.partition_classes"), "count"),
        "instance.kth_s": (total("instance.kth_in_class"), "s"),
        "instance.kth_calls": (calls("instance.kth_in_class"), "count"),
        "instance.verify_calls": (calls("instance.verify_outcome"), "count"),
        "scheduling.sweep_L_s": (total("scheduling.sweep_L"), "s"),
        "scheduling.sweep_L_calls": (calls("scheduling.sweep_L"), "count"),
        "scheduling.L_evaluated": (calls("reduced.run_schedule", lambda s: not outside_sweep(s)), "count"),
        "scheduling.choose_L_s": (total("scheduling.choose_L"), "s"),
        "scheduling.sample_s": (total("scheduling.sample_from_reduced"), "s"),
        "scheduling.draws": (draws, "count"),
        "scheduling.verified_per_draw": (_ratio(verified_draws, draws), "ratio"),
        "scheduling.exhausted_runs": (calls("scheduling.run_with_repetitions",
                                            lambda s: s.error == "ExhaustedRepetitions"), "count"),
        "scheduling.repetitions_self_s": (self_total(lambda s: s.name == "scheduling.run_with_repetitions"), "s"),
        "reduced.evolve_s": (total("reduced.run_schedule", untraced), "s"),
        "reduced.evolve_calls": (calls("reduced.run_schedule", untraced), "count"),
        "reduced.iterations": (evolve_iters, "count"),
        "reduced.ns_per_iteration": (_ratio(total("reduced.run_schedule", untraced) * 1e9, evolve_iters), "ns"),
        "reduced.traced_s": (total("reduced.run_schedule", traced), "s"),
        "reduced.traced_calls": (calls("reduced.run_schedule", traced), "count"),
        "reduced.trace_rows": (sum(s.attrs["rows"] for s in rs if traced(s)), "count"),
        "reduced.write_csv_s": (total("reduced.write_trace_csv"), "s"),
        "reduced.csv_bytes": (csv_bytes, "B"),
        "reduced.evolutions_per_op": (_ratio(evolutions, ops), "ratio"),
        "fullstate.traced_s": (total("fullstate.run_schedule_full", traced), "s"),
        "fullstate.evolve_s": (total("fullstate.run_schedule_full", untraced), "s"),
        "fullstate.iterations": (full_iters, "count"),
        "fullstate.ms_per_iteration": (_ratio(full_time * 1e3, full_iters), "ms"),
        "fullstate.bytes_moved_computed": (float(bytes_moved), "B"),
        "fullstate.project_s": (total("fullstate.project_to_reduced"), "s"),
        "fullstate.sample_s": (total("fullstate.sample_measurement"), "s"),
        "cli.self_s": (self_total(lambda s: s.layer == "cli"), "s"),
        "cli.out_bytes": (out_bytes, "B"),
    }
    for layer in ("instance", "scheduling", "reduced", "fullstate"):
        m[f"{layer}.self_s"] = (self_total(lambda s, layer=layer: s.layer == layer), "s")
    m["trace.ops"] = (ops, "count")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_ratio"] = (_ratio(traced_s - untraced_s, untraced_s), "ratio")
    return m
