"""Seeded inputs for the four benchmark workloads.

Each workload sends ops of one or two kinds.  An op's parameters are drawn
from the workload's distribution (the ranges are in each ``_draw_*``
function), and the op is turned into an ``igrover`` argv plus the instance
files it reads.

Ops run in cycles.  A cycle holds ``per_cycle`` ops of every kind of
the workload, and the i-th op of a kind is redrawn until its modelled cost
falls in a narrow band around the (i + 1/2) / per_cycle quantile of that
kind's cost distribution.  Every cycle thus does about the same work
whatever the seed, so runs with different seeds give comparable throughput,
median and tail, while the seed still picks every instance afresh.  The
quantiles are estimated once from a fixed internal seed, so they do not
depend on the workload seed either.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from reference import size

# Share of a stratum's quantile width an op's cost may wander from the
# stratum centre.  Small, so that the slowest op of every cycle (which sets
# peak memory on trace-large-L) has nearly the same size in every run.
BAND = 0.2
_QUANTILE_SAMPLES = 4000
_QUANTILE_SEED = 20231227
_MAX_REDRAWS = 20000

@dataclass
class Op:
    """One closed-loop request: an ``igrover`` argv and what it needs."""

    op_id: str
    verb: str                      # run | sweep | compare
    argv: list[str]
    flags: dict                    # what the checker needs to know about the argv
    inputs: dict[str, str] = field(default_factory=dict)   # file name -> text
    out: str = ""                  # --out file name
    trace: str | None = None       # --trace file name
    cost: float = 0.0              # modelled cost, used for stratification only
    slot: str = ""                 # design slot; the same in every cycle


def paper_L(n: int, kx: int) -> int:
    """The paper-formula L (round half up of pi/4 over the chord angle)."""
    chord = 2.0 * math.asin(0.5 * math.sqrt(kx / n))
    return int(math.floor((math.pi / 4.0) / chord + 0.5))


def _log_uniform_int(rng, lo: float, hi: float) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _distinct(rng, lo: int, hi: int, k: int) -> list[int]:
    """k distinct integers from [lo, hi), sorted."""
    span = hi - lo
    if k > span:
        raise ValueError(f"cannot draw {k} distinct values from a span of {span}")
    if span <= 4 * k:
        picks = rng.choice(span, size=k, replace=False)
    else:
        picks = np.unique(rng.integers(0, span, size=k + k // 8 + 8))
        while picks.size < k:
            picks = np.unique(np.concatenate([picks, rng.integers(0, span, size=k)]))
        picks = rng.choice(picks, size=k, replace=False)
    return sorted(int(lo + v) for v in picks)


def nested_specs(rng, n: int, kx: int, ky: int, x_kind: str, y_kind: str
                 ) -> tuple[dict, dict]:
    """Membership specs with |X| close to kx and |Y| close to ky, Y inside X.

    Every (x_kind, y_kind) pair is supported.  Where a kind cannot express
    the requested size exactly (a modulus, or a range inside a modulus) the
    size is the nearest one it can.
    """
    ky = max(1, min(ky, kx))
    if x_kind == "range":
        lo = int(rng.integers(0, n - kx + 1))
        x = {"kind": "range", "lo": lo, "hi": lo + kx - 1}
        if y_kind == "range":
            ylo = int(rng.integers(lo, lo + kx - ky + 1))
            return x, {"kind": "range", "lo": ylo, "hi": ylo + ky - 1}
        if y_kind == "list":
            return x, {"kind": "list", "members": _distinct(rng, lo, lo + kx, ky)}
        # a modulus inside a range: one member, the modulus larger than the rest of n
        member = int(rng.integers(lo, lo + kx))
        return x, {"kind": "mod", "m": member + n, "r": member}
    if x_kind == "mod":
        m = max(2, round(n / kx))
        r = int(rng.integers(0, m))
        x = {"kind": "mod", "m": m, "r": r}
        kx = size(x, n)
        ky = min(ky, kx)
        if y_kind == "mod":
            t = max(1, round(kx / ky))
            j = int(rng.integers(0, min(t, kx)))
            return x, {"kind": "mod", "m": m * t, "r": r + m * j}
        if y_kind == "list":
            return x, {"kind": "list", "members": [r + m * j for j in _distinct(rng, 0, kx, ky)]}
        member = r + m * int(rng.integers(0, kx))
        return x, {"kind": "range", "lo": member, "hi": member}
    # X is an explicit list built around a Y of the requested kind
    if y_kind == "list":
        xs = _distinct(rng, 0, n, kx)
        ys = [xs[j] for j in _distinct(rng, 0, kx, ky)]
        return {"kind": "list", "members": xs}, {"kind": "list", "members": ys}
    if y_kind == "range":
        ylo = int(rng.integers(0, n - ky + 1))
        y = {"kind": "range", "lo": ylo, "hi": ylo + ky - 1}
        y_members = range(ylo, ylo + ky)
    else:
        m = max(2, n // ky)
        r = int(rng.integers(0, m))
        y = {"kind": "mod", "m": m, "r": r}
        y_members = range(r, n, m)   # ky or ky + 1 members
    taken = set(y_members)
    extra = set()
    while len(extra) < kx - len(taken):
        v = int(rng.integers(0, n))
        if v not in taken:
            extra.add(v)
    return {"kind": "list", "members": sorted(taken | extra)}, y


_SPEC_PAIRS = [(xk, yk) for xk in ("range", "mod", "list") for yk in ("range", "mod", "list")]


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _common_flags(rng) -> dict:
    return {
        "tx": float(round(rng.uniform(0.5, 2.0), 3)),
        "ty": float(round(math.exp(rng.uniform(0.0, math.log(1000.0))), 3)),
    }


# ---------------------------------------------------------------------------
# Parameter draws.  Each returns (params, modelled cost).


def _draw_sweep(rng):
    """Two n values log-uniform in [1e6, 1e9], one |X| in [1, 64], |Y| <= |X|."""
    ns = sorted(_log_uniform_int(rng, 1e6, 1e9) for _ in range(2))
    kx = int(rng.integers(1, 65))
    ky = int(rng.integers(1, kx + 1))
    # sweep_L evaluates 2 * window + 1 = 7 schedules of 3L + 1 iterations per cell
    cost = sum(7 * (3 * paper_L(n, kx) + 1) for n in ns)
    return {"ns": ns, "xs": [kx], "ys": [ky], **_common_flags(rng)}, cost


def _draw_trace(rng):
    """n log-uniform in [1e8, 1e10], |X| uniform in [1, 16], |Y| in [1, |X|]."""
    n = _log_uniform_int(rng, 1e8, 1e10)
    kx = int(rng.integers(1, 17))
    ky = int(rng.integers(1, kx + 1))
    x_kind, y_kind = _SPEC_PAIRS[int(rng.integers(len(_SPEC_PAIRS)))]
    policy = ("paper", "half")[int(rng.integers(2))]
    return ({"n": n, "kx": kx, "ky": ky, "x_kind": x_kind, "y_kind": y_kind,
             "policy": policy, **_common_flags(rng)},
            3 * paper_L(n, kx) + 1)


def _draw_full(rng, fixed_ns: float, iter_ns: float, member_ns: float):
    """n log-uniform in [2^16, 2^20], |X|/n log-uniform in [2^-10, 2^-4].

    The cost model, in ns on the 2-vCPU sandbox, has a per-amplitude part
    paid once per op (class masks, projection, sampling), a per-amplitude
    part paid every iteration, and a part per explicit list member (JSON
    parsing, validation and the echo in the record).
    """
    n = _log_uniform_int(rng, 2 ** 16, 2 ** 20)
    kx = max(1, round(n * 2.0 ** rng.uniform(-10, -4)))
    ky = _log_uniform_int(rng, 1, kx)
    x_kind, y_kind = _SPEC_PAIRS[int(rng.integers(len(_SPEC_PAIRS)))]
    policy = ("paper", "half")[int(rng.integers(2))]
    members = (kx if x_kind == "list" else 0) + (ky if y_kind == "list" else 0)
    return ({"n": n, "kx": kx, "ky": ky, "x_kind": x_kind, "y_kind": y_kind,
             "policy": policy, **_common_flags(rng)},
            n * (fixed_ns + iter_ns * (3 * paper_L(n, kx) + 1)) + member_ns * members)


def _draw_both(rng):
    return _draw_full(rng, fixed_ns=37.0, iter_ns=9.0, member_ns=2000.0)


def _draw_full_only(rng):
    return _draw_full(rng, fixed_ns=150.0, iter_ns=3.0, member_ns=1300.0)


def _draw_huge(rng):
    """n log-uniform in [1e9, 1e12], |X|/n log-uniform in [1e-4, 1e-1].

    Y is a list of up to 1e5 members, a range or a modulus.  Lists are
    sparse in X; ranges and moduli have |Y|/|X| log-uniform in [1e-4, 1],
    so some runs verify on the first draw and some exhaust every repetition.
    """
    n = _log_uniform_int(rng, 1e9, 1e12)
    kx = max(1, round(n * 10.0 ** rng.uniform(-4, -1)))
    x_kind = ("range", "mod")[int(rng.integers(2))]
    y_kind = ("list", "range", "mod")[int(rng.integers(3))]
    if y_kind == "list":
        ky = _log_uniform_int(rng, 1, min(100_000, kx))
    else:
        ky = max(1, round(kx * 10.0 ** rng.uniform(-4, 0)))
    policy = ("paper", "half", "sweep")[int(rng.integers(3))]
    # JSON parse, validation and (for run) re-emission dominate: list members
    # cost about 0.2 us each, a schedule step about 2 us
    steps = 3 * paper_L(n, kx) + 1
    cost = (ky if y_kind == "list" else 0) + 10 * steps * (7 if policy == "sweep" else 1)
    return ({"n": n, "kx": kx, "ky": ky, "x_kind": x_kind, "y_kind": y_kind,
             "policy": policy, **_common_flags(rng)}, cost)


# ---------------------------------------------------------------------------
# Params -> Op.


def _instance_op(op_id: str, verb: str, params: dict, rng, extra: list[str],
                 flags: dict, trace: bool) -> Op:
    x, y = nested_specs(rng, params["n"], params["kx"], params["ky"],
                        params["x_kind"], params["y_kind"])
    inst = {"n": params["n"], "x": x, "y": y}
    inst_file = f"{op_id}.json"
    out_file = f"{op_id}.out.json"
    argv = [verb, "--instance", inst_file, "--policy", params["policy"],
            "--tx", repr(params["tx"]), "--ty", repr(params["ty"]), *extra,
            "--out", out_file]
    trace_file = None
    if trace:
        trace_file = f"{op_id}.trace.csv"
        argv += ["--trace", trace_file]
    return Op(op_id, verb, argv,
              {"instance": inst, "policy": params["policy"],
               "tx": params["tx"], "ty": params["ty"], **flags},
              inputs={inst_file: _dump(inst)}, out=out_file, trace=trace_file)


def _op_sweep(op_id, params, rng):
    out_file = f"{op_id}.out.csv"
    argv = ["sweep", "--grid-n", ",".join(map(str, params["ns"])),
            "--grid-x", ",".join(map(str, params["xs"])),
            "--grid-y", ",".join(map(str, params["ys"])),
            "--tx", repr(params["tx"]), "--ty", repr(params["ty"]), "--out", out_file]
    return Op(op_id, "sweep", argv,
              {"ns": params["ns"], "xs": params["xs"], "ys": params["ys"],
               "tx": params["tx"], "ty": params["ty"]},
              out=out_file)


def _run_extra(rng, engine: str) -> tuple[list[str], dict]:
    seed = int(rng.integers(0, 2 ** 31))
    return (["--engine", engine, "--seed", str(seed), "--reps", "20"],
            {"engine": engine, "seed": seed, "reps": 20})


def _op_trace(op_id, params, rng):
    extra, flags = _run_extra(rng, "reduced")
    return _instance_op(op_id, "run", params, rng, extra, flags, trace=True)


def _op_both(op_id, params, rng):
    extra, flags = _run_extra(rng, "both")
    return _instance_op(op_id, "run", params, rng, extra, flags, trace=True)


def _op_full(op_id, params, rng):
    extra, flags = _run_extra(rng, "full")
    return _instance_op(op_id, "run", params, rng, extra, flags, trace=False)


def _op_huge_run(op_id, params, rng):
    extra, flags = _run_extra(rng, "reduced")
    return _instance_op(op_id, "run", params, rng, extra, flags, trace=False)


def _op_compare(op_id, params, rng):
    return _instance_op(op_id, "compare", params, rng, [], {}, trace=False)


@dataclass(frozen=True)
class Kind:
    name: str
    draw: object      # rng -> (params, cost)
    make: object      # (op_id, params, rng) -> Op


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[Kind, ...]
    per_cycle: int    # ops of each kind per cycle
    min_cycles: int   # a run covers at least this many cycles
    py_share: float   # weight of the Python kernel in the speed probe (probe.py)

    @property
    def min_ops(self) -> int:
        return self.per_cycle * len(self.kinds) * self.min_cycles


# BENCHMARK.json records why each workload is there.  per_cycle and
# min_cycles keep a run near 15 to 25 s on a 2-vCPU sandbox with at least
# four samples per design slot, and place op_tail_ms (the percentile with
# ten ops beyond it at the minimum op count) well inside one slot.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-large-L",
            (Kind("sweep", _draw_sweep, _op_sweep),), per_cycle=10, min_cycles=4, py_share=1.0),
        Workload(
            "trace-large-L",
            (Kind("trace", _draw_trace, _op_trace),), per_cycle=5, min_cycles=6, py_share=1.0),
        Workload(
            "engines-both",
            (Kind("both", _draw_both, _op_both), Kind("full", _draw_full_only, _op_full)),
            # numpy passes in fullstate take about 80% of this workload's time
            per_cycle=5, min_cycles=20, py_share=0.2),
        Workload(
            "huge-n-mix",
            (Kind("run", _draw_huge, _op_huge_run), Kind("compare", _draw_huge, _op_compare)),
            # JSON parsing and emission run in C, so the Python kernel
            # alone overstates how much a contended core slows these ops
            per_cycle=20, min_cycles=20, py_share=0.5),
    )
}


_quantile_cache: dict[str, np.ndarray] = {}


def _cost_quantiles(kind: Kind) -> np.ndarray:
    """Sorted costs of many draws from a fixed seed: the cost distribution."""
    if kind.name not in _quantile_cache:
        rng = np.random.default_rng(_QUANTILE_SEED)
        _quantile_cache[kind.name] = np.sort([kind.draw(rng)[1] for _ in range(_QUANTILE_SAMPLES)])
    return _quantile_cache[kind.name]


def _draw_in_band(kind: Kind, rng, lo_q: float, hi_q: float):
    costs = _cost_quantiles(kind)
    lo, hi = np.quantile(costs, [lo_q, hi_q])
    best = None
    for _ in range(_MAX_REDRAWS):
        params, cost = kind.draw(rng)
        if lo <= cost <= hi:
            return params, cost
        gap = min(abs(cost - lo), abs(cost - hi))
        if best is None or gap < best[0]:
            best = (gap, params, cost)
    return best[1], best[2]


def cycle_ops(workload: Workload, seed: int, cycle: int) -> list[Op]:
    """The ops of one cycle, in the order they run; a pure function of its arguments."""
    rng = np.random.default_rng([seed, cycle, sum(map(ord, workload.name))])
    k = workload.per_cycle
    ops = []
    for kind in workload.kinds:
        for i in range(k):
            centre = (i + 0.5) / k
            params, cost = _draw_in_band(kind, rng, centre - BAND / (2 * k),
                                         centre + BAND / (2 * k))
            ops.append((kind, i, params, cost))
    order = rng.permutation(len(ops))
    if len(workload.kinds) > 1:
        # alternate kinds, each kind in a shuffled order
        per = [[ops[j] for j in order if ops[j][0] is kind] for kind in workload.kinds]
        ops = [entry for group in zip(*per) for entry in group]
    else:
        ops = [ops[j] for j in order]
    result = []
    for idx, (kind, slot, params, cost) in enumerate(ops):
        op = kind.make(f"c{cycle}-{idx}-{kind.name}", params, rng)
        op.cost = cost
        op.slot = f"{kind.name}{slot}"
        result.append(op)
    return result
