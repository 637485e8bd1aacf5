"""Independent reference answers and the output checker.

Nothing here imports ``igrover``: the success probability comes from the
closed form of the schedule rather than from stepping it, membership and
set sizes come from the JSON specs directly, and the cost arithmetic is
restated from the README.

Closed form.  With sin(theta) = sqrt(|X|/n), phase 1 is plain Grover on X,
so after L cheap iterations the state is cos((2L+1) theta) on the
outside-X axis and sin((2L+1) theta) spread evenly over X.  The expensive
flip and one diffusion are applied as they are.  In phase 3 the component
along w = (0, sqrt(k11), -sqrt(k10)) / sqrt(|X|) is fixed by every cheap
iteration (both the flip and the diffusion negate it), and the rest of the
state, which lies in the Grover plane, turns by 2 theta per iteration, so
by 4 L theta over the 2L iterations.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left

P_TOL = 1e-9
COST_RTOL = 1e-12


def contains(spec: dict, i: int) -> bool:
    kind = spec["kind"]
    if kind == "list":
        members = spec["members"]
        j = bisect_left(members, i)
        return j < len(members) and members[j] == i
    if kind == "range":
        return spec["lo"] <= i <= spec["hi"]
    return i % spec["m"] == spec["r"]


def size(spec: dict, n: int) -> int:
    kind = spec["kind"]
    if kind == "list":
        return len(spec["members"])
    if kind == "range":
        return spec["hi"] - spec["lo"] + 1
    return 0 if spec["r"] > n - 1 else (n - 1 - spec["r"]) // spec["m"] + 1


def p_success(n: int, kx: int, ky: int, L: int) -> float:
    """Exact success probability of the L / 1 / 2L schedule, in O(1)."""
    k10 = kx - ky
    theta = math.asin(math.sqrt(kx / n))
    a = (2 * L + 1) * theta
    # phase 1: (out, y, z) coordinates, then the expensive flip on z
    out = math.cos(a)
    y = math.sin(a) * math.sqrt(k10 / kx)
    z = -math.sin(a) * math.sqrt(ky / kx)
    # one diffusion: reflect through s = (sqrt(k00/n), sqrt(k10/n), sqrt(k11/n))
    s = (math.sqrt((n - kx) / n), math.sqrt(k10 / n), math.sqrt(ky / n))
    d = out * s[0] + y * s[1] + z * s[2]
    out, y, z = 2 * d * s[0] - out, 2 * d * s[1] - y, 2 * d * s[2] - z
    # split into the Grover plane (e_out, e_in) and the fixed axis w
    e_in = (math.sqrt(k10 / kx), math.sqrt(ky / kx))
    w = (math.sqrt(ky / kx), -math.sqrt(k10 / kx))
    alpha = out
    beta = y * e_in[0] + z * e_in[1]
    gamma = y * w[0] + z * w[1]
    turn = 4 * L * theta
    beta = alpha * math.sin(turn) + beta * math.cos(turn)
    z_final = beta * e_in[1] + gamma * w[1]
    return z_final * z_final


def policy_L(n: int, kx: int, policy: str) -> int:
    """L for the paper and half policies (round half up, minus half a step)."""
    raw = (math.pi / 4.0) / (2.0 * math.asin(0.5 * math.sqrt(kx / n)))
    if policy == "paper":
        return int(math.floor(raw + 0.5))
    return max(0, int(math.floor(raw)))


def swept_L_problem(n: int, kx: int, ky: int, L: int, window: int = 3) -> str | None:
    """Why L is not a best L of the window around the paper L, or None."""
    centre = policy_L(n, kx, "paper")
    candidates = range(max(0, centre - window), centre + window + 1)
    if L not in candidates:
        return f"swept L={L} outside window {candidates.start}..{candidates.stop - 1}"
    best = max(p_success(n, kx, ky, c) for c in candidates)
    if p_success(n, kx, ky, L) < best - P_TOL:
        return f"swept L={L} has p below the window's best {best:.17g}"
    return None


def naive_iterations(n: int, ky: int) -> int:
    return int(math.floor((math.pi / 4.0) * math.sqrt(n / ky)))


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=COST_RTOL, abs_tol=0.0)


class Checker:
    """Collects every mismatch of one op's output against the reference."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def p(self, got, want: float, what: str) -> None:
        self.expect(isinstance(got, float) and abs(got - want) <= P_TOL,
                    f"{what}: p={got!r}, reference {want:.17g}")

    def L(self, got, n: int, kx: int, ky: int, policy: str) -> None:
        if policy == "sweep":
            problem = swept_L_problem(n, kx, ky, got)
            self.expect(problem is None, problem or "")
        else:
            want = policy_L(n, kx, policy)
            self.expect(got == want, f"L={got!r}, policy {policy} gives {want}")


def check_sweep(flags: dict, rc: int, text: str) -> list[str]:
    c = Checker()
    c.expect(rc == 0, f"exit code {rc}")
    lines = text.split("\n")
    c.expect(lines[0] == "n,x_size,y_size,L,p_success,cost", f"header {lines[0]!r}")
    c.expect(text.endswith("\n"), "output does not end in a newline")
    rows = [ln for ln in lines[1:] if ln]
    cells = [(n, kx, ky) for n in sorted(set(flags["ns"])) for kx in sorted(set(flags["xs"]))
             for ky in sorted(set(flags["ys"])) if n >= 2 and 1 <= ky <= kx <= n]
    c.expect(len(rows) == len(cells), f"{len(rows)} rows for {len(cells)} cells")
    for row, (n, kx, ky) in zip(rows, cells):
        fields = row.split(",")
        if len(fields) != 6:
            c.expect(False, f"row {row!r} has {len(fields)} fields")
            continue
        c.expect(fields[:3] == [str(n), str(kx), str(ky)], f"row {row!r} is not cell {(n, kx, ky)}")
        L = int(fields[3])
        c.L(L, n, kx, ky, "sweep")
        c.p(float(fields[4]), p_success(n, kx, ky, L), f"cell {(n, kx, ky)}")
        want_cost = 1 * (3 * L * flags["tx"] + 1 * flags["ty"])
        c.expect(_close(float(fields[5]), want_cost), f"cell {(n, kx, ky)} cost {fields[5]} != {want_cost!r}")
    return c.problems


def _instance_numbers(flags: dict) -> tuple[int, int, int]:
    inst = flags["instance"]
    return inst["n"], size(inst["x"], inst["n"]), size(inst["y"], inst["n"])


def _check_costs(c: Checker, cost: dict, flags: dict, L: int, reps: int, n: int, ky: int) -> None:
    tx, ty = flags["tx"], flags["ty"]
    c.expect(cost.get("t_x") == tx and cost.get("t_y") == ty, f"prices {cost.get('t_x')}, {cost.get('t_y')}")
    want = reps * (3 * L * tx + 1 * ty)
    c.expect(_close(cost.get("total"), want), f"total cost {cost.get('total')!r} != {want!r}")
    naive = naive_iterations(n, ky) * ty
    c.expect(_close(cost.get("naive_total"), naive),
             f"naive cost {cost.get('naive_total')!r} != {naive!r}")


def check_run(flags: dict, rc: int, text: str, trace_tail: tuple[int, str] | None) -> list[str]:
    """Check a run record; trace_tail is (data rows, last row) of the trace CSV."""
    c = Checker()
    c.expect(rc in (0, 3), f"exit code {rc}")
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as exc:
        return c.problems + [f"record is not JSON: {exc}"]
    n, kx, ky = _instance_numbers(flags)
    L = rec.get("L")
    c.expect(rec.get("instance") == flags["instance"], "instance echo differs from the input")
    c.L(L, n, kx, ky, flags["policy"])
    c.expect(rec.get("policy") == {"paper": "paper_formula", "half": "rounded_half",
                                   "sweep": "swept"}[flags["policy"]], f"policy {rec.get('policy')!r}")
    if not isinstance(L, int):
        return c.problems + [f"L is not an integer: {L!r}"]
    want_p = p_success(n, kx, ky, L)
    c.p(rec.get("p_success_exact"), want_p, "p_success_exact")
    counts = rec.get("counts", {})
    reps = counts.get("repetitions")
    c.expect(counts.get("x_queries") == 3 * L and counts.get("y_queries") == 1,
             f"queries {counts.get('x_queries')}, {counts.get('y_queries')} for L={L}")
    c.expect(isinstance(reps, int) and 1 <= reps <= flags["reps"], f"repetitions {reps!r}")
    if isinstance(reps, int):
        _check_costs(c, rec.get("cost", {}), flags, L, reps, n, ky)
    idx = rec.get("measured_index")
    c.expect(rec.get("seed") == flags["seed"], f"seed {rec.get('seed')!r}")
    if not (isinstance(idx, int) and 0 <= idx < n):
        c.expect(False, f"measured index {idx!r} outside [0, {n})")
    else:
        in_y = contains(flags["instance"]["y"], idx)
        verified = rec.get("verified")
        c.expect(verified is in_y, f"verified={verified!r} but index {idx} in Y is {in_y}")
        if verified is True:
            c.expect(rc == 0, f"verified record with exit code {rc}")
        elif verified is False:
            c.expect(rc == 3 and reps == flags["reps"], f"unverified record, exit {rc}, {reps} reps")
    if trace_tail is not None:
        rows, last = trace_tail
        c.expect(rows == 1 + 2 * (3 * L + 1), f"trace has {rows} rows, want {1 + 2 * (3 * L + 1)}")
        fields = last.split(",")
        c.expect(len(fields) == 7 and fields[2] == "diffusion", f"last trace row {last!r}")
        if len(fields) == 7:
            c.p(float(fields[6]), want_p, "final trace row")
    return c.problems


def check_compare(flags: dict, rc: int, text: str) -> list[str]:
    c = Checker()
    c.expect(rc == 0, f"exit code {rc}")
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as exc:
        return c.problems + [f"record is not JSON: {exc}"]
    n, kx, ky = _instance_numbers(flags)
    c.expect(rec.get("instance") == {"n": n, "x_size": kx, "y_size": ky},
             f"instance sizes {rec.get('instance')!r}")
    L = rec.get("L")
    c.L(L, n, kx, ky, flags["policy"])
    if not isinstance(L, int):
        return c.problems + [f"L is not an integer: {L!r}"]
    c.p(rec.get("p_success_exact"), p_success(n, kx, ky, L), "p_success_exact")
    c.expect(rec.get("counts") == {"x_queries": 3 * L, "y_queries": 1}, f"counts {rec.get('counts')!r}")
    _check_costs(c, rec.get("cost", {}), flags, L, 1, n, ky)
    iters = naive_iterations(n, ky)
    c.expect(rec.get("naive_iterations") == iters, f"naive iterations {rec.get('naive_iterations')!r} != {iters}")
    total = 3 * L * flags["tx"] + 1 * flags["ty"]
    naive = iters * flags["ty"]
    ratio = total / naive if naive > 0 else None
    got_ratio = rec.get("cost_ratio")
    c.expect(got_ratio is None if ratio is None else _close(got_ratio, ratio),
             f"cost ratio {got_ratio!r} != {ratio!r}")
    cross = 3 * L * flags["tx"] / (iters - 1) if iters > 1 else None
    got_cross = rec.get("crossover_t_y")
    c.expect(got_cross is None if cross is None else _close(got_cross, cross),
             f"crossover {got_cross!r} != {cross!r}")
    c.expect(rec.get("two_oracle_wins") is bool(ratio is not None and ratio < 1.0),
             f"two_oracle_wins {rec.get('two_oracle_wins')!r}")
    return c.problems
