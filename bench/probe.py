"""Machine-speed probe: fixed kernels timed between ops.

The machine this benchmark was built on is shared, and its speed drifts by
up to 2x over seconds to minutes: identical ``sweep_L`` calls took 0.5 to
1.2 s within one minute, with CPU time equal to wall time, so the drift is
contention for the core and memory rather than descheduling.  No
statistic over a 15-second run removes a drift that long.

So the benchmark times two small kernels that do not touch ``igrover``
(one pure-Python loop over small immutable objects, like the reduced
engine and the JSON layers; one numpy pass over a 2 MB array, like the
full engine) at most every ``every_s`` seconds between ops.  An op's speed
factor is the mean of the probes just before and just after it, relative
to the kernels' times on an idle 2-vCPU Xeon sandbox (``REF_*``), and its
reported time is its wall time divided by that factor: the time it would
have taken at the reference speed.  On that sandbox the ratio of
``sweep_L`` time to the Python kernel's time varied about 4x less than
either time alone.  The raw wall times are kept in the run's report.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

REF_PY_S = 4.0e-3
REF_NP_S = 1.7e-3


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    z: float


def _py_kernel() -> _Point:
    p = _Point(0.6, 0.48, 0.64)
    for _ in range(2500):
        d = p.x * 0.6 + p.y * 0.48 + p.z * 0.64
        p = _Point(2.0 * d * 0.6 - p.x, -(2.0 * d * 0.48 - p.y), 2.0 * d * 0.64 - p.z)
    return p


class SpeedProbe:
    """Speed factors over time; py_share weighs the Python kernel against numpy."""

    def __init__(self, py_share: float, every_s: float = 0.05):
        self.py_share = py_share
        self.every_s = every_s
        self.times: list[float] = []
        self.factors: list[float] = []
        self._buf = np.ones(1 << 18)

    def _np_kernel(self) -> None:
        for _ in range(6):
            np.negative(self._buf, out=self._buf)
            self._buf.mean()

    def sample(self) -> None:
        t0 = time.perf_counter()
        _py_kernel()
        t1 = time.perf_counter()
        self._np_kernel()
        t2 = time.perf_counter()
        self.times.append(t2)
        self.factors.append(self.py_share * (t1 - t0) / REF_PY_S
                            + (1.0 - self.py_share) * (t2 - t1) / REF_NP_S)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor of the probes just before start and just after end."""
        before = bisect_right(self.times, start) - 1
        after = bisect_left(self.times, end)
        picks = [self.factors[i] for i in (before, after) if 0 <= i < len(self.factors)]
        return sum(picks) / len(picks)
