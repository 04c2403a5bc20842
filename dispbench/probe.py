"""Machine-speed probe: host time scaled to a fixed machine speed.

The benchmark shares its host with other tenants. Their load makes the
same Python code run up to about 1.7x slower, in stretches of a fraction
of a second to tens of seconds, so raw wall-clock rates of two runs of the
same code differ by 20% or more. While a probe is active, a SIGALRM
handler runs a fixed reference kernel every ``PERIOD_S`` seconds: a JSON
round trip of 120 trace-like rows and a BFS over a 24x24 grid, the two
kinds of work the workloads do, written here so that no change to
dispersim changes it. Each stretch of timed code between two kernel runs
is scaled by ``REF_KERNEL_S / kernel time`` measured at its end, and the
handler's own time is left out: the result is the seconds the code would
have taken with the kernel running at its reference speed.

The kernel sees the slowdown at the same moments as the code it
interleaves with. On rect-sweep passes, scaling cut the spread of pass
times between quartiles from 25% of the median to about 3%.
"""

from __future__ import annotations

import json
import signal
import time
from collections import deque

PERIOD_S = 0.05
GRID = frozenset((x, y) for x in range(24) for y in range(24))
# Median kernel time on the reference machine (a 2-vCPU Intel Xeon VM at
# 2.1 GHz, CPython 3.11.7). It only sets the scale of scaled seconds.
REF_KERNEL_S = 0.0011
ROWS = [{"id": i, "pos": [i % 24, i // 24], "state": "A", "act": "U"} for i in range(120)]


def kernel() -> None:
    json.loads(json.dumps(ROWS))
    dist = {(0, 0): 0}
    todo = deque([(0, 0)])
    while todo:
        x, y = todo.popleft()
        d = dist[(x, y)] + 1
        for nb in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
            if nb in GRID and nb not in dist:
                dist[nb] = d
                todo.append(nb)


class Probe:
    """Context manager timing the code inside it in raw and scaled seconds.

    Each stretch of timed code between two kernel runs is scaled by the
    kernel time measured at its end, so a slowdown that comes and goes
    within the interval being timed is corrected where it happened.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.wall_s = 0.0
        self.work_s = 0.0
        self.scaled_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        t_end = time.perf_counter()
        self.wall_s = t_end - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # A signal pending at t_end may have run the kernel after it.
        self.samples = [s for s in self.samples if s[0] < t_end]
        self._sample()  # scales the stretch after the last interrupt
        resumed = self._t0
        for i, (start, k) in enumerate(self.samples):
            stretch = (t_end if i == len(self.samples) - 1 else start) - resumed
            self.work_s += stretch
            self.scaled_s += stretch * REF_KERNEL_S / k
            resumed = start + k
