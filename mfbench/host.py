"""Host speed calibration, so that timings taken minutes apart compare.

On the shared 2-vCPU VM the benchmark was built on, the speed of each vCPU
swings by about 40% in phases of 10 to 30 seconds (a fixed integer loop took
4.9 ms in fast phases and 7.0 ms in slow ones) while steal time stayed near
2%: contention for the physical core or its caches does not show as steal.
A run's raw median then depends on the phase it fell in more than on the
code. So the benchmark times a fixed stdlib-only loop just before and just
after each timed piece of work, where that work runs, and scales the piece
by it (`scaled`).

The loop mixes integer arithmetic with `Fraction`, dict and JSON work:
moneyflow slows more in a slow phase than integer arithmetic alone does, and
with the mix, fast-phase and slow-phase iterations of simulate-n5 and
fit-cycle scaled to within 2% of each other. Work fanned out over worker
processes runs on every CPU, so it is scaled by the mean over CPUs.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from fractions import Fraction

# Nominal calibration time in ms: about what the loop takes on the reference
# host (2-vCPU Xeon VM, Python 3.11) in a fast phase. Scaled times are
# seconds on such a host.
REFERENCE_MS = 10.0
MAX_CPUS = 8  # a larger host is calibrated on its first eight allowed CPUs


def _loop_ms() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc + i * i) % 1_000_003
    total = Fraction(0)
    table = {}
    for i in range(1500):
        f = Fraction(i % 97 + 1, i % 89 + 7)
        total += f
        table[i] = {"t": i * 0.5, "v": f, "k": f"x{i}"}
    json.dumps([[v["k"], str(v["v"]), v["t"]] for v in table.values()])
    return (time.perf_counter() - start) * 1e3


def calib_ms(spread: bool = False) -> float:
    """Time of the fixed loop, in ms, where the next piece of work will run.

    Work in this process runs on one CPU at a time, so by default the loop
    runs where the process is. With `spread`, for work fanned out over
    worker processes, the process is pinned to each allowed CPU in turn, the
    mean is returned and the affinity is restored.
    """
    if not spread or not hasattr(os, "sched_setaffinity"):
        return _loop_ms()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(_loop_ms())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def scaled(seconds: float, before_ms: float, after_ms: float) -> float:
    """`seconds` as they would read on the reference host in a fast phase."""
    return seconds * REFERENCE_MS / ((before_ms + after_ms) / 2)
