"""Machine-speed probe: a fixed piece of benchmark-owned CPU work.

The benchmark runs this probe before and after every timed repeat. On a
shared VM, load from other tenants slows the whole machine, for stretches of
seconds to minutes, and it slows the probe and the program alike. Dividing a
repeat's time by the mean of the probes around it cancels that slowdown;
multiplying by REFERENCE_S puts the quotient back into seconds, as the time
the repeat would take on a machine where the probe takes REFERENCE_S.

The work is exact integer elimination in pure Python, the same kind of work
as the package's condensation kernel, on inputs that never change. It imports
nothing from the package under test, so no change to the package moves it.

    python probe.py CPU
        Serve probes on CPU alone: one probe per line read from stdin, its
        wall and CPU seconds written as one line to stdout. A pooled workload
        runs one such server per worker, all at once, so that the probe sees
        every CPU the pool runs on.
"""

from __future__ import annotations

import gc
import os
import sys
import time

from inputs import determinant_and_rank, skew_adjacency

#: seconds the probe takes on the quiet 2-vCPU VM the benchmark was tuned on
#: (Python 3.11); a constant, so that normalised times compare across commits
REFERENCE_S = 0.1

#: fixed diagrams: 8x8 with black squares only in the first row and column,
#: and a staircase, eliminated ROUNDS times in total
_DIAGRAMS = ((8, (0xFF,) + (0x01,) * 7), (8, (0x07, 0x03, 0x01, 0, 0, 0, 0, 0)))
_MATRICES = tuple(skew_adjacency(n, masks) for n, masks in _DIAGRAMS)
ROUNDS = 5


def _work() -> int:
    total = 0
    for _ in range(ROUNDS):
        for matrix in _MATRICES:
            det, rank = determinant_and_rank(matrix)
            total += det + rank
    return total


#: result of the probe work; every call must reproduce it
EXPECTED = _work()


def probe() -> tuple[float, float]:
    """Run the fixed work once; returns its (wall, CPU) seconds.

    The work makes no reference cycles, so the cyclic collector is paused:
    its passes would cost more the more objects the calling process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu0 = time.process_time()
        start = time.perf_counter()
        result = _work()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"probe computed {result}, expected {EXPECTED}")
    return wall, cpu


def serve(cpu: int) -> None:
    """Run on one CPU only; probe once for every line read from stdin."""
    os.sched_setaffinity(0, {cpu})
    for _ in sys.stdin:
        wall, cpu_s = probe()
        print(wall, cpu_s, flush=True)


if __name__ == "__main__":
    serve(int(sys.argv[1]))
