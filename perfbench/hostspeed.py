"""How fast the host runs Python right now, to scale timings to a nominal speed.

On a shared host the speed of a single-threaded Python process drifts by tens
of percent over seconds and minutes, with the same code and inputs. A fixed
pure-Python job (float math, ``repr``, string joins, the operations that
dominate ``noma_mec``) slows down with it, so a time divided by the probe's
time just around it, and multiplied by the probe's nominal time, is the time
the same work takes at the nominal speed. Raw times are reported beside the
scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

PROBE_SIZE = 1000
PROBE_REPEATS = 3
# The probe's typical time on the 2-vCPU x86-64 host, CPython 3.11, where the
# benchmark was tuned. Only its constancy matters: it fixes the scaled unit.
PROBE_NOMINAL_S = 0.0015


def probe() -> float:
    """Median seconds over PROBE_REPEATS runs of the fixed job."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        parts = []
        for i in range(PROBE_SIZE):
            x = 1.0 + i * 1e-3
            parts.append(repr(math.expm1(x) / x))
        ",".join(parts)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
