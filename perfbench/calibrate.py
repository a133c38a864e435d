"""Machine-speed calibration for timings on a shared, noisy host.

On a small shared VM the speed available to one process drifts by
+-25% over seconds to minutes, so a run-to-run comparison of raw seconds
mostly measures the neighbours.  sample_s() times a short fixed
pure-Python loop of the same kind of work as gradcalc (Fraction
arithmetic, dict accumulation keyed by small tuples) that never calls
gradcalc.  The timed passes interleave such samples between items, about
thirty per pass, and a raw time t measured while the samples' median was
c is reported as t * (REFERENCE_S / c) ** ELASTICITY: seconds on a machine
where the loop takes REFERENCE_S.  The samples' own time is left out of
every figure.  Raw times are reported alongside.

ELASTICITY < 1 because gradcalc does not slow down as much as the loop
when the host is busy.  On a 2-vCPU VM the loop's time switched between
about 0.8 ms and 1.4 ms while a bracket-lift pass's raw time changed by
only about 1.35x; regressing log pass time on log calibration within
runs gave slopes of 0.6-0.75.  With full scaling (1.0) the run-to-run
spread of wall_s over ten seeds was 0.04-0.13; with 0.8 it was 0.02-0.06
on every workload.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0012
ELASTICITY = 0.8
REPEATS = 7
SAMPLES_PER_PASS = 30


def _loop():
    acc: dict = {}
    total = Fraction(0)
    for i in range(1, 150):
        key = ((i % 7, 1), (i % 5, 2))
        c = Fraction(i % 11 - 5, i % 4 + 1)
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c
        total += c * c
    return total, len(acc)


def sample_s() -> float:
    """Time of one run of the fixed loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def calibration_s() -> float:
    """Median of REPEATS samples, for phases that cannot interleave them."""
    return statistics.median(sample_s() for _ in range(REPEATS))


def scale(calibration: float) -> float:
    """Factor turning raw seconds measured at this calibration into
    reference seconds."""
    return (REFERENCE_S / calibration) ** ELASTICITY
