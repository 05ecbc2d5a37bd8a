"""Host-speed reference for calibrating the benchmark's times.

The shared host this benchmark was written on changes speed by 20-40%
over seconds to minutes (both vCPUs at once, CPU time tracking wall
time, so it is not descheduling but the host core's effective speed).
Raw timings of the same code then spread by more than any useful
regression bound.  Every time the benchmark reports is therefore
scaled by NOMINAL_S / (reference time measured next to it): the result
is the time the work would have taken at the host speed where
`reference_loop()` takes NOMINAL_S.

The reference is a frozen copy of the three kinds of work the program
spends its time on: a braid-permutation sweep over every keep/remove
mask, a memoized recursive staircase count, and a big-integer
convolution.  It lives here, not in the program, so no change to the
program can change it; it depends only on the interpreter and the
host.  The raw times are printed beside the calibrated ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_S = 0.003   # reference_loop() on an idle 2-vCPU host, Python 3.11

_WORD = (1, 2, 1, 3, 2, 1, 3, 2, 3, 1)  # generator indices on 4 strands


def _sweep() -> int:
    identity = list(range(5))
    hits = 0
    for mask in range(1 << len(_WORD)):
        occupant = list(identity)
        for idx, i in enumerate(_WORD):
            if (mask >> idx) & 1:
                occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
        hits += occupant == identity
    return hits


def _count(n: int = 30) -> int:
    memo: dict[tuple[int, int, int], int] = {}

    def rec(remaining: int, row: int, prev: int) -> int:
        if remaining == 0:
            return 1
        limit = min(remaining, prev if prev else remaining)
        if row >= 2:
            limit = min(limit, 1)
        key = (remaining, min(row, 2), limit)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = 0
        for length in range(1, limit + 1):
            total += rec(remaining - length, row + 1, length)
        memo[key] = total
        return total

    return sum(rec(k, 0, 0) for k in range(n))


def _convolve(m: int = 60) -> int:
    a = [3 ** (i % 40) + i for i in range(m)]
    out = [0] * (2 * m)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return out[-2]


def reference_loop() -> float:
    """Seconds one pass of the frozen reference work takes right now."""
    start = perf_counter()
    _sweep()
    _count()
    _convolve()
    return perf_counter() - start


def factors(samples: list[float], window: int) -> list[float]:
    """Calibration factor for each position of `samples`: NOMINAL_S over
    the median of the samples within `window` positions of it."""
    return [NOMINAL_S / statistics.median(samples[max(0, i - window): i + window + 1])
            for i in range(len(samples))]
