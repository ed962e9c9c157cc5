"""Reference kernels: fixed work, independent of sumcross, timed next to
the workload so that every run's times are given at one machine speed.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU
virtual machine the same round took up to 1.5x longer from one minute to
the next, with no steal time recorded, so a raw median time differs more
between runs than between program versions.  Each timed figure is
therefore divided by the time of a reference kernel measured right after
it, in the same process, and multiplied by the kernel's nominal time.
That is the figure at the speed at which the nominal times were measured.
A change to sumcross moves the figure; a change in the host's speed moves
the figure and the kernel alike and cancels.

Two kernels, for the two kinds of work the workloads do:

- ``loop``: interpreter-bound, cache-resident work: a nested loop over
  tuples counting interleaved intervals, as sumcross's quadratic counters
  and crossing sweep do.
- ``sort``: memory-bound work: fill, sort and scan a fresh 16 MB int64
  array, as the large sumsets do.

A reference is a tuple of kernel names; its time is the sum of theirs.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

LOOP_INTERVALS = 1300
SORT_VALUES = 2_000_000

# Median time of each kernel on the machine the benchmark was developed
# on (Intel Xeon, 2.0 GHz, 2 vCPUs; Python 3.11, numpy 2.4), rounded.
NOMINAL_S = {"loop": 0.08, "sort": 0.05}


def loop_kernel() -> int:
    rng = random.Random(7)
    spans = sorted(tuple(sorted((rng.randrange(10**6), rng.randrange(10**6))))
                   for _ in range(LOOP_INTERVALS))
    count = 0
    for i in range(len(spans)):
        a, b = spans[i]
        for j in range(i + 1, len(spans)):
            c, d = spans[j]
            if a < c < b < d or c < a < d < b:
                count += 1
    return count


def sort_kernel() -> int:
    values = np.random.default_rng(7).integers(0, 2**60, SORT_VALUES)
    values.sort()
    return int(np.count_nonzero(np.diff(values)))


KERNELS = {"loop": loop_kernel, "sort": sort_kernel}


def reference_time(kernels: tuple[str, ...]) -> float:
    """Wall time of one pass of the named kernels."""
    start = perf_counter()
    for name in kernels:
        KERNELS[name]()
    return perf_counter() - start


def nominal_time(kernels: tuple[str, ...]) -> float:
    return sum(NOMINAL_S[name] for name in kernels)
