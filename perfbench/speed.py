"""Speed probe: a fixed kernel that measures how fast the core runs now.

The benchmark runs on a core of a shared host whose speed changes in steps
of up to 1.5x that last from seconds to minutes (other tenants), with the
same code and inputs.  A pass therefore times :func:`probe`, benchmark code
the package never touches, in its own process between operations, and
scales each operation's time by ``REF_S`` over the mean of the two probes
that bracket it: the time the operation would take on a core where the
kernel takes ``REF_S``.  A change to the package moves a scaled time as much
as a raw one; a change in the core's speed moves both the operation and the
kernel, and cancels.

The kernel mixes the kinds of work the workloads do, in about equal parts:
interpreted Python with many small numpy calls (the experiment rep loop,
CLI glue, CSV parsing), operations on 200x400 matrices (the VA set
construction) and sorts of a larger array (the Monte-Carlo kernels).  Its
arrays are allocated before the timed region, so it times no page faults,
whose cost depends on the process's memory state rather than on the core's
speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median kernel time on a 2-core x86 VM; it only sets the scale of
# the reported times.
REF_S = 0.07

# Kernel runs per probe: the first PROBE_WARMUP are discarded (a core that
# has just been idle runs the kernel up to 2x slower), and the probe reports
# the median of the next PROBE_RUNS.
PROBE_WARMUP = 2
PROBE_RUNS = 3


def _buffers() -> dict:
    """The kernel's arrays, allocated and touched before any kernel run.

    They take about 3 MB and are freed when the probe ends, so the probe
    adds next to nothing to a pass's peak RSS.
    """
    big = np.random.default_rng(20250121).random(150_000)
    return {"big": big, "work": big.copy(), "matrix": np.ones((200, 400)),
            "mask": np.ones((200, 400), dtype=bool)}


def kernel(buf: dict) -> float:
    """Run the kernel once on ``_buffers()``; return its duration in seconds."""
    matrix, mask, work = buf["matrix"], buf["mask"], buf["work"]
    rng = np.random.default_rng(20250121)
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        ordered = np.sort(rng.random(200))
        acc += float(np.searchsorted(ordered, 0.5)) + sum(x * 0.5 for x in range(40))
        acc += len({j: j * i for j in range(30)})
    for _ in range(40):
        rng.random(out=matrix)
        acc += float(np.searchsorted(np.sort(matrix[0]), matrix[:, 0])[0])
        np.subtract(matrix, matrix[:, :1], out=matrix)
        np.abs(matrix, out=matrix)
        np.less_equal(matrix, 0.3, out=mask)
        acc += float(mask.sum(axis=1)[0])
    for _ in range(12):
        work[:] = buf["big"]
        work.sort()
        acc += float(work[0])
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the work observable
        raise AssertionError(acc)
    return elapsed


def probe() -> float:
    """Median of ``PROBE_RUNS`` kernel times (seconds), after a warm-up."""
    buf = _buffers()
    for _ in range(PROBE_WARMUP):
        kernel(buf)
    return statistics.median(kernel(buf) for _ in range(PROBE_RUNS))
