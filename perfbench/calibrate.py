"""A fixed calibration kernel that measures how fast the host runs right now.

The measuring machine shares its cores with other tenants, and its speed
drifts by a third or more over seconds and minutes, in CPU time as much as in
wall time.  Each timed run therefore times this kernel just before and just
after the workload call, in the same process, and the end-to-end times are
scaled by ``REFERENCE_S / kernel time``: they read as seconds on a host that
runs the kernel in ``REFERENCE_S``.

The kernel mixes the kinds of work the package does: Python-level modular
arithmetic, short numpy object-array updates in the style of the Pascal
sweep, products of large integers, and building many small objects and
strings, as reports and their CSV rows are built.  Timed around runs of
each workload on a noisy host, the last part tracked the workloads' speed
best; the others alone tracked it poorly.  It lives here, not in the package, so a
change to the package never changes the yardstick.  Do not edit it: every
normalised figure taken before an edit would stop being comparable.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

REFERENCE_S = 0.04  # the kernel's time on a calm host, about the fastest seen
SLICES = 3  # kernel calls per calibration and process; their median is taken


def _kernel() -> int:
    p = 100003
    m = p**3
    # running binomial-style products with modular inverses
    acc, total = 1, 0
    for k in range(1, 6000):
        acc = acc * (2 * k - 1) % m * pow(k, -1, m) % m
        total = (total + acc * k * k) % m
    # a short object-dtype Pascal sweep
    row = np.zeros(1, dtype=object)
    row[0] = 1
    sums = np.zeros(210, dtype=object)
    for k in range(210):
        s = row.shape[0]
        sums[:s] += (3 * k + 1) * row
        s2 = min(k + 2, 210)
        new = np.zeros(s2, dtype=object)
        new[:s] = 2 * row
        new[: s - 1] += row[1:]
        new[1:s2] += row[: s2 - 1]
        new %= m
        row = new
    # products of large integers, like the packed convolutions and Euler numbers
    big = 3**70000 + total
    for _ in range(3):
        big = (big * big) >> 111000
    # many small objects and strings, like building and emitting reports
    # (in chunks, so the kernel does not raise the process's peak memory)
    chars = 0
    for chunk in range(0, 15000, 1500):
        rows = [("C1_5", k, f"d={k % 7}", m, k * k * 12345 % m, k * 678 % m, "ok")
                for k in range(chunk, chunk + 1500)]
        chars += len("\n".join(",".join(map(str, r)) for r in rows))
    return (total + int(sums.sum()) + big + chars) % m


def _median_slice_s() -> float:
    times = []
    for _ in range(SLICES):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_s(processes: int = 1) -> float:
    """Median seconds of ``SLICES`` kernel calls, averaged over ``processes``.

    With more than one process the kernel runs in that many processes at
    once (this one and forked helpers), so it times the CPUs a worker pool
    of that size runs on.
    """
    helpers = []
    for _ in range(processes - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # helper: time the kernel, report, exit
            status = 1
            try:
                os.close(read_fd)
                os.write(write_fd, repr(_median_slice_s()).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        helpers.append((pid, read_fd))
    times = [_median_slice_s()]
    try:
        for _, read_fd in helpers:
            with os.fdopen(read_fd) as fh:
                times.append(float(fh.read()))
    finally:
        for pid, _ in helpers:
            os.waitpid(pid, 0)
    return statistics.fmean(times)
