"""One timed run of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --lo LO --hi HI --out FILE
        --spawned-at T [--trace SPANS_FILE] [--recheck-seed N]

Run from the root of a checkout with ``src`` on ``PYTHONPATH``.  ``T`` is the
parent's ``time.perf_counter()`` just before it started this process (the
clock is system-wide), so ``import binomsums`` done minus ``T`` is the set-up
time.  Times the calibration kernel, the workload call (wall, CPU of this
process and its children, peak RSS) and the kernel again, then, outside the
timed region, digests the output rows, counts ``fail`` rows and optionally
re-evaluates a sample of rows through ``binomsums.check``.  Prints one JSON
object.
"""

from __future__ import annotations

import time

import binomsums

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402  (after the set-up measurement)
import csv
import hashlib
import json
import os
import random
import resource
import sys
import traceback

from calibrate import kernel_s
from workloads import WORKLOADS

RECHECK_SAMPLE = 32


def _usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS in MiB) of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (own.ru_maxrss + kids.ru_maxrss) / 1024


def _current_cpu() -> int:
    """The CPU this process is running on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rpartition(")")[2].split()[36])


def _row(report) -> tuple[str, ...]:
    """A report as the first seven columns of its CSV row."""
    return (report.id, str(report.p), report.params, str(report.modulus),
            "" if report.lhs is None else str(report.lhs),
            "" if report.rhs is None else str(report.rhs), report.status)


def _recheck(rows: list[tuple[str, ...]], seed: int) -> tuple[int, int]:
    """(sampled, disagreeing) rows re-evaluated through the reference path."""
    from binomsums import check

    live = [r for r in rows if r[6] != "skipped"]
    sample = random.Random(seed).sample(live, min(RECHECK_SAMPLE, len(live)))
    bad = 0
    for row in sample:
        id_, p, params = row[:3]
        param = int(params.partition("=")[2]) if params else None
        if _row(check(id_, int(p), param)) != row:
            bad += 1
    return len(sample), bad


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--lo", type=int, required=True)
    ap.add_argument("--hi", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", metavar="SPANS_FILE")
    ap.add_argument("--recheck-seed", type=int)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()
    work = WORKLOADS[args.workload]

    from binomsums import cli, congruences

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(binomsums.__file__).startswith(src + os.sep):
        sys.exit(f"binomsums was imported from {binomsums.__file__}, not {src}")

    argv = ["verify", "--primes", f"{args.lo}..{args.hi}", "--include-experimental",
            "--format", "csv", "--out", args.out]
    if work.jobs > 1:
        argv += ["--jobs", str(work.jobs)]

    def call():
        # names are looked up at call time, so a traced run sees its wrappers
        if work.is_cli:
            return cli.main(argv)
        return congruences.run_suite(binomsums.primes_in_range(args.lo, args.hi), work.ids)

    tracer = None
    if args.trace:
        from tracing import ROOT, Tracer, layer_metrics

        tracer = Tracer(f"{args.workload}:{args.lo}..{args.hi}:{os.getpid()}")
        tracer.install()

    if work.jobs == 1:
        # keep the kernel and the workload on one CPU, so the kernel times the
        # CPU the work runs on
        os.sched_setaffinity(0, {_current_cpu()})
    kernel_before = kernel_s(work.jobs)
    cpu0, _ = _usage()
    start = time.perf_counter()
    error = None
    try:
        result = call() if tracer is None else tracer.run(ROOT, call)
    except Exception:  # a raising workload is reported as failed rows
        error = traceback.format_exc()
        result = None
    wall = time.perf_counter() - start
    cpu1, rss = _usage()
    if tracer is not None:
        tracer.stop()  # the checks below are not part of the trace
    kernel_after = kernel_s(work.jobs)

    out = {"wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": rss, "error": error,
           "setup_s": IMPORTED_AT - args.spawned_at,
           "kernel_s": [kernel_before, kernel_after]}
    if error is None:
        if work.is_cli:
            with open(args.out, "rb") as fh:
                raw = fh.read()
            rows = [tuple(r[:7]) for r in csv.reader(raw.decode("utf-8").splitlines())][1:]
        else:
            rows = [_row(r) for r in result]
            raw = b"".join(("\t".join(r) + "\n").encode() for r in rows)
        out["sha256"] = hashlib.sha256(raw).hexdigest()
        out["rows"] = len(rows)
        out["fails"] = sum(r[6] == "fail" for r in rows)
        if args.recheck_seed is not None:
            out["recheck"] = _recheck(rows, args.recheck_seed)
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, len(raw) if work.is_cli else 0)
            out["absent"] = tracer.absent
            tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
