"""Benchmark of binomsums: fixed ``verify`` workloads timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --smoke             # self-test on tiny windows

Run it from the root of a checkout; the package is imported from the
checkout's ``src``.  Each run of the workload is a fresh process
(``child.py``), repeated while the next run would still end within
``--seconds``; the end-to-end metrics are medians over those runs.  The
host's speed drifts, so each run times a fixed kernel (``calibrate.py``)
around the workload call, and the times are scaled to the kernel's reference
speed: ``norm_wall_s``, ``norm_cpu_s``, ``norm_rows_per_s`` and ``setup_s``
(interpreter start to ``import binomsums`` done in the run's process) read as
on a host that runs the kernel in ``REFERENCE_S``.  The plain times are
printed too, on the lines for people.  With ``--trace 1`` untraced and traced
runs alternate, and the per-layer metrics are medians over the traced ones.

Correctness is checked outside the timed region: every run's output must
match the digest pinned in ``digests.json`` for its window (the serial and
``--jobs 2`` CLI workloads share one digest, so their bytes must be equal),
no row may end in ``fail``, and a fixed-size sample of rows from the first
run is re-evaluated through ``binomsums.check``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.getcwd()
SRC = os.path.join(CHECKOUT, "src")
WORK_DIR = os.path.join(HERE, ".work")
ENV = dict(os.environ, PYTHONPATH=SRC)
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def warm_up() -> None:
    """Import the package once, so the first timed run does not write bytecode caches."""
    code = "import binomsums, calibrate; print(binomsums.__file__, flush=True)"
    env = dict(ENV, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=CHECKOUT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.startswith(SRC + os.sep):
        raise BenchError(f"import binomsums from {SRC} failed:\n{proc.stderr}")


def run_child(work, lo: int, hi: int, traced: bool, recheck_seed: int | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", work.name,
           "--lo", str(lo), "--hi", str(hi),
           "--out", os.path.join(WORK_DIR, work.name + ".csv")]
    if traced:
        cmd += ["--trace", os.path.join(WORK_DIR, f"spans-{work.name}.jsonl")]
    if recheck_seed is not None:
        cmd += ["--recheck-seed", str(recheck_seed)]
    cmd += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=CHECKOUT, env=ENV, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{work.name} run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(work, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Measure one workload; returns (result object, human-readable lines)."""
    spec = _load(os.path.join(CHECKOUT, "BENCHMARK.json"))
    lo, hi = work.window(seed, smoke)
    pinned = _load(os.path.join(HERE, "digests.json"))[work.digest_key].get(f"{lo}..{hi}")
    if pinned is None:
        raise BenchError(f"no pinned digest for {work.digest_key} {lo}..{hi}")
    warm_up()

    plain, traced, notes = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        is_traced = trace and len(plain) > len(traced)
        first = not plain and not traced
        rep_start = time.perf_counter()
        res = run_child(work, lo, hi, is_traced, seed if first else None)
        rep_s = time.perf_counter() - rep_start
        (traced if is_traced else plain).append(res)
        rows = res.get("rows", pinned["rows"])
        attempted += rows
        if res["error"] is not None:
            failed += rows
            notes.append(f"run raised:\n{res['error']}")
        elif res["sha256"] != pinned["sha256"]:
            failed += rows
            notes.append(f"output digest {res['sha256']} != pinned {pinned['sha256']}")
        else:
            failed += res["fails"]
            if res["fails"]:
                notes.append(f"{res['fails']} rows ended in fail")
        if "recheck" in res:
            sampled, bad = res["recheck"]
            failed += bad
            notes.append(f"reference re-check: {bad} of {sampled} sampled rows disagree")
        # stop before a run that would end past the deadline
        if time.perf_counter() - start + rep_s > seconds and (not trace or traced):
            break

    walls = [r["wall_s"] for r in plain]
    if trace:
        layers = [r["layers"] for r in traced if r["error"] is None]
        if not layers:
            raise BenchError(f"{work.name}: every traced run raised:\n{traced[0]['error']}")
        values = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        declared = spec["per_layer"]
        samples = {"trace.wall_s": [r["wall_s"] for r in traced]}
        absent = sorted({a for r in traced for a in r.get("absent", [])})
        if absent:
            notes.append("absent: " + ", ".join(absent))
    else:
        # host speed of each run: the reference kernel time over the kernel
        # time measured around the workload call (for set-up: before it)
        speed = [REFERENCE_S / statistics.fmean(r["kernel_s"]) for r in plain]
        speed_setup = [REFERENCE_S / r["kernel_s"][0] for r in plain]
        samples = {
            "norm_wall_s": [r["wall_s"] * f for r, f in zip(plain, speed)],
            "norm_cpu_s": [r["cpu_s"] * f for r, f in zip(plain, speed)],
            "norm_rows_per_s": [r.get("rows", 0) / (r["wall_s"] * f)
                                for r, f in zip(plain, speed)],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "setup_s": [r["setup_s"] * f for r, f in zip(plain, speed_setup)],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        declared = spec["end_to_end"]

    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"{work.name} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    lines = [f"# {work.name}: primes {lo}..{hi}, seed {seed}, "
             f"{len(plain)} untraced and {len(traced)} traced runs"]
    for name, m in metrics.items():
        text = f"{name:56s} {m['value']:.6g} {m['unit']}"
        if name in samples and len(samples[name]) > 1:
            q1, _, q3 = statistics.quantiles(samples[name], n=4)
            text += f"  (median of {len(samples[name])}; quartiles {q1:.6g}..{q3:.6g})"
        lines.append(text)
    raw = {"raw wall_s": walls, "raw cpu_s": [r["cpu_s"] for r in plain],
           "raw setup_s": [r["setup_s"] for r in plain],
           "calibration kernel_s": [statistics.fmean(r["kernel_s"]) for r in plain]}
    for name, v in raw.items():
        if v:
            lines.append(f"{name:56s} {statistics.median(v):.6g} s  (not normalised)")
    lines.append(f"{'failed_frac':56s} {failed / max(attempted, 1):.6g}"
                 f"  ({failed} of {attempted} rows)")
    lines += notes
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def smoke() -> list[str]:
    """Run every workload on its tiny window, traced and untraced; list problems.

    ``run_workload`` itself refuses a metric set that differs from
    BENCHMARK.json, so a passing smoke test has printed every metric with
    its unit.
    """
    problems = []
    outputs = {}
    for work in WORKLOADS.values():
        for trace in (False, True):
            result, lines = run_workload(work, seed=0, seconds=0, trace=trace, smoke=True)
            print("\n".join(lines))
            if not result["correct"]:
                problems.append(f"{work.name}: {result['failed']} failed rows")
            if trace:
                values = {n: m["value"] for n, m in result["metrics"].items()}
                own = sum(v for n, v in values.items() if n.endswith((".self_s", ".parent_s")))
                slack = abs(values["trace.overhead_s"]) + 0.005
                if abs(own - values["trace.wall_s"]) > slack:
                    problems.append(f"{work.name}: self times sum to {own:.6f} s, "
                                    f"traced wall is {values['trace.wall_s']:.6f} s")
        if work.is_cli:
            with open(os.path.join(WORK_DIR, work.name + ".csv"), "rb") as fh:
                outputs[work.name] = fh.read()
    if outputs["cli_verify"] != outputs["cli_verify_jobs2"]:
        problems.append("--jobs 2 output bytes differ from the serial run")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test on tiny windows")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "binomsums", "__init__.py")):
        print(f"no binomsums sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        if args.smoke:
            problems = smoke()
            for p in problems:
                print("SMOKE FAILED:", p, file=sys.stderr)
            print("smoke test", "failed" if problems else "passed")
            return 1 if problems else 0
        seconds = args.seconds
        if seconds is None:
            seconds = _load(os.path.join(CHECKOUT, "BENCHMARK.json"))["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result, lines = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
