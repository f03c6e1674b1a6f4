"""Outside-in layer tracing for the benchmark's traced runs.

Wrappers are installed from here on the names each caller looks up at call
time, for example ``binomsums.congruences.central_shift_sweep``, which
``PrimeContext.sweep`` resolves as a module global, or
``binomsums.cli.run_suite``, which the ``verify`` command calls.  Nothing in
the package is edited.  Spans (name, start, end, parent, run id) are kept in
memory and written out when the run ends; a span's self time is its duration
minus the durations of its direct children.

A wrapped name that the package no longer has reads as absent: its metrics
report 0 and it is listed under ``absent``.  Hot leaf calls such as
``binomial_factored`` are not wrapped.  Worker processes of a ``--jobs`` run
are not traced; their spans are left to tracing inside the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

# (module, attribute, span name); "Class.method" wraps a method
SPANS = (
    ("binomsums.cli", "main", "cli"),
    ("binomsums.cli", "_emit", "cli._emit"),
    ("binomsums.cli", "run_suite", "congruences.run_suite"),
    ("binomsums.congruences", "run_suite", "congruences.run_suite"),
    ("binomsums.congruences", "_suite_for_prime", "congruences.prime"),
    ("binomsums.congruences", "central_shift_sweep", "sweeps.central_shift_sweep"),
    ("binomsums.congruences", "self_convolution_mod", "sweeps.self_convolution_mod"),
    ("binomsums.congruences", "inverse_table", "arith.inverse_table"),
    ("binomsums.congruences", "FactorialTables", "arith.FactorialTables"),
    ("binomsums.congruences", "euler_numbers", "sequences.euler_numbers"),
    ("binomsums.congruences", "PrimeContext.weights", "congruences.PrimeContext.weights"),
    ("binomsums.congruences", "PrimeContext.central_square_menu",
     "congruences.PrimeContext.central_square_menu"),
    ("binomsums.congruences", "PrimeContext.central_cube_menu",
     "congruences.PrimeContext.central_cube_menu"),
    ("binomsums.congruences", "PrimeContext.central_square_residues",
     "congruences.PrimeContext.central_square_residues"),
    ("binomsums.congruences", "PrimeContext.delannoy_menu",
     "congruences.PrimeContext.delannoy_menu"),
)

# cached lookups and cheap calls: counted, but not worth a span
COUNTS = (
    ("binomsums.congruences", "PrimeContext.inv", "congruences.PrimeContext.inv.lookups"),
    ("binomsums.congruences", "PrimeContext.tables", "congruences.PrimeContext.tables.lookups"),
    ("binomsums.congruences", "PrimeContext.sweep", "congruences.PrimeContext.sweep.lookups"),
    ("binomsums.congruences", "coefficient_closed_form", "qseries.coefficient_closed_form.calls"),
)

ROOT = "workload"


def _count_work(counts: Counter, name: str, args, result) -> None:
    """Work counts taken from a traced call's arguments and result."""
    if name == "sweeps.central_shift_sweep":
        p, _, weights = args[:3]
        counts[name + ".cells"] += len(weights) * p * (p + 1) // 2
        counts["sweep.builds"] += len(weights)
    elif name == "arith.inverse_table":
        counts[name + ".entries"] += args[0]
    elif name == "arith.FactorialTables":
        counts[name + ".entries"] += args[2] + 1
    elif name == "sequences.euler_numbers":
        counts[name + ".max_index"] = max(counts[name + ".max_index"], args[0])
    elif name == "congruences.run_suite":
        counts["congruences.reports"] += len(result)


class Tracer:
    """Spans and counts of one traced workload call, in this process only."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, name, self._span_wrapper)
        for module, attr, name in COUNTS:
            self._patch(module, attr, name, self._count_wrapper)

    def _patch(self, module: str, attr: str, name: str, make) -> None:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            self.absent.append(f"{module}.{attr}")
            return
        setattr(owner, leaf, make(name, fn))

    def stop(self) -> None:
        """Let every wrapper pass calls straight through from now on."""
        self.pid = None

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            self.stack.pop()

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:  # a forked pool worker, or tracing stopped
                return fn(*args, **kwargs)
            result = self.run(name, fn, *args, **kwargs)
            self.counts[name + ".calls"] += 1
            _count_work(self.counts, name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            if name == "congruences.PrimeContext.sweep.lookups":
                ctx, bases, *rest = args
                bases = tuple(bases)  # may be an iterator; count it once
                self.counts[name] += len(bases)
                return fn(ctx, bases, *rest, **kwargs)
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: Counter = Counter()
        for (name, *_), ns in zip(self.spans, own):
            out[name] += ns / 1e9
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict[str, float]:
    """The per-layer metrics of one traced call, before the overhead figures.

    Every span name gives a self time, so the self times add up to the
    duration of the root span.  ``run_suite``'s self time is what its parent
    process spends outside the per-prime work: under ``--jobs`` the wait on
    the pool plus unpickling, hence the name ``parent_s``.
    """
    self_s = tracer.self_times()
    c = tracer.counts
    out = {}
    for name in dict.fromkeys([span for _, _, span in SPANS] + [ROOT]):
        key = name + (".parent_s" if name == "congruences.run_suite" else ".self_s")
        out[key] = self_s.get(name, 0.0)
    for name in ("sweeps.central_shift_sweep.calls", "sweeps.central_shift_sweep.cells",
                 "arith.inverse_table.calls", "arith.inverse_table.entries",
                 "arith.FactorialTables.calls", "arith.FactorialTables.entries",
                 "sequences.euler_numbers.calls", "sequences.euler_numbers.max_index",
                 "qseries.coefficient_closed_form.calls", "congruences.reports"):
        out[name] = c[name]
    # cached lookups / lookups; 0 where a layer made no lookups
    for cache, builds in (("inv", "arith.inverse_table.calls"),
                          ("tables", "arith.FactorialTables.calls"),
                          ("sweep", "sweep.builds")):
        lookups = c[f"congruences.PrimeContext.{cache}.lookups"]
        out[f"congruences.PrimeContext.{cache}.hit_ratio"] = (
            (lookups - c[builds]) / lookups if lookups else 0.0)
    out["cli.bytes_out"] = bytes_out
    return out
