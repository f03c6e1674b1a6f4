"""The benchmark's workloads and the prime window each seed selects.

Every workload is one fixed ``verify`` job over a window of consecutive
primes, run in a fresh process by a single caller.  Seed 0 selects the gating
window; any other seed moves the window up by one to three primes and keeps
its prime count, so a claim can be rechecked on inputs that were not used
while it was written.  The move is kept that small because the cost of a
window grows with its largest prime, and the spread across seeds has to stay
well inside the benchmark's bounds.  ``digests.json`` pins the output of
every window a seed can select.
"""

from __future__ import annotations

from dataclasses import dataclass

# the shift families served by the numpy Pascal sweep
SHIFT_IDS = ("C1_5", "C1_6", "C1_19", "C1_20", "C1_21",
             "C1_22", "C1_23", "C1_24", "C1_25", "C1_26")
# the half-range rows of the acceptance suite, plus the double-sum and cube rows
HALFRANGE_IDS = ("C1_7a", "C1_7b", "C1_8", "C1_9", "C1_10", "C1_11", "C1_12",
                 "C1_13", "C3_2", "C3_3", "C3_4", "C3_5", "CR3_1", "CG", "CM",
                 "CL3_2", "CL3_3", "CGZ")

MAX_MOVE = 3  # largest window move a non-zero seed selects


@dataclass(frozen=True)
class Workload:
    """One timed job: a window of ``count`` primes from the first prime >= ``lo``.

    ``ids`` are the rows of a library ``run_suite`` call; ``None`` means the
    CLI ``verify --include-experimental --format csv`` path with ``jobs``
    worker processes.  ``smoke`` is the (lo, count) window of the self-test.
    Workloads with the same ``digest_key`` must produce identical output.
    """

    name: str
    ids: tuple[str, ...] | None
    lo: int
    count: int
    smoke: tuple[int, int]
    digest_key: str
    jobs: int = 1

    @property
    def is_cli(self) -> bool:
        return self.ids is None

    def window(self, seed: int, smoke: bool = False) -> tuple[int, int]:
        """First and last prime of the window that ``seed`` selects."""
        lo, count = self.smoke if smoke else (self.lo, self.count)
        move = 0 if seed == 0 or smoke else 1 + (seed - 1) % MAX_MOVE
        ps = primes_from(lo, count + move)[move:]
        return ps[0], ps[-1]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # 2003..2143: the sweep and its weights dominate, heavy on reports
        Workload("shift_sweep", SHIFT_IDS, lo=2000, count=21, smoke=(200, 9),
                 digest_key="shift_sweep"),
        # 1009..1399: tables, term streams and menus; no sweep, few reports
        Workload("halfrange_menus", HALFRANGE_IDS, lo=1000, count=54,
                 smoke=(100, 21), digest_key="halfrange_menus"),
        # 5..491: every row through the CLI; the window stays below p = 515 for
        # every seed, so the Euler table is rebuilt at the same sizes
        Workload("cli_verify", None, lo=5, count=92, smoke=(5, 15),
                 digest_key="cli_verify"),
        Workload("cli_verify_jobs2", None, lo=5, count=92, smoke=(5, 15),
                 digest_key="cli_verify", jobs=2),
    )
}


def primes_from(lo: int, count: int) -> list[int]:
    """The first ``count`` primes >= ``lo``, by trial division.

    Kept independent of the package so the windows do not move when its
    prime helpers change.
    """
    out: list[int] = []
    n = max(lo, 2)
    while len(out) < count:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
        n += 1
    return out
