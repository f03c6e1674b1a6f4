"""Acceptance gate: every advertised guarantee at its full stated range.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all);
congruence checks are exact, so the tolerance everywhere is identically zero.
The whole gate is a few minutes of CPU; the two big prime sweeps are shared
between criteria through module-scoped fixtures, and the tests that use them
are marked ``slow`` (``pytest -m "not slow"`` leaves them out).
"""

from fractions import Fraction
from math import comb

import pytest

from binomsums.arith import (
    FactorialTables,
    legendre_symbol,
    primes_in_range,
    represent,
)
from binomsums.congruences import run_suite
from binomsums.identities import SUITES, run_identity_suite
from binomsums.qseries import coefficient_closed_form, coefficient_table
from oracles import binomial_valuation

PRIMES_5K = primes_in_range(5, 5000)
PRIMES_10K = primes_in_range(5, 10_000)


def _line(num: int, ok: bool, text: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {text}", flush=True)
    assert ok, f"criterion {num:02d} failed: {text}"


def _by_id(reports):
    out = {}
    for r in reports:
        out.setdefault(r.id, []).append(r)
    return out


def _qualifying(p: int, parity: int) -> int:
    return len(range(parity % 2, p, 2))


@pytest.fixture(scope="module")
def sweep_reports():
    # one pass over p <= 5000 serves the two vanishing-sum criteria
    ids = ["C1_5", "C1_6", "C1_19", "C1_20", "C1_21",
           "C1_22", "C1_23", "C1_24", "C1_25", "C1_26"]
    return _by_id(run_suite(PRIMES_5K, ids))


@pytest.fixture(scope="module")
def quarter_reports():
    # one pass over p <= 10^4 serves the two half-range criteria
    ids = ["C1_7a", "C1_7b", "C1_8", "C1_9", "C1_10", "C1_11", "C1_12", "C1_13",
           "C3_2", "C3_3", "C3_4", "C3_5", "CR3_1", "CG", "CM"]
    return _by_id(run_suite(PRIMES_10K, ids))


@pytest.mark.slow
def test_criterion_01_squared_central_shift_sums(sweep_reports):
    c15 = sweep_reports["C1_5"]
    ok = (
        len(c15) == sum(_qualifying(p, (p + 1) // 2) for p in PRIMES_5K)
        and all(r.status == "pass" and r.rhs == 0 for r in c15)
    )
    c16 = sweep_reports["C1_6"]
    ok = ok and len(c16) == len(PRIMES_5K) and all(
        r.status == ("pass" if r.p % 4 == 3 else "skipped") for r in c16
    )
    _line(1, ok, "central-square shift sums over 64^k vanish mod p^2, "
                 "and the shift-by-one sum matches its closed form, p <= 5000")


@pytest.mark.slow
def test_criterion_02_half_range_weighted_sums(quarter_reports):
    ids = ["C1_7a", "C1_7b", "C1_8", "C1_9", "C1_10", "C1_11", "C1_12", "C1_13"]
    ok = all(
        len(quarter_reports[i]) == len(PRIMES_10K)
        and all(
            r.status == ("pass" if r.p % 4 == 1 else "skipped")
            and r.modulus == r.p * r.p
            for r in quarter_reports[i]
        )
        for i in ids
    )
    # smallest-prime residues re-derived from the defining sums mod 25
    cat = lambda k: comb(2 * k, k) // (k + 1)
    anchors = [
        ("C1_7a", sum(Fraction((k + 1) * comb(2 * k, k) ** 2, 8**k) for k in range(3)), 24),
        ("C1_8", sum(Fraction(comb(2 * k, k) * cat(k), 8**k) for k in range(3)), 3),
        ("C1_12", sum(Fraction(comb(2 * k, k) ** 2 * comb(2 * k, k + 1), (-8) ** k)
                      for k in range(5)), 8),
        ("C1_13", sum(Fraction(comb(2 * k, k) * comb(2 * k, k + 1) ** 2, (-8) ** k)
                      for k in range(5)), 15),
    ]
    for id_, brute, expect in anchors:
        ok = ok and brute.numerator * pow(brute.denominator, -1, 25) % 25 == expect
        ok = ok and next(r for r in quarter_reports[id_] if r.p == 5).lhs == expect
    _line(2, ok, "half-range weighted central-square sums match their "
                 "quadratic-form values mod p^2, p <= 10^4, with mod-25 anchors")


@pytest.mark.slow
def test_criterion_03_three_product_shift_sums(sweep_reports):
    parities = {
        "C1_19": lambda p: (1 + legendre_symbol(p, 3)) // 2,
        "C1_20": lambda p: (1 + legendre_symbol(-2, p)) // 2,
        "C1_21": lambda p: (1 + legendre_symbol(-1, p)) // 2,
    }
    ok = all(
        len(sweep_reports[i]) == sum(_qualifying(p, parity(p)) for p in PRIMES_5K)
        and all(r.status == "pass" and r.rhs == 0 for r in sweep_reports[i])
        for i, parity in parities.items()
    )
    conditions = {
        "C1_22": lambda p: p % 8 == 3,
        "C1_23": lambda p: p % 12 == 5,
        "C1_24": lambda p: p % 3 == 1,
        "C1_25": lambda p: p % 8 in (1, 3),
        "C1_26": lambda p: p % 4 == 1,
    }
    for i, cond in conditions.items():
        ok = ok and len(sweep_reports[i]) == len(PRIMES_5K) and all(
            r.status == ("pass" if cond(r.p) else "skipped") for r in sweep_reports[i]
        )
    _line(3, ok, "three-product shift sums vanish mod p^2 for every "
                 "qualifying shift and fixed-shift variant, p <= 5000")


def test_criterion_04_eta_expansion_backs_product_rows():
    primes = primes_in_range(5, 499)
    tables = {name: coefficient_table(name, 512) for name in "abc"}
    ok = tables["a"][5] == -6 and tables["b"][7] == 2 and tables["c"][3] == -2
    for name in "abc":
        ok = ok and all(
            tables[name][p] == coefficient_closed_form(name, p) for p in primes
        )
    reports = _by_id(run_suite(primes, ["C1_14b", "C1_14c", "C1_15"]))
    rhs_from_series = {
        "C1_14b": lambda p: tables["b"][p] % (p * p),
        "C1_14c": lambda p: tables["c"][p] % (p * p),
        "C1_15": lambda p: legendre_symbol(p, 3) * tables["a"][p] % (p * p),
    }
    for id_, rhs in rhs_from_series.items():
        ok = ok and len(reports[id_]) == len(primes) and all(
            r.status == "pass" and r.rhs == rhs(r.p) for r in reports[id_]
        )
    _line(4, ok, "series coefficients of the three eta products equal their "
                 "quadratic-form closed forms and supply passing rhs values, p <= 499")


def test_criterion_05_cube_modulus_rows():
    primes = primes_in_range(5, 2000)
    reports = run_suite(primes, ["CL3_2", "CL3_3", "CGZ"])
    ok = len(reports) == 7 * len(primes) and all(
        r.status == "pass" and r.modulus == r.p**3 for r in reports
    )
    _line(5, ok, "double-sum rows and the weighted cubed-central chain "
                 "hold mod p^3, p <= 2000")


@pytest.mark.slow
def test_criterion_06_classical_binomial_rows(quarter_reports):
    conditions = {
        "C3_2": lambda p: p % 4 == 1,
        "C3_3": lambda p: p % 4 == 1,
        "C3_4": lambda p: p % 4 == 1,
        "C3_5": lambda p: True,
        "CR3_1": lambda p: p % 4 == 3,
        "CG": lambda p: p % 4 == 1,
        "CM": lambda p: p % 12 == 5,
    }
    ok = True
    for i, cond in conditions.items():
        ok = ok and len(quarter_reports[i]) == len(PRIMES_10K) and all(
            r.status == ("pass" if cond(r.p) else "skipped") for r in quarter_reports[i]
        )
    anchor = next(r for r in quarter_reports["CM"] if r.p == 17)
    ok = ok and anchor.lhs == anchor.rhs == comb(8, 4) % 17 == 2
    _line(6, ok, "classical central/quarter-binomial rows hold mod p^2 "
                 "(mod p where stated), p <= 10^4, with the p=17 anchor")


def test_criterion_07_cubic_transformation_row():
    primes = primes_in_range(5, 2000)
    reports = run_suite(primes, ["C4_1"])
    xs = [r.params for r in reports[:4]]
    ok = (
        len(reports) == 4 * len(primes)
        and xs == ["x=1", "x=2", "x=3", "x=-2"]
        and all(r.status == "pass" and r.modulus == r.p for r in reports)
    )
    _line(7, ok, "cubic transformation between cubed-central and "
                 "three-product sums holds mod p at x in {1,2,3,-2}, p <= 2000")


def test_criterion_08_identity_suites():
    records = run_identity_suite()
    ok = [r.name for r in records] == list(SUITES) and all(
        r.status == "pass" and r.checks > 0 for r in records
    )
    # the two hand anchors the suites rely on
    ok = ok and sum(
        comb(2 * k, k) ** 2 * comb(2 * (1 - k), 1 - k) ** 2 for k in range(2)
    ) == 8
    ok = ok and comb(0, 0) ** 2 * comb(0, 0) ** 2 == 1
    _line(8, ok, "all exact identity suites pass at their default bounds")


def test_criterion_09_experimental_rows():
    primes = primes_in_range(5, 500)
    reports = run_suite(primes, ["CR1_1", "CGZ_P4"])
    ok = len(reports) == 2 * len(primes) and not any(r.failed for r in reports)
    for r in reports:
        if r.id == "CR1_1":
            want = r.p ** (3 if r.p % 4 == 1 else 2)
        else:
            want = r.p**4
        ok = ok and r.status == "experimental-pass" and r.modulus == want
    _line(9, ok, "conjectural rows report experimental-pass (never a build "
                 "failure), p <= 500")


def test_criterion_10_engine_properties():
    ok = True
    # table binomials against an additive Pascal oracle, mod p^2
    for p in (2, 3, 5, 7, 11, 13):
        pk = p * p
        tables = FactorialTables(p, 2, 4000)
        row = [1]
        for n in range(2001):
            got = [tables.binomial(n, r) for r in range(n + 1)]
            if got != row:
                ok = False
                break
            row = [1] + [(row[i] + row[i + 1]) % pk for i in range(n)] + [1]
        if not ok:
            break
    # carry-count valuation against direct division
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(501):
            for r in range(n + 1):
                c, v = comb(n, r), 0
                while c % p == 0:
                    c //= p
                    v += 1
                if binomial_valuation(n, r, p) != v:
                    ok = False
    # representation exactness, normalization and existence law
    laws = {
        1: lambda p: p % 4 == 1,
        2: lambda p: p % 8 in (1, 3),
        3: lambda p: p % 3 == 1,
        7: lambda p: legendre_symbol(-7, p) == 1,
    }
    for d, law in laws.items():
        for p in PRIMES_10K:
            if p == d:
                continue
            rep = represent(p, d)
            if (rep is not None) != law(p):
                ok = False
            elif rep is not None:
                ok = ok and rep.x**2 + d * rep.y**2 == p
                if d == 1:
                    ok = ok and rep.x % 4 == 1 and rep.y % 2 == 0 and rep.y >= 0
                else:
                    ok = ok and rep.x > 0 and rep.y >= 0
    # parallel runs reproduce the serial report stream exactly
    primes = primes_in_range(5, 200)
    ok = ok and run_suite(primes, jobs=1) == run_suite(primes, jobs=2)
    _line(10, ok, "table binomials, carry valuations, quadratic "
                  "representations and parallel runs all check out")
