"""Congruence registry checks against independent brute-force evaluation.

Every row family is recomputed here from literal binomial sums (exact
Fraction arithmetic, math.comb), then compared with the engine's residues.
The batched suite path is additionally pinned against the reference path.
"""

import gc
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
from collections import deque
from fractions import Fraction
from functools import partial
from math import comb

import pytest

from binomsums import _sweeps, arith, cli, congruences
from binomsums.arith import FactorialTables, legendre_symbol, mod_inverse, primes_in_range
from binomsums.congruences import (
    EVERY,
    CongruenceReport,
    PrimeContext,
    RowSpec,
    Shift,
    Sum,
    _holds,
    _reference_shift_sum,
    _REGISTRY,
    _ROW_INDEX,
    all_ids,
    check,
    default_ids,
    iter_suite,
    registry,
    run_suite,
)
from binomsums.sequences import delannoy_poly, schroder_poly
from oracles import Index, summand_residues


def fm(fr, m):
    """A rational with p-coprime denominator reduced mod m."""
    fr = Fraction(fr)
    return fr.numerator * mod_inverse(fr.denominator % m, m) % m


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def assert_row(id_, p, param, brute, mod):
    r = check(id_, p, param)
    assert r.modulus == mod
    assert r.status in ("pass", "experimental-pass"), (id_, p, param, r)
    assert r.lhs == fm(brute, mod), (id_, p, param)


def test_cubed_central_sum_rows():
    for p in (5, 11, 13, 29):
        s = sum(Fraction(comb(2 * k, k) ** 3) for k in range(p))
        assert_row("C1_1", p, None, s, p * p)
    for p in (5, 7, 11, 13, 17):
        s = sum(Fraction(comb(2 * k, k) ** 3, (-8) ** k) for k in range(p))
        assert_row("C3_5", p, None, s, p * p)
    for p in (5, 7, 11, 13):
        s = sum(Fraction((3 * k + 1) * comb(2 * k, k) ** 3, (-8) ** k) for k in range(p))
        assert_row("CGZ", p, None, s, p**3)
        assert_row("CGZ_P4", p, None, s, p**4)


def test_transformation_row_both_sides():
    # both sides mod p^K for K = 1..4, by the reference path and the suite
    for p in primes_in_range(5, 59):
        sides = {}
        for x in (1, 2, 3, -2):
            lhs = sum(Fraction(comb(2 * k, k) ** 3 * (-x) ** k, 64**k) for k in range(p))
            rhs = legendre_symbol(x + 1, p) * sum(
                Fraction(comb(2 * k, k) ** 2 * comb(4 * k, 2 * k))
                * Fraction(x, 64 * (x + 1) ** 2) ** k
                for k in range(p)
            )
            sides[x] = lhs, rhs
        for kexp in (1, 2, 3, 4):
            mod = p**kexp
            suite = run_suite([p], ["C4_1"], mod_exp={"C4_1": kexp})
            assert [r.params for r in suite] == ["x=1", "x=2", "x=3", "x=-2"]
            for (x, (lhs, rhs)), s in zip(sides.items(), suite):
                r = check("C4_1", p, x, mod_exp=kexp)
                assert r == s, (p, kexp, x)
                assert r.modulus == mod, (p, kexp, x)
                assert (r.lhs, r.rhs) == (fm(lhs, mod), fm(rhs, mod)), (p, kexp, x)
                assert kexp > 1 or r.status == "pass", (p, x)  # the row is stated mod p


def test_half_range_weighted_rows():
    for p in (5, 13, 17, 29):
        n = (p - 1) // 2
        c2 = lambda k: comb(2 * k, k) ** 2
        assert_row("C1_7a", p, None,
                   sum(Fraction((k + 1) * c2(k), 8**k) for k in range(n + 1)), p * p)
        assert_row("C1_7b", p, None,
                   sum(Fraction((2 * k + 1) * c2(k), (-16) ** k) for k in range(n + 1)), p * p)
        assert_row("C1_8", p, None,
                   sum(Fraction(comb(2 * k, k) * catalan(k), 8**k) for k in range(n + 1)), p * p)
        assert_row("C1_10", p, None,
                   sum(Fraction(k * k * c2(k), 8**k) for k in range(n + 1)), p * p)
        assert_row("C1_11", p, None,
                   sum(Fraction(k * k * c2(k), (-16) ** k) for k in range(n + 1)), p * p)
        assert_row("C3_3", p, None,
                   sum(Fraction(c2(k), 8**k) for k in range(n + 1)), p * p)
        assert check("C1_9", p).status == "pass"


def test_anchor_values_at_smallest_prime():
    # mod 25 residues recomputed by hand from the defining sums
    assert check("C1_7a", 5).lhs == 24
    assert check("C1_12", 5).lhs == 8
    assert check("C1_13", 5).lhs == 15
    assert check("C1_8", 5).lhs == 3
    assert check("C1_8", 5).rhs == 3


def test_shifted_family_rows_bruteforce():
    terms = {
        "C1_5": (64, lambda k, d: comb(2 * k, k) ** 2 * comb(2 * k, k + d)),
        "C1_19": (108, lambda k, d: comb(2 * k, k) * comb(3 * k, k) * comb(2 * k, k + d)),
        "C1_20": (256, lambda k, d: comb(2 * k, k) * comb(4 * k, 2 * k) * comb(2 * k, k + d)),
        "C1_21": (1728, lambda k, d: comb(3 * k, k) * comb(6 * k, 3 * k) * comb(2 * k, k + d)),
    }
    parity = {
        "C1_5": lambda p: (p + 1) // 2,
        "C1_19": lambda p: (1 + legendre_symbol(p, 3)) // 2,
        "C1_20": lambda p: (1 + legendre_symbol(-2, p)) // 2,
        "C1_21": lambda p: (1 + legendre_symbol(-1, p)) // 2,
    }
    for p in (11, 13):
        for id_, (base, term) in terms.items():
            for d in range(parity[id_](p) % 2, p, 2):
                s = sum(Fraction(term(k, d), base**k) for k in range(p))
                assert_row(id_, p, d, s, p * p)


def test_fixed_shift_rows_bruteforce():
    c2 = lambda k: comb(2 * k, k)
    for p in (7, 11, 19):
        assert_row("C1_6", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(2 * k, k + 1), 64**k) for k in range(p)), p * p)
    for p in (5, 13, 17):
        assert_row("C1_12", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(2 * k, k + 1), (-8) ** k) for k in range(p)), p * p)
        assert_row("C1_13", p, None,
                   sum(Fraction(c2(k) * comb(2 * k, k + 1) ** 2, (-8) ** k) for k in range(p)), p * p)
    for p in (5, 7, 11, 13):
        assert_row("C1_14b", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(3 * k, k), 108**k) for k in range(p)), p * p)
        assert_row("C1_14c", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(4 * k, 2 * k), 256**k) for k in range(p)), p * p)
        assert_row("C1_15", p, None,
                   sum(Fraction(c2(k) * comb(3 * k, k) * comb(6 * k, 3 * k), 1728**k) for k in range(p)), p * p)
    for p in (11, 19, 43):
        assert_row("C1_22", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(4 * k, 2 * k), 256**k) for k in range(p)), p * p)
    for p in (5, 17, 29):
        assert_row("C1_23", p, None,
                   sum(Fraction(c2(k) * comb(3 * k, k) * comb(6 * k, 3 * k), 1728**k) for k in range(p)), p * p)
    for p in (7, 13, 31):
        assert_row("C1_24", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(3 * k, k + 1), 108**k) for k in range(p)), p * p)
    for p in (11, 17, 41):
        assert_row("C1_25", p, None,
                   sum(Fraction(c2(k) * comb(4 * k, 2 * k) * comb(2 * k, k + 1), 256**k) for k in range(p)), p * p)
    for p in (5, 13, 29):
        assert_row("C1_26", p, None,
                   sum(Fraction(comb(3 * k, k) * comb(6 * k, 3 * k) * comb(2 * k, k + 1), 1728**k) for k in range(p)), p * p)


def test_double_sum_rows_bruteforce():
    for p in (5, 7, 11):
        inner = lambda m: sum(
            comb(2 * k, k) ** 2 * comb(2 * (m - k), m - k) ** 2 for k in range(m + 1)
        )
        s1 = sum(Fraction((m + 1) * inner(m), 8**m) for m in range(p))
        s2 = sum(Fraction((2 * m + 1) * inner(m), (-16) ** m) for m in range(p))
        assert_row("CL3_2", p, 1, s1, p**3)
        assert_row("CL3_2", p, 2, s2, p**3)
    for p in (5, 7, 11, 13):
        n = (p - 1) // 2
        c2 = lambda k: comb(2 * k, k) ** 2
        p1 = 2 * sum(Fraction(k * c2(k), 8**k) for k in range(n + 1)) + sum(
            Fraction(comb(2 * k, k) * catalan(k), 8**k) for k in range(n + 1))
        p2 = 8 * sum(Fraction(k * c2(k), (-16) ** k) for k in range(n + 1)) + sum(
            Fraction(comb(2 * k, k) * catalan(k), (-16) ** k) for k in range(n + 1))
        p3 = sum(Fraction((2 * k * k + 4 * k + 1) * c2(k), 8**k) for k in range(n + 1))
        p4 = sum(Fraction((8 * k * k + 4 * k + 1) * c2(k), (-16) ** k) for k in range(n + 1))
        for part, s in ((1, p1), (2, p2), (3, p3), (4, p4)):
            assert_row("CL3_3", p, part, s, p**3)
    # the two weighted forms at p = 5 collapse to 3 p^2 and 2 p^2 mod p^3
    assert check("CL3_3", 5, 1).lhs == 75
    assert check("CL3_3", 5, 2).lhs == 50


def test_cl3_2_equals_the_literal_double_sum():
    # CL3_2 reads the double sum from the half-range moments and, for i or j
    # past (p-1)/2, from C(2i,i)^2 / p^2 one exponent lower; pin its lhs to the
    # literal double sum over i + j < p at every modulus exponent 1..5
    for p in primes_in_range(5, 59):
        c2 = [comb(2 * k, k) ** 2 for k in range(p)]
        for part, base, s in ((1, 8, 1), (2, -16, 2)):
            total = sum(
                Fraction((s * (i + j) + 1) * c2[i] * c2[j], base ** (i + j))
                for i in range(p) for j in range(p - i)
            )
            for kexp in (1, 2, 3, 4, 5):
                r = check("CL3_2", p, part, mod_exp=kexp)
                assert r.lhs == fm(total, p**kexp), (p, part, kexp)


def test_combined_experimental_row():
    for p in (5, 13, 7, 11):
        n = (p - 1) // 2
        s = sum(Fraction((k + 1) * comb(2 * k, k) ** 2, 8**k) for k in range(p)) + sum(
            Fraction((2 * k + 1) * comb(2 * k, k) ** 2, (-16) ** k) for k in range(n + 1)
        )
        mod = p**3 if p % 4 == 1 else p * p
        r = check("CR1_1", p)
        assert r.modulus == mod
        assert r.status == "experimental-pass"
        assert r.lhs == fm(s, mod)


def test_euler_correction_term():
    # p = 5: rhs = 5*(-1|5) + 125*(E_2 mod 5) = 5 + 125*4 = 505 mod 625
    r = check("CGZ_P4", 5)
    assert r.rhs == 505
    assert r.status == "experimental-pass"


def test_binomial_value_rows():
    for p in (13, 17):
        n = (p - 1) // 2
        for k in range(n + 1):
            assert_row("C1_2", p, k, Fraction(comb(n + k, 2 * k)), p * p)
    for p in (5, 13, 17, 29):
        assert_row("C3_2", p, None, Fraction(comb((p - 1) // 2, (p - 1) // 4)), p * p)
        assert_row("CG", p, None, Fraction(comb((p - 1) // 2, (p - 1) // 4)), p)
    assert check("CG", 13).lhs == 7  # x normalized to -3 for 13 = 9 + 4
    assert check("CM", 17).lhs == 2
    for p in (5, 17, 29, 41):
        assert_row("CM", p, None, Fraction(comb((p - 1) // 2, (p - 1) // 4)), p)
    for p in (5, 7, 11, 13, 17, 19):
        n = (p - 1) // 2
        s = legendre_symbol(-1, p) * sum(
            comb(n, k) ** 2 * comb(n + k, k) * (-1) ** k for k in range(n + 1)
        )
        assert_row("C_AHL", p, None, Fraction(s), p)


def test_delannoy_rows():
    for p in (5, 13, 17, 29):
        assert check("C3_4", p).status == "pass"
    for p in (7, 11, 19, 23):
        r = check("CR3_1", p)
        assert r.status == "pass" and r.modulus == p
    # cross-check: sum of C(2k,k)^3/(-8)^k matches the square of the central
    # Delannoy number at (p-1)/2 mod p^2
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        ctx = PrimeContext(p)
        dn = congruences._DELANNOY(ctx, 2, None)
        assert ctx.moment(2, Sum(-8, 3), 0) == dn * dn % (p * p)


def test_delannoy_and_c1_2_terms_equal_their_exact_values():
    # D_n, S_n and C1_2's two columns are read from the term engine
    (lhs,), rhs = _REGISTRY[_ROW_INDEX["C1_2"]].statement
    for p in primes_in_range(5, 59):
        n, ks = (p - 1) // 2, range((p + 1) // 2)
        for kexp in (1, 2, 3, 4):
            m, ctx = p**kexp, PrimeContext(p)
            assert congruences._DELANNOY(ctx, kexp, None) == delannoy_poly(n, 1) % m, (p, kexp)
            assert congruences._SCHRODER(ctx, kexp, None) == schroder_poly(n, 1) % m, (p, kexp)
            assert lhs.column(ctx, kexp, ks) == [comb(n + k, 2 * k) % m for k in ks], (p, kexp)
            assert rhs.column(ctx, kexp, ks) == [
                fm(Fraction(comb(2 * k, k), (-16) ** k), m) for k in ks], (p, kexp)
            assert [lhs(ctx, kexp, k) for k in ks] == lhs.column(ctx, kexp, ks), (p, kexp)


_OUT_OF_RANGE_CODE = """
from binomsums.congruences import _REGISTRY, _ROW_INDEX, PrimeContext
(lhs,), rhs = _REGISTRY[_ROW_INDEX["C1_2"]].statement
for term, values in ((lhs, range(8)), (rhs, range(6, 8)), (lhs, range(-1, 1))):
    try:
        term.column(PrimeContext(13), 2, values)
    except ValueError as exc:
        print(exc)
try:
    rhs(PrimeContext(13), 2, 7)
except ValueError as exc:
    print(exc)
"""


def test_a_shift_column_reads_one_parity_of_a_free_shift():
    ctx = PrimeContext(13)
    want = [_reference_shift_sum(PrimeContext(13), 64, d, 2) for d in (1, 3, 5)]
    assert Shift(64).column(ctx, 2, range(1, 7, 2)) == want
    text = "a shift column reads the shifts of one parity, a range of step 2"
    for shift, values in ((Shift(64), range(0, 6)), (Shift(64), range(0, 12, 4)),
                          (Shift(64, 1), range(1, 7, 2))):
        with pytest.raises(ValueError, match=f"^{text}$"):
            shift.column(ctx, 2, values)


def test_a_column_slice_past_the_summand_raises_also_under_O():
    # at p = 13 C1_2's summands run over k = 0..6
    (lhs,), rhs = _REGISTRY[_ROW_INDEX["C1_2"]].statement
    for term, values in ((lhs, range(8)), (rhs, range(6, 8)), (lhs, range(-1, 1))):
        with pytest.raises(ValueError, match=re.escape(f"some k of {values} mod p^2")):
            term.column(PrimeContext(13), 2, values)
    with pytest.raises(ValueError, match=re.escape("some k of range(7, 8)")):
        rhs(PrimeContext(13), 2, 7)
    r = subprocess.run([sys.executable, "-O", "-c", _OUT_OF_RANGE_CODE],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 4 and all(line.endswith("mod p^2") for line in lines), r.stdout


def test_suite_matches_reference_path():
    reports = run_suite([29, 31, 37, 41, 43], all_ids())
    assert reports and all(
        r.status in ("pass", "experimental-pass", "skipped") for r in reports
    )
    for r in reports:
        if r.status == "skipped":
            continue
        param = int(r.params.split("=")[1]) if r.params else None
        ref = check(r.id, r.p, param)
        assert (ref.lhs, ref.rhs, ref.status, ref.modulus) == (
            r.lhs, r.rhs, r.status, r.modulus,
        ), (r.id, r.p, r.params)


def test_sweep_matches_reference_all_shifts():
    # every residue class mod 24 and every reseed point of the step relations
    for p in primes_in_range(5, 99):
        for kexp in (1, 2, 3, 4):
            ctx = PrimeContext(p)
            for base in (64, 108, 256, 1728):
                for d in range(p):
                    assert ctx.chain(base, d % 2, kexp)[d // 2] == _reference_shift_sum(
                        ctx, base, d, kexp), (p, kexp, base, d)


class _DoubledEntry(list):
    """A table list whose entry ``at`` reads doubled mod ``pk`` when indexed
    on its own; slices, which the direct sums read, see the true entries."""

    def __init__(self, values, at, pk):
        super().__init__(values)
        self.at, self.pk = at, pk

    def __getitem__(self, i):
        value = super().__getitem__(i)
        return 2 * value % self.pk if i == self.at else value


def test_shift_engine_catches_a_corrupted_step():
    # the step d -> d+2 divides by c(d+1) = m1 * m2 through
    # 1/m1 = inv_unit[m1] * unit[m1-1]; no other step, relation check or
    # direct sum reads unit[m1-1] on its own, so doubling it corrupts this
    # one step: S(d+2) comes out off by (2 or 4 - 1) * S(d+2), not 0 mod p^K
    rng = random.Random(20101)
    for p in (13, 29, 101):
        ctx = PrimeContext(p)
        for kexp in (1, 2, 3):
            columns = {d: ctx.shift_column(d, kexp) for d in (0, 1, ctx.n)}
            for base, fam in _sweeps.SHIFT_FAMILIES.items():
                tables = ctx.tables(kexp, fam.step * p)
                weights = ctx.weights(base, kexp)
                chains = [_sweeps.shift_chain(p, base, weights, tables, columns, q) for q in (0, 1)]
                good = [chains[d % 2][d // 2] for d in range(p)]
                roots = {x for x in range(p) if fam.coeff(x) % p == 0}
                steps = [d for d in range(p - 2)
                         if good[d] and good[d + 2] and not {d, d + 1} & roots]
                d = rng.choice(steps)
                m1 = fam.step * (d + 1) + fam.offsets[0]
                bent = FactorialTables(p, kexp, tables.limit)
                bent.unit = _DoubledEntry(bent.unit, m1 - 1, bent.pk)
                with pytest.raises(ArithmeticError, match=rf"p={p}, base={base}, d=\d+, K={kexp}"):
                    _sweeps.shift_chain(p, base, weights, bent, columns, d % 2)
                for q in (0, 1):
                    assert _sweeps.shift_chain(p, base, weights, tables, columns, q) == chains[q]


def test_shift_engine_spot_check_catches_bad_seed(monkeypatch):
    # the seeds S(0) and S(1) are read from the shared columns
    seed_sum = _sweeps.column_shift_sum
    bad = {"seed": 0}

    def corrupt_seed(weights, d, column, pk):
        s = seed_sum(weights, d, column, pk)
        return (s + 1) % pk if d == bad["seed"] else s

    monkeypatch.setattr(_sweeps, "column_shift_sum", corrupt_seed)
    # the even chain from S(0) reaches S((p-1)/2) = S(6) before any reseed
    with pytest.raises(ArithmeticError, match=r"p=13, base=64, d=6, K=2"):
        PrimeContext(13).chain(64, 0, 2)
    # a wrong S(0) or S(1) is caught whether its chain is re-summed at a
    # reseed, or multiplied by a coefficient c(x) divisible by p, first
    for seed in (0, 1):
        bad["seed"] = seed
        for p in (13, 17, 29, 31, 37):
            for kexp in (1, 2, 3):
                for base in (64, 108, 256, 1728):
                    with pytest.raises(
                        ArithmeticError, match=rf"p={p}, base={base}, d=\d+, K={kexp}"
                    ):
                        PrimeContext(p).chain(base, seed, kexp)


def test_tail_invariants_raise_with_stream_p_and_k(monkeypatch):
    # C(2k,k)^c valuations that are all 0 break v_p(C(2k,k)^2) >= 2 at the
    # first tail index k = (p+1)/2 in every stream built on them
    monkeypatch.setattr(PrimeContext, "valuations", lambda self, c, kexp: [0] * self.p)
    p = 13
    # (summand label, row named by check or None, call)
    cases = [
        ("C(2k,k)^2/8^k", None, lambda c: c.moment(2, Sum(8, 2), 1)),
        ("C(2k,k)^3/-8^k", None, lambda c: c.moment(2, Sum(-8, 3), 0)),
        ("C(2k,k)^2/64^k", None, lambda c: _reference_shift_sum(c, 64, 1, 2)),
        ("C(2k,k)^3/-8^k", "C1_12", lambda c: check("C1_12", p)),
        ("C(2k,k)^2/108^k", "C1_24", lambda c: check("C1_24", p)),
        ("C(2k,k)^3/1^k", "C4_1", lambda c: check("C4_1", p, 1)),
    ]
    for stream, row, call in cases:
        where = rf" \(row={row}, p={p}\)" if row else ""
        message = rf"^{re.escape(stream)}: .* at p={p}, k=7{where}$"
        with pytest.raises(ArithmeticError, match=message):
            call(PrimeContext(p))


def test_tail_invariants_survive_optimize_flag():
    code = (
        "from binomsums.congruences import PrimeContext, Sum\n"
        "PrimeContext.valuations = lambda self, c, K: [0] * self.p\n"
        "try:\n"
        "    PrimeContext(13).moment(2, Sum(-8, 3), 0)\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "C(2k,k)^3/-8^k" in r.stdout and "p=13, k=7" in r.stdout


def test_cl3_2_raises_on_an_upper_valuation_other_than_2(monkeypatch):
    # by Kummer's theorem C(2i,i)^2 / base^i has valuation exactly 2 for
    # (p-1)/2 < i < p, which CL3_2's upper half reads as p^2 times a unit; a
    # C(2k,k)^c valuation list bent at one such i, to 2c, makes it raise,
    # naming the power, p and i, in both paths
    valuations = PrimeContext.valuations

    def bent(self, c, kexp):
        vals = valuations(self, c, kexp)
        return [*vals[:9], 2 * c, *vals[10:]]

    monkeypatch.setattr(PrimeContext, "valuations", bent)
    for part, power in ((1, "C(2k,k)^2/8^k"), (2, "C(2k,k)^2/-16^k")):
        message = rf"^{re.escape(power)}: valuation 4 != 2 at p=13, k=9 \(row=CL3_2, p=13\)$"
        with pytest.raises(ArithmeticError, match=message):
            check("CL3_2", 13, part)
    with pytest.raises(ArithmeticError, match=r"/8\^k: valuation 4 != 2 at p=13, k=9 \(row=CL3_2"):
        run_suite([13], ["CL3_2"])
    # mod p^2 the upper half is 0 and is not read
    assert run_suite([13], ["CL3_2"], mod_exp={"CL3_2": 2}) == [
        check("CL3_2", 13, part, mod_exp=2) for part in (1, 2)]


def test_cl3_2_upper_valuation_check_survives_optimize_flag():
    code = (
        "from binomsums.congruences import PrimeContext, check\n"
        "valuations = PrimeContext.valuations\n"
        "def bent(self, c, K):\n"
        "    vals = valuations(self, c, K)\n"
        "    return [*vals[:9], 0, *vals[10:]]\n"
        "PrimeContext.valuations = bent\n"
        "try:\n"
        "    check('CL3_2', 13, 1)\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "C(2k,k)^2/8^k: valuation 0 != 2 at p=13, k=9 (row=CL3_2, p=13)\n"


def _legendre(n, p):
    """v_p(n!) = sum_j floor(n / p^j)."""
    return n // p + _legendre(n // p, p) if n else 0


def every_summand():
    """Every summand the registry and the shift families read, by key: the registry's
    ``Sum`` terms (D_n and S_n among them), the summands of its ``Terms`` (C1_2's two),
    those its function members read (CL3_2's, C4_1's and C_AHL's) and the family weights."""
    terms = [t for row in registry() for t in row.terms]
    sums = [t for t in terms if isinstance(t, Sum)]
    sums += [t.summand for t in terms if isinstance(t, congruences.Terms)]
    sums += [*congruences._MEMBER_SUMS, *congruences._FAMILY.values()]
    return {s.key: s for s in sums}


def test_every_summand_is_a_constant():
    # the factors that read n = (p-1)/2 are declared, not built per prime: every
    # summand hashes, and the cache keys it leaves are the same at every prime
    sums = every_summand()
    assert all(type(s) is Sum for s in sums.values())
    assert set(sums) == set(congruences._SUMMANDS)
    assert {s.key for s in sums.values() if s.n_factors} == {
        s.key for s in (congruences._DELANNOY, congruences._SCHRODER, congruences._AHL,
                        congruences._C1_2[0])}
    assert congruences._SHARED_POWERS == {(-16, 2), (-8, 3), (8, 2)}
    for s in sums.values():
        hash(s)
        keys = set()
        for p in (5, 7, 13, 31):
            ctx = PrimeContext(p)
            ctx.moment(2, s, 0)
            keys.add(frozenset(k for k in ctx._cache if k[0] in ("summand", "moment")))
        assert keys == {frozenset({("summand", s.key, 2), ("moment", s.key, 0, 2)})}, s


def test_cutoff_is_the_last_term_below_the_exponent():
    # every summand the package reads: the registry's, those of its columns and
    # function members, the four family weights, C(2k,k) and C(2k,k+d) at d = 1
    # and (p-1)/2, D_n, S_n, C1_2's and C_AHL's read at p through ``Sum.at``; the
    # exact valuation of each term by Legendre's formula, with no factorial table
    sums = every_summand()
    sums[congruences._CENTRAL.key] = congruences._CENTRAL
    for p in primes_in_range(5, 59):
        n = (p - 1) // 2
        shifted = [Sum(1, 0, factors=congruences._shifted(d), lo=d) for d in (1, n)]
        for s in (*sums.values(), *shifted):
            factors = ((2, 0, s.central), (1, 0, -2 * s.central), *s.at(p).factors)
            vals = [sum(e * _legendre(a * k + b, p) for a, b, e in factors)
                    for k in range(s.lo, (n if s.half else p - 1) + 1)]
            for kexp in (1, 2, 3, 4):
                live = [s.lo + i for i, v in enumerate(vals) if v < kexp]
                assert s.cutoff(p, kexp) == (live[-1] if live else s.lo - 1), (p, kexp, s)


_LOWERED_6K_CODE = """
from binomsums.congruences import PrimeContext
ctx = PrimeContext(13)
ctx.tables(2, 6 * 13).val[6 * 11] -= 1
try:
    ctx.weights(1728, 2)
except ArithmeticError as exc:
    print(exc)
"""


def test_a_dead_tail_below_its_exponent_raises_past_the_1728_cutoff():
    # the 1728 weight (6k)!/(k! (2k)! (3k)!) has v_p = 2 for 5p/6 < k < p, so at
    # p = 13 it ends at k = 10 mod p^2; one (6k)! valuation lowered at k = 11
    # leaves a tail term of valuation 1, which the kernel must not drop unread
    assert congruences._FAMILY[1728].cutoff(13, 2) == 10
    message = ("(3k+0)!^-1 (1k+0)!^-1 (2k+0)!^-1 (6k+0)!^1/1728^k: "
               "tail valuation 1 < 2 at p=13, k=11")
    ctx = PrimeContext(13)
    ctx.tables(2, 6 * 13).val[6 * 11] -= 1
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        ctx.weights(1728, 2)
    r = subprocess.run([sys.executable, "-O", "-c", _LOWERED_6K_CODE],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == message


def test_residues_reject_a_term_that_is_not_p_integral():
    # (k+1)!^-1 is 1/13! at k = 12: no residue mod 13^2
    code = (
        "from binomsums.congruences import PrimeContext, Sum\n"
        "try:\n"
        "    PrimeContext(13).summand(2, Sum(1, 0, factors=((1, 1, -1),)))\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    message = "(1k+1)!^-1/1^k: valuation -1 < 0, not p-integral, at p=13, k=12"
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        PrimeContext(13).summand(2, Sum(1, 0, factors=((1, 1, -1),)))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == message
    # a factor that cancels its own p stays integral
    assert PrimeContext(13).summand(2, Sum(1, 0, factors=((1, 0, 1), (1, 0, -1)))) == [1] * 13


def test_kernel_matches_the_multipass_oracle():
    # every summand the package reads: the registry's, those of its columns and
    # function members, the shift families' weights and C(2k,k) itself, those
    # whose factors read n = (p-1)/2 made plain by ``Sum.at``
    sums = every_summand()
    sums[congruences._CENTRAL.key] = congruences._CENTRAL
    for p in primes_in_range(5, 59):
        n = (p - 1) // 2
        for kexp in (1, 2, 3, 4):
            ctx, ref = PrimeContext(p), PrimeContext(p)
            for s in sums.values():
                hi, plain = n if s.half else p - 1, s.at(p)
                want = summand_residues(ref, kexp, s.base, s.central, plain.factors, s.lo, hi,
                                        plain.label)
                # the kernel stops at the cutoff; the oracle's entries past it are all 0
                live = s.cutoff(p, kexp) + 1 - s.lo
                assert ctx.summand(kexp, s) == want[:live], (p, kexp, s)
                assert not any(want[live:]), (p, kexp, s)


def test_kernel_and_oracle_reject_the_same_negative_valuation():
    # (2k+1)!^-1 holds p^-1 from k = (p-1)/2, where C(2k,k) is still a unit
    s = Sum(8, 1, factors=((2, 1, -1),))
    for p in (13, 31):
        for kexp in (1, 2, 3, 4):
            with pytest.raises(ArithmeticError) as want:
                summand_residues(PrimeContext(p), kexp, 8, 1, s.factors, 0, p - 1, s.label)
            with pytest.raises(ArithmeticError) as got:
                PrimeContext(p).summand(kexp, s)
            assert str(got.value) == str(want.value), (p, kexp)
            assert str(got.value).endswith(f"at p={p}, k={(p - 1) // 2}")
    code = (
        "from binomsums.congruences import PrimeContext, Sum\n"
        "try:\n"
        "    PrimeContext(13).summand(2, Sum(8, 1, factors=((2, 1, -1),)))\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    with pytest.raises(ArithmeticError) as want:
        summand_residues(PrimeContext(13), 2, 8, 1, s.factors, 0, 12, s.label)
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == str(want.value)


def test_import_does_not_load_numpy():
    code = "import sys, binomsums, binomsums.cli; print('numpy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_import_and_verify_load_no_identity_or_eta_code(tmp_path):
    """``import binomsums`` and a ``verify`` run leave out the modules no verify
    run executes; the lazy names still resolve on first access."""

    def loaded(code, *names):
        """Which of ``names`` are in ``sys.modules`` after ``code`` in a fresh interpreter."""
        code = f"import sys; {code}; print(*set(sys.argv[1:]) & set(sys.modules))"
        r = subprocess.run([sys.executable, "-c", code, *names], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return set(r.stdout.split())

    lazy = {"binomsums.identities", "binomsums.qseries"}
    unused = lazy | {"dataclasses", "inspect"}
    eager = {"binomsums.arith", "binomsums.congruences"}
    start = loaded("pass", *unused)  # what the interpreter's own start-up loads
    assert loaded("import binomsums", *unused, *eager) == start | eager
    out = tmp_path / "verify.csv"
    argv = ["verify", "--primes", "5..30", "--format", "csv", "--out", str(out)]
    assert loaded(f"import binomsums.cli; binomsums.cli.main({argv!r})", *lazy) <= start
    assert out.read_text().startswith("id,p,params,modulus,lhs,rhs,status,micros\n")
    names = ["IdentityRecord", "run_identity_suite", "coefficient_closed_form",
             "coefficient_table", "identities.SUITES", "qseries.ETA_PRODUCTS"]
    assert loaded("import binomsums; " + "; ".join(f"binomsums.{n}" for n in names), *lazy) == lazy


def test_parallel_matches_serial():
    ps = primes_in_range(5, 60)
    ids = ["C1_5", "C1_7a", "CL3_3", "CGZ", "C4_1", "CM"]
    serial = run_suite(ps, ids)
    parallel = run_suite(ps, ids, jobs=3)
    assert serial == parallel
    # workers send plain tuples; the parent rebuilds the named tuples
    assert all(type(r) is CongruenceReport for r in parallel)


@pytest.mark.parametrize("rid", ["C1_2", "C1_5", "C1_19", "C1_20", "C1_21"])
def test_a_conjectural_table_row_reports_experimental_statuses(monkeypatch, rid):
    # the table path takes its statuses from the rule every other row follows;
    # at p^3, past the proven p^2, every one of these rows fails somewhere
    i = _ROW_INDEX[rid]
    row = _REGISTRY[i]._replace(conjectural=(4, 1))
    monkeypatch.setattr(congruences, "_REGISTRY", (*_REGISTRY[:i], row, *_REGISTRY[i + 1 :]))
    assert row.table
    reports = run_suite(primes_in_range(5, 80), [rid], mod_exp={rid: 3})
    for r in reports:
        param = int(r.params.split("=")[1])
        assert r == check(rid, r.p, param, mod_exp=3), r
        prefix = "experimental-" if r.p % 4 == 1 else ""
        assert r.status in (prefix + "pass", prefix + "fail"), r
    assert {r.status for r in reports} == {"pass", "fail", "experimental-pass",
                                           "experimental-fail"}


def test_iter_suite_streams_one_prime_at_a_time(monkeypatch):
    calls = []
    inner = congruences._suite_for_prime

    def counting(p, *args):
        calls.append(p)
        return inner(p, *args)

    monkeypatch.setattr(congruences, "_suite_for_prime", counting)
    stream = iter_suite(primes_in_range(5, 60), ["C1_5", "CGZ"])
    assert calls == []
    first = next(stream)
    assert calls == [5] and first.p == 5
    rest = list(stream)
    assert calls == primes_in_range(5, 60) and len(rest) > 1


def test_run_suite_is_the_listed_stream():
    ps = primes_in_range(5, 60)
    ids = ["C1_5", "C1_7a", "CL3_2", "CGZ", "C4_1"]
    serial = run_suite(ps, ids)
    assert serial == list(iter_suite(ps, ids))
    assert run_suite(ps, ids, jobs=2) == list(iter_suite(ps, ids, jobs=2)) == serial


class _Deferred:
    """A stand-in future: its call runs in this process when its result is taken."""

    def __init__(self, pool, call):
        self.pool, self.call = pool, call

    def result(self):
        self.pool.taken += 1
        return self.call()

    def cancel(self):
        self.pool.cancelled += 1
        return True


@pytest.fixture
def in_process_pool(monkeypatch):
    """The stand-in pools a test starts, in order: each records its size, the primes
    of each chunk submitted, and how many chunks were submitted and not yet taken
    after each submit."""
    import concurrent.futures

    pools = []

    class InProcess:
        def __init__(self, max_workers):
            self.workers, self.chunks, self.outstanding = max_workers, [], []
            self.taken = self.cancelled = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, ps, *args):
            self.chunks.append(list(ps))
            self.outstanding.append(len(self.chunks) - self.taken)
            return _Deferred(self, partial(fn, ps, *args))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    # and under the module's own name, should it ever import the pool eagerly
    monkeypatch.setattr(congruences, "ProcessPoolExecutor", InProcess, raising=False)
    return pools


@pytest.mark.parametrize("primes,jobs,workers", [
    ((5, 20), 64, 2),    # chunks 5..13 and 17..19: no more workers than chunks
    ((5, 20), 2, 2),
    ((5, 40), 8, 3),     # chunks 5..19, 23..29 and 31..37
    ((5, 180), 4, 4),    # 11 chunks, the last 179 alone
])
def test_pool_is_capped_at_its_chunks(in_process_pool, primes, jobs, workers):
    ps, ids = primes_in_range(*primes), ["C1_7a", "CGZ"]
    assert run_suite(ps, ids, jobs=jobs) == run_suite(ps, ids)
    [pool] = in_process_pool
    assert pool.workers == workers <= len(pool.chunks)


@pytest.mark.parametrize("primes,jobs,chunks", [((5, 400), 2, 21), ((5, 491), 3, 25)])
def test_pool_chunks_are_work_sized_in_a_bounded_window(in_process_pool, primes, jobs, chunks):
    ps, ids = primes_in_range(*primes), ["C1_7a", "CGZ"]
    assert run_suite(ps, ids, jobs=jobs) == run_suite(ps, ids)
    [pool] = in_process_pool
    assert [p for c in pool.chunks for p in c] == ps and len(pool.chunks) == chunks
    budget = 2 * ps[-1]
    for c in pool.chunks:  # consecutive primes summing to at most twice the largest
        assert len(c) == 1 or sum(c) <= budget
    for c, after in zip(pool.chunks, pool.chunks[1:]):  # and as many as fit
        assert sum(c) + after[0] > budget
    assert pool.workers == min(jobs, chunks)
    assert max(pool.outstanding) == 2 * pool.workers  # the window, filled and never passed
    assert pool.taken == chunks and pool.cancelled == 0


def test_a_pooled_stream_closed_early_submits_nothing_more(in_process_pool):
    ps = primes_in_range(5, 491)
    stream = iter_suite(ps, ["C1_7a"], jobs=2)
    assert next(stream).p == 5
    [pool] = in_process_pool
    submitted = len(pool.chunks)
    assert pool.taken == 1 and submitted == 2 * pool.workers + 1
    del stream  # dropped: the pool's stream is closed
    assert len(pool.chunks) == submitted and pool.taken == 1
    assert pool.cancelled == submitted - 1  # every chunk submitted and not taken
    blocks = congruences.iter_blocks(ps, ["C1_7a"], encode=len, jobs=2)
    assert next(blocks) == 1
    blocks.close()
    second = in_process_pool[1]
    assert len(second.chunks) == submitted and second.cancelled == submitted - 1


def test_a_pooled_report_stream_closed_early_cancels_the_chunks_not_started(in_process_pool):
    ps = primes_in_range(5, 491)
    stream = iter_suite(ps, ["C1_7a"], jobs=2)
    assert next(stream).p == 5
    [pool] = in_process_pool
    submitted = len(pool.chunks)
    stream.close()  # with the stream still referenced: close() itself cancels
    assert len(pool.chunks) == submitted and pool.taken == 1
    assert pool.cancelled == submitted - 1
    with pytest.raises(StopIteration):
        next(stream)


def test_a_pooled_stream_yields_the_primes_before_a_failing_one(in_process_pool, monkeypatch):
    inner = congruences._suite_for_prime

    def broken(p, *args):
        if p == 17:
            raise ZeroDivisionError("broken prime")
        return inner(p, *args)

    monkeypatch.setattr(congruences, "_suite_for_prime", broken)
    stream = congruences.iter_blocks(primes_in_range(5, 40), ["C1_7a"], jobs=2,
                                     encode=lambda blocks: blocks[0][1])
    seen = []
    with pytest.raises(ZeroDivisionError, match="^broken prime$"):
        for p in stream:
            seen.append(p)
    [pool] = in_process_pool
    assert pool.chunks[0] == [5, 7, 11, 13, 17, 19] and seen == [5, 7, 11, 13]
    assert pool.cancelled == len(pool.chunks) - 1


def _encoder_pid(reports):
    return os.getpid()


def test_iter_blocks_encodes_each_prime_in_order():
    ps, ids = primes_in_range(5, 60), ["C1_5", "C1_7a", "CGZ"]
    for jobs in (1, 2):
        blocks = list(congruences.iter_blocks(ps, ids, encode=congruences._reports, jobs=jobs))
        assert [b[0][1] for b in blocks] == ps
        assert [r for b in blocks for r in b] == list(map(tuple, run_suite(ps, ids)))
    if multiprocessing.get_start_method() == "fork":  # the workers import this module
        pids = list(congruences.iter_blocks(ps, ids, encode=_encoder_pid, jobs=2))
        assert len(pids) == len(ps) and os.getpid() not in pids  # encoded in the workers


def test_import_does_not_load_the_process_pool():
    code = ("import sys, binomsums, binomsums.cli\n"
            "binomsums.run_suite([5, 7], ['C1_7a'])\n"
            "print('concurrent.futures' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_iter_suite_rejects_bad_arguments_at_the_call():
    for kwargs in ({"ids": ["nope"]}, {"jobs": 0}, {"mod_exp": {"CGZ": 0}},
                   {"mod_exp": {"nope": 2}}):
        with pytest.raises(ValueError):
            iter_suite([13], **kwargs)  # raised before any next()


def _never(*args, **kwargs):
    raise AssertionError("a row was evaluated before the arguments were checked")


@pytest.mark.parametrize("args, kwargs, name", [
    (("C1_5", 13, True), {}, "param"),  # a bool is an int to Python, and reads as d=True
    (("C1_5", 13, 3.0), {}, "param"),
    (("C1_7a", 13), {"mod_exp": True}, "mod_exp"),  # would run at K = 1
    (("C1_7a", 13), {"mod_exp": 2.0}, "mod_exp"),
    (("C1_7a", 13.0), {}, "p"),
    (("C1_7a", True), {}, "p"),
])
def test_check_rejects_an_argument_that_is_no_integer(args, kwargs, name, monkeypatch):
    monkeypatch.setattr(congruences, "_evaluate", _never)
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "):
        check(*args, **kwargs)


@pytest.mark.parametrize("args, kwargs, name", [
    (([13, 17], ["C1_7a"]), {"jobs": True}, "jobs"),  # would run serially
    (([13], ["C1_7a"]), {"jobs": 2.0}, "jobs"),
    (([13.0], ["C1_7a"]), {}, "a prime of primes"),  # would fail deep inside, as a row error
    (([13, True], ["C1_7a"]), {}, "a prime of primes"),
    (([13], ["C1_7a"]), {"mod_exp": {"C1_7a": True}}, "mod_exp['C1_7a']"),
    (([13], ["C1_7a"]), {"mod_exp": {"C1_7a": 2.5}}, "mod_exp['C1_7a']"),
])
def test_suites_reject_an_argument_that_is_no_integer(args, kwargs, name, monkeypatch):
    monkeypatch.setattr(congruences, "_suite_for_prime", _never)
    for call in (run_suite, iter_suite, partial(congruences.iter_blocks, encode=list)):
        with pytest.raises(TypeError, match="^" + re.escape(name) + " must be an integer, got "):
            call(*args, **kwargs)  # raised at the call, before any next()


def test_integers_of_other_types_are_taken_as_ints():
    want = check("C1_5", 13, 7, mod_exp=3)
    got = check("C1_5", Index(13), Index(7), mod_exp=Index(3))
    assert got == want and type(got.p) is type(got.modulus) is int
    assert run_suite([Index(13)], ["C1_7a"]) == run_suite([13], ["C1_7a"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_row_errors_name_their_row_and_prime(monkeypatch, jobs):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched row only when forked")

    inner = congruences._evaluate

    def broken(row, ctx, kexp, v):
        if row.id != "CGZ":
            return inner(row, ctx, kexp, v)
        if ctx.p == 17:
            raise ZeroDivisionError("broken row")
        return (0,), 0

    monkeypatch.setattr(congruences, "_evaluate", broken)
    stream = iter_suite(primes_in_range(5, 30), ["C1_7a", "CGZ"], jobs=jobs)
    seen = []
    with pytest.raises(ZeroDivisionError, match=r"^broken row \(row=CGZ, p=17\)$") as err:
        for r in stream:
            seen.append(r.p)
    assert seen == [5, 5, 7, 7, 11, 11, 13, 13]  # the primes before the defect
    if jobs == 1:
        assert isinstance(err.value.__cause__, ZeroDivisionError)
        assert str(err.value.__cause__) == "broken row"
    else:  # the cause carries the worker's traceback, down to the original raise
        assert 'raise ZeroDivisionError("broken row")' in str(err.value.__cause__)


def _corrupt_seeds(*seeds):
    """``column_shift_sum`` with S(d) off by one for each d of ``seeds``."""
    seed_sum = _sweeps.column_shift_sum

    def corrupt(weights, d, column, pk):
        s = seed_sum(weights, d, column, pk)
        return (s + 1) % pk if d in seeds else s

    return corrupt


def _corrupt_column(at):
    """``PrimeContext.shift_column`` with the first entry of column ``at`` off by one."""
    column = PrimeContext.shift_column

    def corrupt(self, d, kexp):
        col = column(self, d, kexp)
        return [col[0] + 1, *col[1:]] if d == at else col

    return corrupt


def test_shift_engine_errors_name_their_row(monkeypatch):
    # at p = 13 C1_5 reads the odd chain of base 64, seeded by S(1); the chain
    # re-seeds S(7) at d = 5 (c(6) = 13^2), where the relation then fails
    monkeypatch.setattr(_sweeps, "column_shift_sum", _corrupt_seeds(1))
    with pytest.raises(ArithmeticError, match=r"p=13, base=64, d=5, K=2.*\(row=C1_5, p=13\)"):
        run_suite([13], ["C1_5"])


def test_report_is_an_immutable_named_tuple():
    r = check("CGZ", 13)
    assert isinstance(r, tuple) and CongruenceReport._fields == (
        "id", "p", "params", "modulus", "lhs", "rhs", "status", "micros")
    assert repr(r) == (
        "CongruenceReport(id='CGZ', p=13, params='', modulus=2197, "
        f"lhs={r.lhs}, rhs={r.rhs}, status='pass', micros=0)"
    )
    assert hash(r) == hash(check("CGZ", 13)) and not r.failed
    with pytest.raises(AttributeError):
        r.status = "fail"
    assert r._replace(status="fail").failed


def test_report_order_is_prime_then_registry_then_param():
    reports = run_suite([13, 11], ["C3_5", "C1_5", "C1_1"])
    assert [r.p for r in reports] == sorted(r.p for r in reports)
    for a, b in zip(reports, reports[1:]):
        if a.p == b.p:
            assert _ROW_INDEX[a.id] <= _ROW_INDEX[b.id]


def test_skip_semantics():
    assert check("C1_6", 13).status == "skipped"  # needs p = 3 (mod 4)
    assert check("CM", 13).status == "skipped"  # needs p = 5 (mod 12)
    assert check("C1_5", 13, 0).status == "skipped"  # wrong shift parity
    assert check("C1_1", 7).status == "skipped"
    r = check("CR3_1", 13)
    assert r.status == "skipped" and r.lhs is None and r.rhs is None
    # skipped rows appear in suite output too
    reports = run_suite([13], ["CR3_1"])
    assert len(reports) == 1 and reports[0].status == "skipped"


def test_status_classification():
    assert check("C1_1", 11).status == "experimental-pass"  # 11 is a square mod 7
    assert check("C1_1", 5).status == "pass"  # 5 is not, proven zero case
    assert check("CGZ", 11).status == "pass"
    assert check("CGZ_P4", 11).status == "experimental-pass"
    assert "CR1_1" not in default_ids()
    assert "CGZ_P4" not in default_ids()
    assert default_ids() == [r.id for r in registry() if r.conjectural != EVERY]


def _tupled(x):
    return tuple(map(_tupled, x)) if isinstance(x, list) else x


# the conditions each row once wrote as code, literally: the primes where it
# applies and where it is conjectural, its parameter values and its exponent
_QUARTER = {"C1_7a", "C1_7b", "C1_8", "C1_9", "C1_10", "C1_11", "C1_12", "C1_13", "C1_26",
            "C3_2", "C3_3", "C3_4", "CG"}
_APPLIES = {"C1_1": lambda p: p != 7, "C1_6": lambda p: p % 4 == 3,
            "C1_22": lambda p: p % 8 == 3, "C1_23": lambda p: p % 12 == 5,
            "C1_24": lambda p: p % 3 == 1, "C1_25": lambda p: p % 8 in (1, 3),
            "CR3_1": lambda p: p % 4 == 3, "CM": lambda p: p % 12 == 5,
            **dict.fromkeys(_QUARTER, lambda p: p % 4 == 1)}
_CONJECTURAL = {"C1_1": lambda p: p % 7 in (1, 2, 4), "CR1_1": lambda p: True,
                "CGZ_P4": lambda p: True}
_VALUES = {"C1_2": lambda p: range((p - 1) // 2 + 1),
           "C1_5": lambda p: range((p + 1) // 2 % 2, p, 2),
           "C1_19": lambda p: range((p % 3 == 1) % 2, p, 2),
           "C1_20": lambda p: range((p % 8 in (1, 3)) % 2, p, 2),
           "C1_21": lambda p: range((p % 4 == 1) % 2, p, 2),
           "CL3_2": lambda p: (1, 2), "CL3_3": lambda p: (1, 2, 3, 4),
           "C4_1": lambda p: (1, 2, 3, -2)}
_EXPONENTS = {"CR1_1": lambda p: 3 if p % 4 == 1 else 2, "CL3_2": lambda p: 3,
              "CL3_3": lambda p: 3, "CGZ": lambda p: 3, "CGZ_P4": lambda p: 4,
              **dict.fromkeys(("CR3_1", "C4_1", "CG", "CM", "C_AHL"), lambda p: 1)}


def test_row_conditions_are_data():
    # every set of primes a row names is a residue class, and its parameter
    # values are read from its statement: only the statement holds code
    assert RowSpec._fields == ("id", "modulus_exp", "description", "statement", "applies",
                               "param_name", "conjectural")
    for row in registry():
        fields = row._asdict()
        del fields["statement"]
        assert not any(map(callable, fields.values())), row.id
        loaded = json.loads(json.dumps(fields))
        assert {k: _tupled(v) for k, v in loaded.items()} == fields, row.id
        for p in primes_in_range(5, 199):
            assert _holds(row.applies, p) == _APPLIES.get(row.id, bool)(p), (row.id, p)
            assert _holds(row.conjectural, p) == _CONJECTURAL.get(row.id, lambda p: False)(p)
            assert row.values(p) == _VALUES.get(row.id, lambda p: (None,))(p), (row.id, p)
            assert row.exponent(p) == _EXPONENTS.get(row.id, lambda p: 2)(p), (row.id, p)


def test_input_validation():
    with pytest.raises(ValueError):
        check("nope", 13)
    with pytest.raises(ValueError):
        check("C1_5", 12, 0)
    with pytest.raises(ValueError):
        check("C1_5", 3, 0)
    with pytest.raises(ValueError):
        check("C1_5", 13)  # missing shift parameter
    with pytest.raises(ValueError):
        check("CGZ", 13, 1)  # parameterless row
    with pytest.raises(ValueError):
        run_suite([13], ["nope"])
    with pytest.raises(ValueError):
        run_suite([13], jobs=0)
    assert run_suite([9, 25, 4]) == []  # composites are dropped


def test_mod_exp_override():
    r = check("CGZ", 13, mod_exp=2)
    assert r.modulus == 169 and r.status == "pass"
    rs = run_suite([13], ["CGZ"], mod_exp={"CGZ": 1})
    assert rs[0].modulus == 13 and rs[0].status == "pass"
    with pytest.raises(ValueError):
        run_suite([13], ["CGZ"], mod_exp={"CGZ": 0})
    with pytest.raises(ValueError):
        run_suite([13], mod_exp={"nope": 2})


def test_large_shift_sums_vanish_termwise():
    # for d >= (p+1)/2 every term of the 64-family sum is divisible by p^2:
    # either the shifted binomial vanishes (k < d) or the squared central
    # binomial contributes valuation two (k >= d > (p-1)/2)
    p = 13
    for d in range(7, p, 2):
        for k in range(p):
            t = comb(2 * k, k) ** 2 * comb(2 * k, k + d)
            assert t * pow(mod_inverse(64, p * p), k, p * p) % (p * p) == 0
        assert check("C1_5", p, d).lhs == 0


def test_timings_flag():
    quiet = run_suite([13], ["CGZ"])
    assert quiet[0].micros == 0
    timed = run_suite([13], ["CGZ"], timings=True)
    assert timed[0].micros >= 0  # may round to zero for tiny rows
    assert quiet[0].lhs == timed[0].lhs


# a mix of strengths: K = 4 -> 3 -> 2 -> 1 reductions, and C1_5's base-64 chain
# at p^3, whose weights C1_6 reads reduced mod p^2 for its seed of the other parity
_MIXED_EXPONENTS = {"C1_7a": 3, "C1_5": 3, "CGZ": 4, "C3_4": 4, "CG": 2}


@pytest.mark.parametrize("mod_exp", [{}, _MIXED_EXPONENTS])
def test_reduced_lower_exponents_equal_fresh_builds(mod_exp):
    # alone, a row builds everything at its own exponent; in the whole suite
    # its lower exponents are read reduced from the prime's higher ones
    for p in primes_in_range(5, 59):
        whole = run_suite([p], mod_exp=mod_exp)
        for id_ in all_ids():
            alone = run_suite([p], [id_], mod_exp=mod_exp)
            assert alone == [r for r in whole if r.id == id_], (p, id_)


def test_context_reductions_equal_fresh_builds():
    def build(ctx, kexp):
        return (
            (ctx.valuations(1, kexp), ctx.power(1, 1, kexp, ctx.p)),
            (ctx.valuations(2, kexp), ctx.power(2, -16, kexp, ctx.p)),
            [ctx.moment(kexp, Sum(8, 2), j) for j in (0, 1, 2)],
            [ctx.moment(kexp, Sum(-8, 3), j) for j in (0, 1)],
            [s(ctx, kexp, None) for s in (congruences._DELANNOY, congruences._SCHRODER)],
            ctx.weights(108, kexp),
            [ctx.chain(base, q, kexp) for base in (64, 1728) for q in (0, 1)],
        )

    for p in (13, 31):
        ctx = PrimeContext(p)
        build(ctx, 4)
        for kexp in (3, 1, 2):  # from p^4, from p^3, from p^3 again
            assert build(ctx, kexp) == build(PrimeContext(p), kexp), (p, kexp)


def test_c1_2_table_row_matches_reference_path():
    for p in primes_in_range(5, 59):
        for kexp in (1, 2, 3, 4):
            suite = run_suite([p], ["C1_2"], mod_exp={"C1_2": kexp})
            ref = [check("C1_2", p, k, mod_exp=kexp) for k in range((p - 1) // 2 + 1)]
            assert suite == ref, (p, kexp)


@pytest.mark.parametrize("rid", ["C1_5", "C1_19", "C1_20", "C1_21"])
def test_shift_table_rows_match_reference_path(rid, monkeypatch):
    # the params strings start empty and grow as the primes rise
    monkeypatch.setattr(congruences, "_PARAMS", {})
    row = _REGISTRY[_ROW_INDEX[rid]]
    for p in primes_in_range(5, 59):
        for kexp in (1, 2, 3, 4):
            suite = run_suite([p], [rid], mod_exp={rid: kexp})
            ref = [check(rid, p, d, mod_exp=kexp) for d in row.values(p)]
            assert suite == ref, (p, kexp)
            assert {type(r) for r in suite} == {CongruenceReport}, (p, kexp)


def test_report_params_name_each_value_and_table_rows_share_them_across_primes():
    params = {}  # (row id, p) -> the params of its reports, in order
    for r in run_suite(primes_in_range(5, 60)):
        params.setdefault((r.id, r.p), []).append(r.params)
    for row in _REGISTRY:
        first, shared = {}, 0  # a table row's value -> its string at the first prime with it
        for p in primes_in_range(5, 60):
            if not _holds(row.applies, p):
                continue
            want = ["" if v is None else f"{row.param_name}={v}" for v in row.values(p)]
            assert params[row.id, p] == want, (row.id, p)
            if row.table:
                for v, s in zip(row.values(p), params[row.id, p]):
                    shared += v in first
                    assert first.setdefault(v, s) is s, (row.id, p, v)
        assert shared or not row.table, row.id


def test_a_short_table_column_raises(monkeypatch):
    """A table row's column shorter than its shifts raises instead of dropping reports."""
    chain = PrimeContext.chain
    monkeypatch.setattr(PrimeContext, "chain", lambda self, base, parity, kexp:
                        chain(self, base, parity, kexp)[:-1])
    with pytest.raises(ValueError, match=r"shorter .*\(row=C1_5, p=31\)$"):
        run_suite([31], ["C1_5"])


_HALFRANGE_IDS =("C1_7a", "C1_7b", "C1_8", "C1_9", "C1_10", "C1_11", "C1_12",
                  "C1_13", "C3_2", "C3_3", "C3_4", "C3_5", "CR3_1", "CG", "CM",
                  "CL3_2", "CL3_3", "CGZ")


def _growth(monkeypatch) -> dict:
    """Count, per exponent, what ``FactorialTables.grow`` does to the prime's one
    table there: {k: (table, taken, built)}, in the order the tables are made,
    with the entries of (val, unit, inv_unit) taken from the table's source and
    those built.  The valuations are shared with the source, so none is taken."""
    seen, grow = {}, FactorialTables.grow

    def counting(self, *reach):
        before = self.reaches
        grow(self, *reach)
        held = self.source.reaches if self.source else (-1, -1, -1)
        table, taken, built = seen.setdefault(self.k, (self, [0, 0, 0], [0, 0, 0]))
        assert table is self, "a second table at one exponent"
        for i, (was, now, has) in enumerate(zip(before, self.reaches, held)):
            took = i and max(0, min(now, has) - was)
            taken[i] += took
            built[i] += now - was - took

    monkeypatch.setattr(FactorialTables, "grow", counting)
    return seen


def test_one_factorial_table_per_prime(monkeypatch):
    # the top exponent builds the prime's one table from 0!; each lower exponent
    # makes its table from the one above, whose valuations it shares and whose
    # units and inverses it takes as far as that holds them and its readers
    # ask; past that each list grows in place to its own readers' furthest reach
    seen = _growth(monkeypatch)
    p = 1009
    congruences._suite_for_prime(p, _HALFRANGE_IDS, {}, False)
    assert [(k, t.source and t.source.k) for k, (t, _, _) in seen.items()] == [
        (3, None), (2, 3), (1, 2)]
    # the p^3 rows read C(2k,k) for k <= n = (p-1)/2, so (2k)! to p - 1 and
    # 1/k! to n (CL3_3's Catalan factor 1/(n+1)!), and the valuations of every
    # k < p.  CL3_2, run before CL3_3, reads C(2k,k) for every k < p at p^2:
    # that table takes the units and the inverses to n that the p^3 table then
    # holds and builds the rest, (2k)! to 2p - 2 and 1/k! to p.  The p table,
    # first read by C((p-1)/2, (p-1)/4), takes every entry it reads
    n = (p - 1) // 2
    assert {k: (t.reaches, taken, built) for k, (t, taken, built) in seen.items()} == {
        3: ((2 * p - 2, p - 1, n + 1), [0, 0, 0], [2 * p - 2, p - 1, n + 1]),
        2: ((2 * p - 2, 2 * p - 2, p), [0, p - 1, n], [0, p - 1, n + 1]),
        1: ((2 * p - 2, n, 252), [0, n, 252], [0, 0, 0])}
    for p, c in ((1009, 840), (10007, 8339)):
        n = (p - 1) // 2
        assert congruences._FAMILY[1728].cutoff(p, 2) == c
        seen.clear()
        congruences._suite_for_prime(p, tuple(default_ids()), {}, False)
        assert [(k, t.source and t.source.k) for k, (t, _, _) in seen.items()] == [
            (3, None), (2, 3), (1, 2)]
        # each list's reach at each exponent: C(2k,k) for k <= n at p^3; at p^2
        # C(2k,k) for k < p, the 1728 weights' valuations over k < p, their
        # (6k)! to the cutoff c and 1/(3k)! to c (no chain steps: every one
        # vanishes or stops at c); at p, C4_1's (4k)! whose valuations run to
        # k = p - 1 and whose terms end at (p-1)/4.
        # The valuations, one list for the prime, reach the furthest of them.
        assert {k: (t.reaches, taken, built) for k, (t, taken, built) in seen.items()} == {
            3: ((6 * p - 6, p - 1, n + 1), [0, 0, 0], [2 * p - 2, p - 1, n + 1]),
            2: ((6 * p - 6, 6 * c, 3 * c), [0, p - 1, n], [4 * p - 4, 6 * c - p + 1, 3 * c - n]),
            1: ((6 * p - 6, p - 1, n), [0, p - 1, n], [0, 0, 0])}


def test_base_powers_grow_to_their_readers_cutoffs():
    # base^-k is one list per base and exponent, as long as its furthest reader
    # asks: at p = 2003 each family's weights mod p^2 read it to their cutoff
    # (see test_the_suite_steps_only_the_chains_its_rows_read), and a power that
    # summands share, such as C(2k,k)^2/8^k, to its cutoff (p-1)/2.  A lower
    # exponent's list takes the entries its readers ask for from the list of the
    # lowest higher exponent, reduced, as far as that holds them, and builds the rest.
    p, pk = 2003, 2003**2
    ctx = PrimeContext(p)
    assert ctx.power(0, 1728, 3, 100) == [pow(1728, -k, p**3) for k in range(100)]
    assert ctx.power(0, 1728, 2, 10) == [pow(1728, -k, pk) for k in range(10)]
    for base, c in ((64, 1001), (108, 1335), (256, 1502), (1728, 1669)):
        assert len(ctx.weights(base, 2)) == c + 1
        assert ctx.power(0, base, 2, 0) == [pow(base, -k, pk) for k in range(c + 1)]
    assert len(ctx.power(0, 1728, 3, 0)) == 100
    ctx.summand(2, Sum(8, 2))
    assert len(ctx.power(0, 8, 2, 0)) == (p + 1) // 2
    assert ctx.power(0, 108, 1, 0) == [1]  # no entry asked: base^0 alone
    assert ctx.power(0, 108, 1, 3) == [1, pow(108, -1, p), pow(108, -2, p)]


# the per-prime power lists C(2k,k)^c / base^k, as (c, base): C(2k,k), every
# power that summands share and base^-k for every base the summands read
_GROWN = ((1, 1), *sorted((c, base) for base, c in congruences._SHARED_POWERS),
          *sorted({(0, key[0]) for key in congruences._SUMMANDS if key[0] != 1}))


def _read_grown(ctx, c, base, kexp, stop):
    """(valuations, or None for c = 0, units) of the power list (c, base)."""
    return ctx.valuations(c, kexp) if c else None, ctx.power(c, base, kexp, stop)


def _exact_grown(c, base, p, kexp):
    """(valuations or None, units) of a ``_GROWN`` list for every k < p, from exact integers."""
    pk, vals, units = p**kexp, [], []
    for k in range(p):
        u, v = comb(2 * k, k), 0
        while u % p == 0:
            u, v = u // p, v + 1
        vals.append(c * v)
        units.append(u**c * pow(base, -k, pk) % pk)
    return vals if c else None, units


def test_grown_lists_equal_fresh_builds_in_any_order():
    # C(2k,k), its powers and base^-k grown to random stops at random
    # exponents in a random order: each holds k < stop, and no more than its
    # readers asked before, and equals a prefix of a fresh full build (which
    # equals the exact values), whether its entries are reduced from a higher
    # exponent's list or built
    assert len(_GROWN) == len(set(_GROWN)) == 12
    rng = random.Random(31)
    for p in (5, 7, 11, 13, 101):
        fresh = {(key, kexp): _read_grown(PrimeContext(p), *key, kexp, p)
                 for key in _GROWN for kexp in (1, 2, 3, 4)}
        for ((c, base), kexp), lists in fresh.items():
            assert lists == _exact_grown(c, base, p, kexp), (p, c, base, kexp)
        for _ in range(20):
            ctx = PrimeContext(p)
            for _ in range(rng.randrange(1, 12)):
                key, kexp = rng.choice(_GROWN), rng.randint(1, 4)
                stop = rng.choice([0, 1, p, rng.randrange(p + 1)])
                before = len(ctx._cache.get(("power", *key, kexp), [1]))
                vals, units = _read_grown(ctx, *key, kexp, stop)
                want_vals, want_units = fresh[key, kexp]
                assert vals == want_vals and units == want_units[: len(units)], (p, key, kexp)
                assert len(units) == max(stop, before), (p, key, kexp, stop)
        # a lower exponent reads what the list above holds and builds nothing
        ctx = PrimeContext(p)
        ctx.power(2, 8, 3, p)
        assert ctx.power(2, 8, 2, p) == fresh[(2, 8), 2][1]
        assert not {("power", 1, 1, 2), ("power", 0, 8, 2), ("tables", 2)} & ctx._cache.keys()


def test_a_vanishing_chain_reads_no_inverse_past_its_guards(monkeypatch):
    # at p = 1009 = 1 (mod 4) C1_21 reads the odd chain of 1728, which vanishes
    # mod p^2: no segment steps, and with ``front`` 0 the relation's right side
    # reads nothing, so the chain reads the tables only in its guards' direct
    # sums, to (2k)! and 1/(k+d)! for k <= c, the weights' cutoff
    p, direct = 1009, []
    direct_sum = _sweeps.direct_shift_sum

    def counting_direct(p, weights, d, tables):
        direct.append(d)
        return direct_sum(p, weights, d, tables)

    monkeypatch.setattr(_sweeps, "direct_shift_sum", counting_direct)
    ctx = PrimeContext(p)
    weights = ctx.weights(1728, 2)
    c = len(weights) - 1
    tables = FactorialTables(p, 2, 0)
    chain = _sweeps.shift_chain(p, 1728, weights, tables, {1: ctx.shift_column(1, 2)}, 1)
    assert c == 840 and not any(chain) and direct
    assert tables.reaches == (2 * c, 2 * c, c + max(direct))
    # mod p^3 ``front`` is not 0: every segment steps, and the chain grows its
    # inverses to its step reach, 1/m2 = 1/(6(d+1) + 5) at the last step d = p - 4
    ctx = PrimeContext(p)
    weights, tables = ctx.weights(1728, 3), FactorialTables(p, 3, 0)
    chain = _sweeps.shift_chain(p, 1728, weights, tables, {1: ctx.shift_column(1, 3)}, 1)
    assert len(weights) == p and tables.reaches == (2 * p - 2, 6 * (p - 3) + 5, 6 * (p - 3) + 5)
    row = _REGISTRY[_ROW_INDEX["C1_21"]]
    reports = run_suite([p], ["C1_21"], mod_exp={"C1_21": 3})
    assert [r.lhs for r in reports] == chain
    assert reports == [check("C1_21", p, d, mod_exp=3) for d in row.values(p)]


def test_lower_exponents_read_central_binomials_from_the_top(monkeypatch):
    # at p = 1201 the halfrange rows run at p^3, p^2 and p.  The p^3 rows read
    # C(2k,k) for k <= n = (p-1)/2 only: CL3_3 and CGZ end there, and CL3_2
    # reads its p^2-divisible half, k > n, mod p^2.  So at p^3 the table's
    # units reach p - 1, and C(2k,k), its powers and base^-k hold n + 1
    # entries; at p^2 they start from those, reduced, and grow to p
    seen, centrals, contexts = _growth(monkeypatch), {}, []
    power, init = PrimeContext.power, PrimeContext.__init__

    def reading(self, c, base, kexp, stop):
        if (c, base) == (1, 1):
            centrals[kexp] = max(centrals.get(kexp, 0), stop)
        return power(self, c, base, kexp, stop)

    def keeping(self, p):
        init(self, p)
        contexts.append(self)

    monkeypatch.setattr(PrimeContext, "power", reading)
    monkeypatch.setattr(PrimeContext, "__init__", keeping)
    p = 1201
    n = (p - 1) // 2
    congruences._suite_for_prime(p, _HALFRANGE_IDS, {}, False)
    assert {k: (t.reaches[1:], taken, built) for k, (t, taken, built) in seen.items()} == {
        3: ((p - 1, n + 1), [0, 0, 0], [2 * p - 2, p - 1, n + 1]),
        2: ((2 * p - 2, p), [0, p - 1, n], [0, p - 1, n + 1]),
        1: ((n, n // 2), [0, n, n // 2], [0, 0, 0])}
    assert centrals == {3: n + 1, 2: p}
    [ctx] = contexts
    lists = {key: len(v) for key, v in ctx._cache.items() if key[0] == "power"}
    powers = ((1, 1), (2, 8), (2, -16), (3, -8), (0, 8), (0, -16), (0, -8))
    assert lists == {**{("power", *key, 3): n + 1 for key in powers},
                     **{("power", *key, 2): p for key in powers}}


def test_primality_is_tested_once_per_public_call(monkeypatch):
    calls = []
    real = arith.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    for module in (arith, congruences):
        monkeypatch.setattr(module, "is_prime", counting)
    congruences._suite_for_prime(1009, tuple(all_ids()), {}, False)
    # one for the context, one per quadratic form the rows read
    assert 0 < len(calls) <= 16, len(calls)


def test_the_suite_steps_only_the_chains_its_rows_read(monkeypatch):
    direct, chains = [], []
    direct_sum, chain = _sweeps.direct_shift_sum, congruences.shift_chain

    def counting_direct(p, weights, d, tables):
        direct.append(d)
        return direct_sum(p, weights, d, tables)

    def counting_chain(p, base, weights, tables, columns, parity):
        chains.append((base, parity, sorted(columns), len(weights)))
        return chain(p, base, weights, tables, columns, parity)

    monkeypatch.setattr(_sweeps, "direct_shift_sum", counting_direct)
    monkeypatch.setattr(congruences, "shift_chain", counting_chain)
    seen = _growth(monkeypatch)
    shift_ids = ("C1_5", "C1_6", "C1_19", "C1_20", "C1_21", "C1_22", "C1_23", "C1_24", "C1_25",
                 "C1_26")
    congruences._suite_for_prime(2003, shift_ids, {}, False)
    # p = 2003 = 3 (mod 4), 2 (mod 3), 3 (mod 8): C1_5 reads the even chain of
    # 64 ((p+1)/2 even), C1_19 the even chain of 108, C1_20 and C1_25 the odd
    # chain of 256, C1_21 the even chain of 1728; C1_23 and C1_26 do not apply.
    # Each family's weights end at their cutoff c mod p^2: 64 at (p-1)/2 = 1001,
    # 108 at 1335 (v_p = 2 from 3k >= 2p), 256 at 1502 (from 4k >= 3p) and
    # 1728 at 1669 (from 6k >= 5p); past c every S(d) is 0 and nothing is summed.
    # C1_6 reads S_64(1) and C1_22 S_256(0) from chains nobody steps: two
    # seeds, one direct sum each, over k <= c.  A chain sums its last stepped
    # shift (c or c-1, whichever has its parity) and re-seeds S(x+1) at each
    # root x < c of c(x) mod p with x+1 of its parity; here no root has the
    # parity of its chain, so no S(x) is summed.  The roots: 64, x = (p-1)/2 =
    # 1001 (double, at c); 108, -1/3 = 1335 (at c) and -2/3 = 667; 256,
    # -1/4 = 1502 (at c) and -3/4 = 500; 1728, -1/6 = 1669 (at c) and -5/6 =
    # 333.  So 1 + 2 + 2 + 2 chain sums and 2 seed sums: 9 (13 when every chain
    # stepped to p-1, 21 when both chains of all four families were stepped),
    # and only the odd 256 chain reads the column at (p-1)/2 = 1001.
    assert sorted(direct) == [0, 1, 334, 501, 668, 1000, 1334, 1501, 1668]
    assert chains == [(64, 0, [0], 1002), (108, 0, [0], 1336), (256, 1, [1, 1001], 1503),
                      (1728, 0, [0], 1670)]
    # one table, mod p^2 with no source, built from 0! and grown in place: its
    # valuations reach (6k)! at every k < p, which the kernel reads to check the
    # 1728 weights' dead tail; its units reach (6k)! and its inverses 1/(3k)!
    # only at the 1728 cutoff c = 1669, as no chain steps
    [(k, (table, taken, built))] = seen.items()
    reach = (6 * 2002, 6 * 1669, 3 * 1669)
    assert (k, table.source, table.reaches, taken, built) == (2, None, reach, [0, 0, 0], list(reach))


@pytest.mark.parametrize("fixed, table, p", [("C1_14b", "C1_19", 29), ("C1_14c", "C1_20", 13),
                                             ("C1_15", "C1_21", 31)])
def test_a_fixed_shift_before_its_table_row_reads_the_chain_it_steps(fixed, table, p, monkeypatch):
    # the fixed row comes first in the registry and reads S(0); at p its table
    # row reads the even chain of the same family.  The table row runs first,
    # so the fixed row reads S(0) from that chain and makes no direct sum of
    # its own: the pair makes the direct sums of the table row alone.
    assert _REGISTRY[_ROW_INDEX[table]].values(p).start == 0
    direct, direct_sum = [], _sweeps.direct_shift_sum

    def counting_direct(p, weights, d, tables):
        direct.append(d)
        return direct_sum(p, weights, d, tables)

    monkeypatch.setattr(_sweeps, "direct_shift_sum", counting_direct)
    runs = []
    for ids in ((table,), (fixed, table)):
        direct.clear()
        congruences._suite_for_prime(p, ids, {}, False)
        runs.append(list(direct))
    assert runs[0] == runs[1], runs


def test_within_one_exponent_a_table_row_error_is_reported_first(monkeypatch):
    # at p = 13 = 1 (mod 3) C1_19 reads the odd chain of 108, seeded by S(1),
    # and C1_14b reads S_108(0) on its own; with both seeds wrong both rows
    # raise, and the table row, run first, is reported although C1_14b comes
    # first in the registry
    monkeypatch.setattr(_sweeps, "column_shift_sum", _corrupt_seeds(0, 1))
    with pytest.raises(ArithmeticError, match=r"base=108, d=0, K=2.*\(row=C1_14b, p=13\)"):
        run_suite([13], ["C1_14b"])
    with pytest.raises(ArithmeticError, match=r"base=108, .*K=2.*\(row=C1_19, p=13\)"):
        run_suite([13], ["C1_14b", "C1_19"])


def test_corrupted_seed_raises_under_reduction(monkeypatch):
    # C1_5 reads the odd chain of 64 at p = 13 and the even one at p = 31,
    # where C1_6 reads the seed S(1) on its own
    monkeypatch.setattr(_sweeps, "column_shift_sum", _corrupt_seeds(0, 1))
    with pytest.raises(ArithmeticError, match=r"base=64, .*K=2.*\(row=C1_5, p=13\)"):
        run_suite([13], default_ids())
    # the higher exponent is evaluated first, so its row is the one reported
    with pytest.raises(ArithmeticError, match=r"base=64, .*K=3.*\(row=C1_6, p=31\)"):
        run_suite([31], ["C1_5", "C1_6"], mod_exp={"C1_6": 3})


def test_corrupted_shared_column_raises_for_every_family(monkeypatch):
    # one wrong entry of a column read by every family: C(2k,k) and C(2k,k+1)
    # give the seeds S(0) and S(1), C(2k,k+6) the check of S((p-1)/2); at
    # p = 13 C1_5 reads the odd chain of 64, C1_20 the even chain of 256
    column = PrimeContext.shift_column
    bad = {"d": 0}

    def corrupt_column(self, d, kexp):
        col = column(self, d, kexp)
        return [(col[0] + 1) % self.pk(kexp), *col[1:]] if d == bad["d"] else col

    monkeypatch.setattr(PrimeContext, "shift_column", corrupt_column)
    for bad["d"] in (0, 1, 6):
        for base in (64, 108, 256, 1728):
            with pytest.raises(ArithmeticError, match=rf"p=13, base={base}, d=\d+, K=2"):
                PrimeContext(13).chain(base, bad["d"] % 2, 2)
        rid, base = ("C1_5", 64) if bad["d"] % 2 else ("C1_20", 256)
        with pytest.raises(ArithmeticError, match=rf"p=13, base={base}, d=\d+, K=2.*\(row={rid}, p=13\)"):
            run_suite([13], [rid])


# the table row that reads the chain of each (base, parity), at the primes
# below 60 where it reads that parity
_CHAIN_ROWS = {"C1_5": 64, "C1_19": 108, "C1_20": 256, "C1_21": 1728}
_CHAIN_CASES = [(rid, base, parity, p) for rid, base in _CHAIN_ROWS.items() for parity in (0, 1)
                for p in primes_in_range(11, 60)
                if _REGISTRY[_ROW_INDEX[rid]].values(p).start == parity]


@pytest.mark.parametrize("rid, base, parity", sorted({c[:3] for c in _CHAIN_CASES}))
def test_a_corrupted_chain_raises_naming_its_row(rid, base, parity, monkeypatch):
    rng = random.Random(base + parity)
    fam = _sweeps.SHIFT_FAMILIES[base]
    chain = congruences.shift_chain
    for p in [c[3] for c in _CHAIN_CASES if c[:3] == (rid, base, parity)]:
        where = rf"p={p}, base={base}, d=\d+, K=2.*\(row={rid}, p={p}\)$"
        # the seed S(parity), and the first entry of the column it is read from
        for owner, name, corrupt in ((_sweeps, "column_shift_sum", _corrupt_seeds(parity)),
                                     (PrimeContext, "shift_column", _corrupt_column(parity))):
            with monkeypatch.context() as m:
                m.setattr(owner, name, corrupt)
                with pytest.raises(ArithmeticError, match=where):
                    run_suite([p], [rid])
        # one step d -> d+2 of the chain, at p^3, where the chain does not vanish
        # (see test_shift_engine_catches_a_corrupted_step)
        good = PrimeContext(p).chain(base, parity, 3)
        roots = {x for x in range(p) if fam.coeff(x) % p == 0}
        d = rng.choice([d for d in range(parity, p - 2, 2)
                        if good[d // 2] and good[d // 2 + 1] and not {d, d + 1} & roots])
        m1 = fam.step * (d + 1) + fam.offsets[0]

        def bent(p, b, weights, tables, columns, q):
            tables = FactorialTables(p, tables.k, tables.limit)
            tables.unit = _DoubledEntry(tables.unit, m1 - 1, tables.pk)
            return chain(p, b, weights, tables, columns, q)

        with monkeypatch.context() as m:
            m.setattr(congruences, "shift_chain", bent)
            with pytest.raises(ArithmeticError, match=where.replace("K=2", "K=3")):
                run_suite([p], [rid], mod_exp={rid: 3})


@pytest.mark.parametrize("rid, base, d, p", [("C1_14b", 108, 0, 13), ("C1_15", 1728, 0, 11),
                                             ("C1_25", 256, 1, 17), ("C1_6", 64, 1, 19)])
def test_a_corrupted_seed_read_alone_fails_its_direct_sum(rid, base, d, p, monkeypatch):
    # a row that reads S(0) or S(1) with no chain planned steps none: the seed
    # read from its column is checked against a direct sum of the same shift
    monkeypatch.setattr(PrimeContext, "shift_column", _corrupt_column(d))
    with pytest.raises(ArithmeticError, match=rf"p={p}, base={base}, d={d}, K=2: its column "
                                              rf"gives \d+, the direct sum \d+ \(row={rid}, p={p}\)$"):
        run_suite([p], [rid])


def test_a_shift_read_alone_equals_the_termwise_sum_at_every_shift():
    # with no chain stepped, shift_sum reads S(d) from its column, checked by a
    # direct sum, and steps no chain; with its parity's chain stepped, it reads
    # that chain's entry
    for p in (5, 7, 13, 17, 29, 31, 43, 59):
        for kexp in (1, 2, 3, 4):
            alone, stepped = PrimeContext(p), PrimeContext(p)
            for base in (64, 108, 256, 1728):
                for d in range(p):
                    ref = _reference_shift_sum(PrimeContext(p), base, d, kexp)
                    assert alone.shift_sum(base, d, kexp) == ref, (p, kexp, base, d)
                    chain = stepped.chain(base, d % 2, kexp)[d // 2]
                    assert stepped.shift_sum(base, d, kexp) == chain == ref, (p, kexp, base, d)
            assert not [key for key in alone._cache if key[0] == "chain"], (p, kexp)


def test_check_sums_every_shift_without_the_shift_engine(monkeypatch):
    # the suite-versus-check tests and the benchmark's re-check compare the
    # engine with an evaluation that shares none of it
    def refuse(*args):
        raise AssertionError("check read the shift engine")

    monkeypatch.setattr(congruences, "shift_chain", refuse)
    monkeypatch.setattr(congruences, "shift_seed", refuse)
    monkeypatch.setattr(_sweeps, "direct_shift_sum", refuse)
    rows = [row for row in _REGISTRY if any(isinstance(t, Shift) for t in row.terms)]
    assert [row.id for row in rows] == ["C1_5", "C1_6", "C1_14b", "C1_14c", "C1_15", "C1_19",
                                        "C1_20", "C1_21", "C1_22", "C1_23", "C1_25", "C1_26"]
    cases = [(row.id, p, v) for p in primes_in_range(5, 60) for row in rows
             if _holds(row.applies, p) for v in row.values(p)]
    assert len(cases) == 949
    for rid, p, v in cases:
        for kexp in (1, 2, 3, 4):
            assert check(rid, p, v, mod_exp=kexp).status != "skipped", (rid, p, v, kexp)


# every encoder of ``verify``: csv, jsonl and human rows, and the --log records
_VERIFY_ENCODERS = [partial(cli._verify_block, fmt, log)
                    for fmt, log in (("csv", False), ("jsonl", False), ("human", False),
                                     ("csv", True))]


def test_the_suite_leaves_no_reference_cycles():
    # the premise of evaluating each prime with the cyclic collector paused
    ps = primes_in_range(5, 200)
    csv_block = partial(cli._verify_block, "csv", False)
    drains = [lambda: iter_suite(ps), lambda: congruences.iter_blocks(ps, encode=csv_block)]
    drains += [lambda e=e: congruences.iter_blocks(ps, encode=e) for e in _VERIFY_ENCODERS[1:]]
    for drain in drains:
        gc.collect()
        gc.disable()
        try:
            deque(drain(), 0)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_the_collector_is_the_callers_at_every_hand_back(monkeypatch):
    ps = primes_in_range(5, 60)
    assert gc.isenabled()
    reports = run_suite(ps)
    assert gc.isenabled()
    assert all(gc.isenabled() for _ in iter_suite(ps))  # at every yield of the stream
    assert all(congruences.iter_blocks(ps, encode=lambda block: gc.isenabled()))
    for encode in _VERIFY_ENCODERS:  # at every yield of verify's blocks, and after them
        assert all(gc.isenabled() for _ in congruences.iter_blocks(ps, encode=encode))
        assert gc.isenabled()
    assert run_suite(ps, jobs=2) == reports and gc.isenabled()
    gc.disable()
    try:
        assert run_suite(ps) == reports and not gc.isenabled()
    finally:
        gc.enable()
    monkeypatch.setattr(_sweeps, "column_shift_sum", _corrupt_seeds(1))  # C1_5's seed at 13
    with pytest.raises(ArithmeticError, match=r"\(row=C1_5, p=13\)"):
        run_suite([13], ["C1_5"])
    assert gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(ArithmeticError, match=r"\(row=C1_5, p=13\)"):
            run_suite([13], ["C1_5"])
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_prime_triggers_about_one_collection():
    # a count, not a time: each prime's allocations are made with the collector
    # paused, so it collects about once per prime; unpaused, three times as often
    ps = primes_in_range(1009, 1100)
    shift_ids = ["C1_5", "C1_6", "C1_19", "C1_20", "C1_21", "C1_22", "C1_23", "C1_24", "C1_25", "C1_26"]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        run_suite(ps, shift_ids)
    finally:
        gc.callbacks.remove(count)
    assert len(starts) <= len(ps) + 2, starts


def test_the_cli_path_triggers_almost_no_collection():
    # iter_blocks hands the encoder column blocks, a few lists per row, where
    # run_suite builds a report per row: 16 collections over these primes
    # when the encoder was given reports, none with blocks
    ps = primes_in_range(1009, 1100)
    shift_ids = ["C1_5", "C1_6", "C1_19", "C1_20", "C1_21", "C1_22", "C1_23", "C1_24", "C1_25", "C1_26"]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        deque(congruences.iter_blocks(ps, shift_ids, encode=_VERIFY_ENCODERS[0]), 0)
    finally:
        gc.callbacks.remove(count)
    assert len(starts) <= 2, starts
