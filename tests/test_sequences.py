from fractions import Fraction
from math import comb

import pytest

from binomsums.arith import FactorialTables, primes_in_range
from binomsums.congruences import PrimeContext
from binomsums.sequences import (
    delannoy_coeffs,
    delannoy_poly,
    euler_number_mod_p,
    f_coeffs,
    f_poly,
    horner,
    schroder_coeffs,
    schroder_poly,
)
from oracles import euler_numbers, sequence_table


def test_delannoy_anchors():
    assert [delannoy_poly(n, 1) for n in range(6)] == [1, 3, 13, 63, 321, 1683]
    assert delannoy_poly(2, Fraction(-1, 2)) == Fraction(-1, 2)
    # D_n(0) = 1
    for n in range(10):
        assert delannoy_poly(n, 0) == 1


def test_delannoy_alternate_form():
    # C(n+k,2k)C(2k,k) = C(n,k)C(n+k,k), so both sums agree
    for n in range(20):
        for x in (1, 2, -3, Fraction(1, 2), Fraction(-2, 7)):
            alt = sum(comb(n, k) * comb(n + k, k) * x**k for k in range(n + 1))
            assert delannoy_poly(n, x) == alt


def test_delannoy_at_minus_half():
    # D_{2n}(-1/2) = C(2n,n) / (-4)^n
    for n in range(30):
        assert delannoy_poly(2 * n, Fraction(-1, 2)) == Fraction(
            comb(2 * n, n), (-4) ** n
        )


def test_polys_equal_the_term_by_term_sum_in_value_and_type():
    # the literal term-by-term sum with x^k in the type of x^0: an int or bool
    # point gives an int, a Fraction point a Fraction
    coeffs = {delannoy_poly: lambda k: comb(2 * k, k),
              schroder_poly: lambda k: comb(2 * k, k) // (k + 1),
              f_poly: lambda k: comb(2 * k, k) ** 2}
    points = (0, 1, -1, 3, -7, True, False,
              Fraction(0), Fraction(5), Fraction(-1, 2), Fraction(3, 4), Fraction(-2, 7))
    for poly, coeff in coeffs.items():
        for n in range(30):
            for x in points:
                want = sum(comb(n + k, 2 * k) * coeff(k) * x**0 * x**k for k in range(n + 1))
                got = poly(n, x)
                assert got == want and type(got) is type(want), (poly.__name__, n, x)
                assert type(got) is (Fraction if isinstance(x, Fraction) else int)


def test_coefficient_lists_and_their_evaluator():
    assert delannoy_coeffs(3) == [1, 12, 30, 20]
    assert schroder_coeffs(3) == [1, 6, 10, 5]
    assert f_coeffs(3) == [1, 24, 180, 400]
    # the empty polynomial is 0 in the type of x^0, and a point's denominator
    # is divided out once, at the end
    assert horner([], 3) == 0 and type(horner([], 3)) is int
    assert horner([], Fraction(1, 2)) == 0 and type(horner([], Fraction(1, 2))) is Fraction
    assert horner([1, 12, 30, 20], Fraction(1, 2)) == Fraction(34, 2)  # 1 + 6 + 15/2 + 5/2


def test_schroder_anchors():
    assert [schroder_poly(n, 1) for n in range(6)] == [1, 2, 6, 22, 90, 394]
    assert schroder_poly(2, 1) == 6
    assert schroder_poly(3, 1) == 22


def test_schroder_alternate_form():
    for n in range(20):
        for x in (1, -2, Fraction(3, 5)):
            alt = sum(
                Fraction(comb(n, k) * comb(n + k, k), k + 1) * x**k
                for k in range(n + 1)
            )
            assert schroder_poly(n, x) == alt


def test_number_recurrences():
    # (n+1) D_{n+1} = 3(2n+1) D_n - n D_{n-1}  and  D_{n+1} - 3 D_n = 2 n S_n
    d = sequence_table("delannoy", 201)
    s = sequence_table("schroder", 200)
    for n in range(1, 200):
        assert (n + 1) * d[n + 1] == 3 * (2 * n + 1) * d[n] - n * d[n - 1]
        assert d[n + 1] - 3 * d[n] == 2 * n * s[n]


def test_f_poly_anchors():
    assert f_poly(1, 1) == 5
    assert f_poly(2, 2) == 169
    # smoke test of f_n(x(x+1)) = D_n(x)^2; the identity suite does the grid
    for n in range(8):
        for x in (1, 2, Fraction(-1, 3)):
            assert f_poly(n, x * (x + 1)) == delannoy_poly(n, x) ** 2


def test_euler_numbers():
    e = euler_numbers(10)
    assert e[0] == 1
    assert [e[2], e[4], e[6], e[8], e[10]] == [-1, 5, -61, 1385, -50521]
    assert all(e[n] == 0 for n in range(1, 11, 2))
    # defining relation holds for every n >= 1, odd included
    for n in range(1, 11):
        assert sum(comb(n, k) * e[n - k] for k in range(0, n + 1, 2)) == 0


def test_euler_number_mod_p_matches_exact_table():
    # E_{p-3} mod p is what the CGZ_P4 row uses; pinned for every p < 600,
    # plus a spread of other indices at small p
    e = euler_numbers(600)
    for p in primes_in_range(5, 600):
        assert euler_number_mod_p(p - 3, p) == e[p - 3] % p, p
    for p in (3, 5, 7, 11, 13):
        for n in range(40):
            assert euler_number_mod_p(n, p) == e[n] % p, (p, n)


def test_sequence_tables():
    assert sequence_table("central_binomial", 4).values == (1, 2, 6, 20, 70)
    assert sequence_table("catalan", 5).values == (1, 1, 2, 5, 14, 42)
    assert sequence_table("delannoy", 3).values == (1, 3, 13, 63)
    assert sequence_table("schroder", 3).values == (1, 2, 6, 22)
    assert sequence_table("euler", 4).values == (1, 0, -1, 0, 5)
    t = sequence_table("catalan", 5)
    assert t[3] == 5 and len(t) == 6
    with pytest.raises(ValueError):
        sequence_table("motzkin", 5)
    with pytest.raises(ValueError):
        sequence_table("catalan", -1)


def test_central_binomial_residue_stream():
    # C(2j,j) mod p^k: PrimeContext.power for j < p, the tables beyond
    for p, k in ((5, 1), (7, 2), (11, 3), (13, 4)):
        pk, ctx = p**k, PrimeContext(p)
        vals, units = ctx.valuations(1, k), ctx.power(1, 1, k, p)
        tables = FactorialTables(p, k, 6 * p)
        for j in range(3 * p + 1):
            exact = comb(2 * j, j)
            assert tables.binomial(2 * j, j) == exact % pk
            if j < p:
                v = 0
                while exact % p == 0:
                    v += 1
                    exact //= p
                assert vals[j] == v and units[j] == exact % pk


def test_central_binomial_residue_examples():
    ctx = PrimeContext(7)
    vals, units = ctx.valuations(1, 2), ctx.power(1, 1, 2, 7)
    assert vals[3] == 0 and units[3] == 20
    assert vals[4] == 1 and units[4] == 10  # C(8,4) = 70 = 7 * 10
    assert FactorialTables(5, 1, 10).binomial(10, 5) == 252 % 5


def test_poly_negative_n():
    for fn in (delannoy_poly, schroder_poly, f_poly):
        with pytest.raises(ValueError):
            fn(-1, 1)
    for fn in (delannoy_coeffs, schroder_coeffs, f_coeffs):
        with pytest.raises(ValueError):
            fn(-1)
