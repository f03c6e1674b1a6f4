"""Tests for exact mod-p^k arithmetic, factored binomials and Cornacchia."""

import math
import random

import pytest

from binomsums.arith import (
    FactoredResidue,
    FactorialTables,
    PrimePowerResidue,
    binomial_factored,
    binomial_valuation,
    factorial_factored,
    fermat_quotient_2,
    is_prime,
    legendre_symbol,
    mod_inverse,
    primes_in_range,
    represent,
    sqrt_mod,
    strip_p,
)


def exact_factored(n, p):
    """Oracle: strip p from the exact integer n (arbitrary precision)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def test_is_prime_small():
    sieve = primes_in_range(2, 2000)
    for n in range(2001):
        assert is_prime(n) == (n in set(sieve))
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_primes_in_range_bounds():
    assert primes_in_range(5, 4) == []
    assert primes_in_range(4, 4) == []
    assert primes_in_range(5, 13) == [5, 7, 11, 13]
    assert primes_in_range(0, 10) == [2, 3, 5, 7]


def test_mod_inverse():
    assert mod_inverse(1, 25) == 1
    assert mod_inverse(8, 25) == 22
    assert 8 * 22 % 25 == 1
    with pytest.raises(ValueError):
        mod_inverse(5, 25)
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(2, 10**6)
        a = rng.randrange(1, m)
        if math.gcd(a, m) == 1:
            assert a * mod_inverse(a, m) % m == 1


def test_legendre_symbol_examples():
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(5, 7) == -1
    assert legendre_symbol(14, 7) == 0
    with pytest.raises(ValueError):
        legendre_symbol(3, 9)
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)


def test_legendre_symbol_is_square_indicator():
    for p in primes_in_range(3, 500):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, p) == want


def test_sqrt_mod():
    assert sqrt_mod(2, 7) == 3
    assert sqrt_mod(3, 7) is None
    assert sqrt_mod(0, 13) == 0
    for p in primes_in_range(3, 300):
        for a in range(p):
            r = sqrt_mod(a, p)
            if legendre_symbol(a, p) == -1:
                assert r is None
            else:
                assert r is not None and r * r % p == a


def test_fermat_quotient_2():
    assert int(fermat_quotient_2(3, 1)) == 1
    assert int(fermat_quotient_2(7, 1)) == 2
    assert int(fermat_quotient_2(5, 2)) == 3
    for p in primes_in_range(3, 200):
        q = (2 ** (p - 1) - 1) // p
        for k in (1, 2, 3):
            assert int(fermat_quotient_2(p, k)) == q % p**k


def test_residue_ring_laws():
    rng = random.Random(2024)
    for p, k in [(5, 1), (5, 2), (7, 3), (11, 4), (9973, 2)]:
        pk = p**k
        for _ in range(100):
            a, b, c = (rng.randrange(-(10**9), 10**9) for _ in range(3))
            ra = PrimePowerResidue(p, k, a)
            rb = PrimePowerResidue(p, k, b)
            rc = PrimePowerResidue(p, k, c)
            assert int(ra + rb) == (a + b) % pk
            assert int(ra - rb) == (a - b) % pk
            assert int(ra * rb) == a * b % pk
            assert int((ra + rb) * rc) == int(ra * rc + rb * rc)
            assert int(-ra) == -a % pk
            if a % p:
                assert int(ra * ra.inverse()) == 1
    with pytest.raises(ValueError):
        PrimePowerResidue(5, 2, 1) + PrimePowerResidue(7, 2, 1)
    with pytest.raises(ValueError):
        PrimePowerResidue(5, 2, 1) * PrimePowerResidue(5, 3, 1)


def test_factored_residue_semantics():
    rng = random.Random(11)
    for p, k in [(5, 2), (7, 3), (13, 4)]:
        pk = p**k
        for _ in range(150):
            n = rng.randrange(-(10**8), 10**8)
            m = rng.randrange(1, 10**6) * rng.choice([1, -1])
            fn = FactoredResidue.from_int(n, p, k)
            e, u = exact_factored(abs(n), p) if n else (0, 0)
            if n == 0:
                assert fn.is_zero and fn.residue_int() == 0
                continue
            assert fn.valuation == e
            assert fn.unit_value == u % pk
            assert fn.residue_int() == n % pk
            assert (fn * FactoredResidue.from_int(m, p, k)).residue_int() == n * m % pk
            assert fn.times_int(m).residue_int() == n * m % pk
            if n % m == 0:
                assert fn.over_int(m).residue_int() == (n // m) % pk
    f = FactoredResidue.from_int(10, 5, 2)
    with pytest.raises(ValueError):
        f.over_int(50)  # would need valuation -1
    with pytest.raises(ZeroDivisionError):
        f.over_int(0)
    assert (f / FactoredResidue.from_int(5, 5, 2)).residue_int() == 2


def test_factorial_factored_examples():
    f0 = factorial_factored(0, 5, 2)
    assert (f0.valuation, f0.unit_value) == (0, 1)
    f5 = factorial_factored(5, 5, 2)
    assert (f5.valuation, f5.unit_value) == (1, 24)
    f10 = factorial_factored(10, 5, 2)
    e, u = exact_factored(math.factorial(10), 5)
    assert (f10.valuation, f10.unit_value) == (e, u % 25) == (2, 2)


def test_factorial_factored_against_exact():
    for p, k in [(3, 2), (5, 3), (11, 2)]:
        tables = FactorialTables(p, k, 400)
        for n in range(401):
            e, u = exact_factored(math.factorial(n), p)
            got = factorial_factored(n, p, k, tables)
            assert got.valuation == e
            assert got.unit_value == u % p**k
            plain = factorial_factored(n, p, k)
            assert plain == got


def test_binomial_factored_examples():
    assert binomial_factored(0, 1, 5, 2).is_zero
    assert binomial_factored(3, -1, 5, 2).is_zero
    b = binomial_factored(8, 4, 5, 2)
    assert (b.valuation, b.unit_value) == (1, 14)
    assert b.residue_int() == 70 % 25
    b = binomial_factored(10, 5, 5, 2)
    assert (b.valuation, b.unit_value) == (0, 2)


def test_binomial_factored_pascal_moderate():
    # exhaustive moderate grid here; the full n <= 2000 grid runs in acceptance
    for p in (3, 7):
        pk = p * p
        tables = FactorialTables(p, 2, 300)
        row = [1]
        for n in range(301):
            got = [binomial_factored(n, r, p, 2, tables).residue_int() for r in range(n + 1)]
            assert got == row
            row = [1] + [(row[i] + row[i + 1]) % pk for i in range(n)] + [1]


def test_binomial_valuation_kummer_moderate():
    for p in (3, 5, 13):
        for n in range(200):
            for r in range(n + 1):
                e, _ = exact_factored(math.comb(n, r), p)
                assert binomial_valuation(n, r, p) == e
                assert binomial_factored(n, r, p, 2).valuation == e


def test_central_binomial_tail_valuation():
    # for (p+1)/2 <= k <= p-1 the central binomial has valuation exactly 1
    for p in (5, 7, 11, 13, 101):
        for k in range((p + 1) // 2, p):
            assert binomial_valuation(2 * k, k, p) == 1


def test_represent_examples():
    assert represent(5, 1).as_tuple() == (1, 2)
    assert represent(13, 1).as_tuple() == (-3, 2)
    assert represent(11, 2).as_tuple() == (3, 1)
    assert represent(5, 3) is None
    assert represent(7, 3).as_tuple() == (2, 1)
    assert represent(11, 7).as_tuple() == (2, 1)
    with pytest.raises(ValueError):
        represent(7, 7)
    with pytest.raises(ValueError):
        represent(9, 1)


def test_represent_normalization_and_exactness():
    for p in primes_in_range(3, 2000):
        for d in (1, 2, 3, 7):
            if p % d == 0:
                continue
            rep = represent(p, d)
            if d == 1:
                assert (rep is not None) == (p % 4 == 1)
            if rep is None:
                assert legendre_symbol(-d % p, p) == -1
                continue
            assert rep.x * rep.x + d * rep.y * rep.y == p
            if d == 1:
                assert rep.x % 4 == 1 and rep.y % 2 == 0 and rep.y >= 0
            else:
                assert rep.x > 0 and rep.y >= 0


def test_represent_against_enumeration():
    # brute-force oracle over the full solution set
    for p in primes_in_range(3, 400):
        for d in (1, 2, 3, 7):
            if p % d == 0:
                continue
            sols = set()
            y = 0
            while d * y * y <= p:
                x2 = p - d * y * y
                x = math.isqrt(x2)
                if x * x == x2:
                    sols.add((x, y))
                y += 1
            rep = represent(p, d)
            if not sols:
                assert rep is None
            else:
                assert rep is not None
                assert (abs(rep.x), rep.y) in sols


def test_factorial_tables_give_reciprocals():
    # 1/i = inv_unit[i] * unit[i-1] for p not dividing i: the identity the
    # term engine and the shift engine use in place of an inverse table
    for p, k in [(5, 2), (7, 3), (13, 4)]:
        t = FactorialTables(p, k, 200)
        for i in range(1, 201):
            if i % p:
                assert i * t.inv_unit[i] * t.unit[i - 1] % t.pk == 1


def test_strip_p():
    assert strip_p(1, 5) == (0, 1)
    assert strip_p(250, 5) == (3, 2)
