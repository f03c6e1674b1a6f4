"""Tests for exact mod-p^k arithmetic, the factorial tables and Cornacchia."""

import math
import random
import subprocess
import sys

import pytest

from binomsums.arith import (
    FactorialTables,
    is_prime,
    legendre_symbol,
    mod_inverse,
    primes_in_range,
    represent,
    sqrt_mod,
)
from oracles import as_tuple, binomial_valuation, factorial_tables


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
    # p is tested on every call, a = 0 (mod p) included
    for a, p in [(0, 9), (9, 9), (0, 15), (0, 1), (4, 2), (0, 0), (3, 2), (5, -7)]:
        with pytest.raises(ValueError, match=rf"^{p} is not an odd prime$"):
            sqrt_mod(a, p)
    for p in primes_in_range(3, 300):
        for a in range(p):
            r = sqrt_mod(a, p)
            if legendre_symbol(a, p) == -1:
                assert r is None
            else:
                assert r is not None and r * r % p == a


def test_factorial_factored_examples():
    t = FactorialTables(5, 2, 10)
    assert (t.val[0], t.unit[0]) == (0, 1)
    assert (t.val[5], t.unit[5]) == (1, 24)
    e, u = exact_factored(math.factorial(10), 5)
    assert (t.val[10], t.unit[10]) == (e, u % 25) == (2, 2)


def test_factorial_factored_against_exact():
    for p, k in [(3, 2), (5, 3), (11, 2)]:
        tables = FactorialTables(p, k, 400)
        for n in range(401):
            e, u = exact_factored(math.factorial(n), p)
            assert tables.val[n] == e
            assert tables.unit[n] == u % p**k
            assert tables.unit[n] * tables.inv_unit[n] % p**k == 1


def test_factorial_tables_equal_the_one_n_at_a_time_build():
    # every limit up to p^3 + p: every edge between multiples of p, and every
    # multiple of p^2 and p^3.  The oracle's lists do not depend on the limit
    # beyond their length, so one build at the top serves every limit.
    for p in (3, 5, 7, 11, 13):
        top = p**3 + p
        for k in (1, 2, 3, 4):
            val, unit, inv = factorial_tables(p, k, top)
            for limit in range(top + 1):
                t = FactorialTables(p, k, limit)
                n = limit + 1
                assert (t.val, t.unit, t.inv_unit) == (val[:n], unit[:n], inv[:n]), (p, k, limit)
            assert factorial_tables(p, k, p**2) == (val[: p**2 + 1], unit[: p**2 + 1], inv[: p**2 + 1])


def test_grown_factorial_tables_equal_the_one_n_at_a_time_build():
    # a table built to every L1 up to p^3 + p and grown to the top in one step,
    # and tables grown in steps of 1, p - 1, p, p + 1 and p^2, each step checked
    for p in (3, 5, 7, 11, 13):
        top = p**3 + p
        for k in (1, 2, 3, 4):
            val, unit, inv = factorial_tables(p, k, top)
            for limit in range(top + 1):
                t = FactorialTables(p, k, limit)
                t.grow(top)
                got = t.limit, t.val, t.unit, t.inv_unit
                assert got == (top, val, unit, inv), (p, k, limit)
            for step in (1, p - 1, p, p + 1, p * p):
                t = FactorialTables(p, k, 0)
                while t.limit < top:
                    t.grow(min(t.limit + step, top))
                    n = t.limit + 1
                    assert (t.val, t.unit, t.inv_unit) == (val[:n], unit[:n], inv[:n]), (p, k, n)


def test_growing_to_a_reach_a_table_has_changes_nothing():
    for p, k, limit in [(5, 2, 0), (5, 2, 10), (7, 3, 3 * 7 + 2), (13, 4, 200)]:
        t = FactorialTables(p, k, limit)
        want = [list(t.val), list(t.unit), list(t.inv_unit)]
        for reach in {0, limit // 2, limit}:
            t.grow(reach)
            assert t.limit == limit and [t.val, t.unit, t.inv_unit] == want


def _agrees(t, tables) -> bool:
    """Every entry each list of ``t`` holds equals the one-n-at-a-time build's."""
    return all(got == want[: len(got)] for got, want in zip((t.val, t.unit, t.inv_unit), tables))


def test_each_list_grows_to_its_own_reach_in_any_order():
    # val, unit and inv_unit grown in a random order to reaches of their own,
    # and partly grown tables reduced and grown on: each list reaches exactly the
    # furthest n asked of it (units at least as far as inverses, which run down
    # from the top unit) and equals the one-n-at-a-time build on every entry
    rng = random.Random(27)
    for p in (3, 5, 7, 13):
        top = p**3 + p
        built = {k: factorial_tables(p, k, top) for k in (1, 2, 3)}
        for k in (1, 2, 3):
            for _ in range(25):
                start = rng.choice([0, 1, p - 1, p, rng.randrange(top + 1)])
                t = FactorialTables(p, k, start)
                want = [start, start, start]
                for _ in range(rng.randrange(1, 6)):
                    asked = [rng.choice([0, rng.randrange(top + 1)]) for _ in range(3)]
                    t.grow(*asked)
                    want = [max(w, a) for w, a in zip(want, asked)]
                    want[1] = max(want[1], want[2])
                    assert list(t.reaches) == want
                    assert t.limit == min(want[0], want[2]) and _agrees(t, built[k]), (p, k)
                for j in range(1, k + 1):
                    reach = [rng.randrange(w + 1) for w in want]
                    got = t.reduced(j, *reach)
                    reach[1] = max(reach[1], reach[2])
                    assert (got.k, got.pk) == (j, p**j)
                    assert list(got.reaches) == reach
                    assert _agrees(got, built[j]), (p, k, j, reach)
                    got.grow(*(rng.randrange(top + 1) for _ in range(3)))
                    assert _agrees(got, built[j]), (p, k, j)
                    for past in ((want[0] + 1,), (0, want[1] + 1, 0), (0, 0, want[2] + 1)):
                        with pytest.raises(ValueError):
                            t.reduced(j, *past)


def test_binomial_grows_the_lists_it_reads():
    # a table whose inverses stop short of r or n - r grows them as far as the
    # binomial reads, and C(n, r) matches math.comb mod p^k
    rng = random.Random(2027)
    for p in (3, 5, 13):
        for k in (1, 2, 3):
            t = FactorialTables(p, k, 10)
            t.grow(300, 300, 0)
            assert t.reaches == (300, 300, 10)
            assert t.binomial(200, 60) == math.comb(200, 60) % p**k
            assert t.reaches == (300, 300, 140)
            t = FactorialTables(p, k, 0)
            for _ in range(200):
                n = rng.randrange(400)
                r = rng.randrange(-2, n + 3)
                want = math.comb(n, r) % p**k if 0 <= r <= n else 0
                assert t.binomial(n, r) == want, (p, k, n, r)


@pytest.mark.parametrize("args, name", [((0, 1, 5), "p"), ((-3, 1, 5), "p"), ((5, 0, 10), "k"),
                                        ((5, -1, 10), "k"), ((5, 1, -1), "limit")])
def test_factorial_tables_reject_bad_arguments(args, name):
    with pytest.raises(ValueError, match=rf"^FactorialTables needs {name} >= "):
        FactorialTables(*args)


def test_factorial_tables_reject_p_1_without_hanging():
    # a ``grow`` that never ends for p = 1 would hang the test: a child process bounds the wait
    code = ("from binomsums.arith import FactorialTables\n"
            "try:\n    FactorialTables(1, 1, 5)\n"
            "except ValueError as e:\n    print(e)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.stdout == "FactorialTables needs p >= 2, got 1\n", out.stderr


def test_binomial_factored_examples():
    t = FactorialTables(5, 2, 10)
    assert t.binomial(0, 1) == 0
    assert t.binomial(3, -1) == 0
    assert t.binomial(8, 4) == 70 % 25
    assert t.binomial(10, 5) == 252 % 25
    assert t.binomial(5, 1) == 5  # valuation 1 < k
    assert FactorialTables(5, 1, 10).binomial(5, 1) == 0  # valuation 1 >= k


def test_binomial_factored_pascal_moderate():
    # exhaustive moderate grid here; the full n <= 2000 grid runs in acceptance
    for p in (3, 7):
        pk = p * p
        tables = FactorialTables(p, 2, 300)
        row = [1]
        for n in range(301):
            got = [tables.binomial(n, r) for r in range(n + 1)]
            assert got == row
            row = [1] + [(row[i] + row[i + 1]) % pk for i in range(n)] + [1]


def test_factorial_tables_binomial_matches_comb():
    for p in (3, 5, 7, 13):
        for k in (1, 2, 3, 4):
            pk = p**k
            t = FactorialTables(p, k, 300)
            for n in range(301):
                assert t.binomial(n, -1) == 0
                assert t.binomial(n, n + 1) == 0
                for r in range(n + 1):
                    assert t.binomial(n, r) == math.comb(n, r) % pk


def test_binomial_valuation_kummer_moderate():
    for p in (3, 5, 13):
        t = FactorialTables(p, 2, 200)
        for n in range(200):
            for r in range(n + 1):
                e, _ = exact_factored(math.comb(n, r), p)
                assert binomial_valuation(n, r, p) == e
                assert t.val[n] - t.val[r] - t.val[n - r] == e


def test_central_binomial_tail_valuation():
    # for (p+1)/2 <= k <= p-1 the central binomial has valuation exactly 1
    for p in (5, 7, 11, 13, 101):
        for k in range((p + 1) // 2, p):
            assert binomial_valuation(2 * k, k, p) == 1


def test_represent_examples():
    assert as_tuple(represent(5, 1)) == (1, 2)
    assert as_tuple(represent(13, 1)) == (-3, 2)
    assert as_tuple(represent(11, 2)) == (3, 1)
    assert represent(5, 3) is None
    assert as_tuple(represent(7, 3)) == (2, 1)
    assert as_tuple(represent(11, 7)) == (2, 1)
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



def test_factorial_tables_reduced_equal_fresh_builds():
    for p in (5, 7, 13, 101):
        big = 3 * p + 2
        for top in (2, 3, 4):
            t = FactorialTables(p, top, big)
            for k in range(1, top):
                for limit in (0, 1, p - 1, p, 2 * p + 1, big):
                    got, want = t.reduced(k, limit), FactorialTables(p, k, limit)
                    assert (got.p, got.k, got.pk, got.limit) == (p, k, p**k, limit)
                    assert got.val == want.val
                    assert got.unit == want.unit
                    assert got.inv_unit == want.inv_unit
            with pytest.raises(ValueError):
                t.reduced(top + 1, big)
            with pytest.raises(ValueError):
                t.reduced(1, big + 1)


def test_reduced_grown_tables_equal_fresh_builds():
    # the tables PrimeContext keeps: built short, grown, reduced, and grown again
    for p in (5, 7, 13, 101):
        big = 6 * p
        for top in (2, 3, 4):
            t = FactorialTables(p, top, p)
            t.grow(2 * p)
            t.grow(big)
            for k in range(1, top + 1):
                for limit in (0, p - 1, p, 2 * p + 1, big):
                    got, want = t.reduced(k, limit), FactorialTables(p, k, limit)
                    assert (got.limit, got.val, got.unit, got.inv_unit) == (
                        limit, want.val, want.unit, want.inv_unit), (p, top, k, limit)
                    got.grow(big + p)
                    want = FactorialTables(p, k, big + p)
                    assert (got.val, got.unit, got.inv_unit) == (want.val, want.unit, want.inv_unit)
