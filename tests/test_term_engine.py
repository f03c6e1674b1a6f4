"""Property test: every value the term engine feeds a row equals an exact sum.

Random primes 5 <= p <= 60 and exponents K = 1..4 are drawn; each summand
moment, shift-one sum and binomial-sum row is recomputed from literal
``math.comb`` terms in exact ``Fraction`` arithmetic and reduced mod p^K.
"""

from fractions import Fraction
from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from binomsums.arith import legendre_symbol, mod_inverse, primes_in_range  # noqa: E402
from binomsums.congruences import (  # noqa: E402
    _CATALAN,
    _REGISTRY,
    _ROW_INDEX,
    PrimeContext,
    Sum,
    _evaluate,
)

PRIMES = primes_in_range(5, 60)
C4_1_XS = (1, 2, 3, -2)


def fm(fr, m):
    """A rational with p-coprime denominator reduced mod m."""
    fr = Fraction(fr)
    return fr.numerator * mod_inverse(fr.denominator % m, m) % m


def c2(k):
    return comb(2 * k, k)


def evaluate(row_id, ctx, kexp, v=None):
    """(members, rhs) of a row through the generic evaluator."""
    return _evaluate(_REGISTRY[_ROW_INDEX[row_id]], ctx, kexp, v)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(PRIMES), kexp=st.integers(1, 4))
def test_engine_matches_exact_sums(p, kexp):
    m = p**kexp
    n = (p - 1) // 2
    ctx = PrimeContext(p)
    for base in (8, -16):
        for full in (False, True):
            ks = range(p if full else n + 1)
            terms = [Fraction(c2(k) ** 2, base**k) for k in ks]
            square = Sum(base, 2, half=not full)
            assert ctx.moment(kexp, square, 0) == fm(sum(terms), m)
            assert ctx.moment(kexp, square, 1) == fm(sum(k * t for k, t in zip(ks, terms)), m)
            assert ctx.moment(kexp, square, 2) == fm(sum(k * k * t for k, t in zip(ks, terms)), m)
            catalan = Sum(base, 2, factors=_CATALAN, half=not full)
            if full:  # no row reads the full-range Catalan sum, so it is not built
                assert ("summand", catalan.key, kexp) not in ctx._cache
            else:
                assert ctx.moment(kexp, catalan, 0) == fm(
                    sum(t / (k + 1) for k, t in zip(ks, terms)), m)
    cube_bases = {1: Fraction(1), -8: Fraction(-8)}
    # C4_1's cubic side sums C(2k,k)^3 (-x/64)^k, a residue base -64/x
    for x in C4_1_XS:
        cube_bases[-64 * mod_inverse(x % m, m) % m] = Fraction(-64, x)
    for key, base in cube_bases.items():
        terms = [c2(k) ** 3 / base**k for k in range(p)]
        assert ctx.moment(kexp, Sum(key, 3), 0) == fm(sum(terms), m)
        assert ctx.moment(kexp, Sum(key, 3), 1) == fm(sum(k * t for k, t in enumerate(terms)), m)
    for x in C4_1_XS:
        # C4_1's other side: C(2k,k)^2 C(4k,2k) (x / (64 (x+1)^2))^k
        t = Fraction(x, 64 * (x + 1) ** 2)
        exact = legendre_symbol(x + 1, p) * sum(
            c2(k) ** 2 * comb(4 * k, 2 * k) * t**k for k in range(p)
        )
        assert evaluate("C4_1", ctx, kexp, x)[1] == fm(exact, m)
    shift1 = [comb(2 * k, k + 1) for k in range(p)]
    assert evaluate("C1_12", ctx, kexp)[0][0] == fm(
        sum(Fraction(c2(k) ** 2 * shift1[k], (-8) ** k) for k in range(p)), m
    )
    assert evaluate("C1_13", ctx, kexp)[0][0] == fm(
        sum(Fraction(c2(k) * shift1[k] ** 2, (-8) ** k) for k in range(p)), m
    )
    assert evaluate("C1_24", ctx, kexp)[0][0] == fm(
        sum(Fraction(c2(k) ** 2 * comb(3 * k, k + 1), 108**k) for k in range(p)), m
    )
    ahl = sum((-1) ** k * comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1))
    assert evaluate("C_AHL", ctx, kexp)[0][0] == legendre_symbol(-1, p) * ahl % m
