"""One literal statement per registry row, pinned against ``check`` and the suite.

Each entry of ``STATEMENTS`` writes a row down the way the paper does: its
side condition on p, its parameter values, the members of its left side (a
chain when there are several) and its right side, all as exact integers or
``Fraction``s built from ``math.comb``.  Quadratic forms are found by
enumeration, Legendre symbols by listing the squares mod p, and the eta
coefficients are read from the q-expansions (``coefficient_table``), not from
their closed forms.  Nothing here reads the engine's registry.

At every prime 5 <= p < 60 and every modulus exponent K = 1..4, both
evaluation paths must give the report the statement predicts: the residues,
the status, and for a chain that fails, the first differing pair.
"""

from fractions import Fraction
from math import comb, isqrt
from typing import Callable, NamedTuple

import pytest

from binomsums.arith import primes_in_range
from binomsums.congruences import all_ids, check, run_suite
from binomsums.qseries import coefficient_table
from oracles import euler_numbers

PRIMES = primes_in_range(5, 59)
ETA = {name: coefficient_table(name, 60) for name in "abc"}
EULER = euler_numbers(60)


class Statement(NamedTuple):
    """members(p, v) == ... == rhs(p, v) (mod p^K) where applies(p), for v in params(p)."""

    applies: Callable[[int], bool]
    members: Callable[[int, int | None], tuple]
    rhs: Callable[[int, int | None], Fraction | int]
    param: str = ""
    params: Callable[[int], tuple] = lambda p: (None,)
    conjectural: Callable[[int], bool] = lambda p: False


def c(k):
    return comb(2 * k, k)


def cat(k):
    return c(k) // (k + 1)


def n_(p):
    return (p - 1) // 2


def full(p, term):
    """sum_{k=0}^{p-1} term(k)."""
    return sum(term(k) for k in range(p))


def half(p, term):
    """sum_{k=0}^{(p-1)/2} term(k)."""
    return sum(term(k) for k in range(n_(p) + 1))


def leg(a, p):
    """(a|p) from the list of nonzero squares mod p."""
    if a % p == 0:
        return 0
    return 1 if a % p in {t * t % p for t in range(1, p)} else -1


def xs(p, d):
    """Every x >= 0 with p = x^2 + d y^2 for some integer y."""
    return [x for x in range(isqrt(p) + 1)
            if (p - x * x) % d == 0 and isqrt((p - x * x) // d) ** 2 == (p - x * x) // d]


def x1(p):
    """The x of p = x^2 + y^2 with x odd, signed so that x = 1 (mod 4)."""
    x = next(x for x in xs(p, 1) if x % 2)
    return x if x % 4 == 1 else -x


def form(p, d):
    """4x^2 - 2p for p = x^2 + d y^2, or 0 when p has no such form."""
    found = xs(p, d)
    return 4 * found[0] ** 2 - 2 * p if found else 0


def quarter(p):
    """(-1)^((p-1)/4)."""
    return (-1) ** ((p - 1) // 4)


def delannoy(n):
    return sum(comb(n + k, 2 * k) * c(k) for k in range(n + 1))


def schroder(n):
    return sum(comb(n + k, 2 * k) * cat(k) for k in range(n + 1))


def shifts(parity):
    return lambda p: tuple(range(parity(p) % 2, p, 2))


F = Fraction

STATEMENTS = {
    "C1_1": Statement(
        lambda p: p != 7,
        lambda p, _: (full(p, lambda k: c(k) ** 3),),
        lambda p, _: form(p, 7),
        conjectural=lambda p: bool(xs(p, 7))),
    "C1_2": Statement(
        lambda p: True,
        lambda p, k: (comb(n_(p) + k, 2 * k),),
        lambda p, k: F(c(k), (-16) ** k),
        "k", lambda p: tuple(range(n_(p) + 1))),
    "C1_5": Statement(
        lambda p: True,
        lambda p, d: (full(p, lambda k: F(c(k) ** 2 * comb(2 * k, k + d), 64**k)),),
        lambda p, d: 0,
        "d", shifts(lambda p: (p + 1) // 2)),
    "C1_6": Statement(
        lambda p: p % 4 == 3,
        lambda p, _: (full(p, lambda k: F(c(k) ** 2 * comb(2 * k, k + 1), 64**k)),),
        lambda p, _: (2 * p + 2 - 2 ** (p - 1)) * comb(n_(p), (p + 1) // 4) ** 2),
    "C1_7a": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (half(p, lambda k: F((k + 1) * c(k) ** 2, 8**k)),),
        lambda p, _: quarter(p) * x1(p)),
    "C1_7b": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (half(p, lambda k: F((2 * k + 1) * c(k) ** 2, (-16) ** k)),),
        lambda p, _: quarter(p) * x1(p)),
    "C1_8": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (half(p, lambda k: F(c(k) * cat(k), 8**k)),
                      -2 * full(p, lambda k: F(k * c(k) ** 2, 8**k))),
        lambda p, _: quarter(p) * (2 * x1(p) - F(p, x1(p)))),
    "C1_9": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (schroder(n_(p)),
                      half(p, lambda k: F(c(k) * cat(k), (-16) ** k)),
                      -8 * half(p, lambda k: F(k * c(k) ** 2, (-16) ** k))),
        lambda p, _: quarter(p) * 2 * (2 * x1(p) - F(p, x1(p)))),
    "C1_10": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (half(p, lambda k: F(k * k * c(k) ** 2, 8**k)),),
        lambda p, _: quarter(p) * (x1(p) - F(3 * p, 4 * x1(p)))),
    "C1_11": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (half(p, lambda k: F(k * k * c(k) ** 2, (-16) ** k)),),
        lambda p, _: -quarter(p) * F(p, 16 * x1(p))),
    "C1_12": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (full(p, lambda k: F(c(k) ** 2 * comb(2 * k, k + 1), (-8) ** k)),),
        lambda p, _: 2 * p - 2 * x1(p) ** 2),
    "C1_13": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (full(p, lambda k: F(c(k) * comb(2 * k, k + 1) ** 2, (-8) ** k)),),
        lambda p, _: -2 * p),
    "CR1_1": Statement(
        lambda p: True,
        lambda p, _: (full(p, lambda k: F((k + 1) * c(k) ** 2, 8**k))
                      + half(p, lambda k: F((2 * k + 1) * c(k) ** 2, (-16) ** k)),),
        lambda p, _: 2 * leg(2, p) * x1(p) if p % 4 == 1 else 0,
        conjectural=lambda p: True),
    "C1_14b": Statement(
        lambda p: True,
        lambda p, _: (full(p, lambda k: F(c(k) ** 2 * comb(3 * k, k), 108**k)),),
        lambda p, _: ETA["b"][p]),
    "C1_14c": Statement(
        lambda p: True,
        lambda p, _: (full(p, lambda k: F(c(k) ** 2 * comb(4 * k, 2 * k), 256**k)),),
        lambda p, _: ETA["c"][p]),
    "C1_15": Statement(
        lambda p: True,
        lambda p, _: (full(p, lambda k: F(c(k) * comb(3 * k, k) * comb(6 * k, 3 * k), 1728**k)),),
        lambda p, _: leg(p, 3) * ETA["a"][p]),
    "C1_19": Statement(
        lambda p: True,
        lambda p, d: (full(p, lambda k: F(c(k) * comb(3 * k, k) * comb(2 * k, k + d), 108**k)),),
        lambda p, d: 0,
        "d", shifts(lambda p: (1 + leg(p, 3)) // 2)),
    "C1_20": Statement(
        lambda p: True,
        lambda p, d: (full(p, lambda k: F(c(k) * comb(4 * k, 2 * k) * comb(2 * k, k + d), 256**k)),),
        lambda p, d: 0,
        "d", shifts(lambda p: (1 + leg(-2, p)) // 2)),
    "C1_21": Statement(
        lambda p: True,
        lambda p, d: (full(p, lambda k: F(comb(3 * k, k) * comb(6 * k, 3 * k)
                                          * comb(2 * k, k + d), 1728**k)),),
        lambda p, d: 0,
        "d", shifts(lambda p: (1 + leg(-1, p)) // 2)),
    "C1_22": Statement(
        lambda p: p % 8 == 3,
        lambda p, _: (full(p, lambda k: F(c(k) ** 2 * comb(4 * k, 2 * k), 256**k)),),
        lambda p, _: ETA["c"][p]),
    "C1_23": Statement(
        lambda p: p % 12 == 5,
        lambda p, _: (full(p, lambda k: F(c(k) * comb(3 * k, k) * comb(6 * k, 3 * k), 1728**k)),),
        lambda p, _: 2 * p - 4 * x1(p) ** 2),
    "C1_24": Statement(
        lambda p: p % 3 == 1,
        lambda p, _: (full(p, lambda k: F(c(k) ** 2 * comb(3 * k, k + 1), 108**k)),),
        lambda p, _: 0),
    "C1_25": Statement(
        lambda p: p % 8 in (1, 3),
        lambda p, _: (full(p, lambda k: F(c(k) * comb(4 * k, 2 * k) * comb(2 * k, k + 1), 256**k)),),
        lambda p, _: 0),
    "C1_26": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (full(p, lambda k: F(comb(3 * k, k) * comb(6 * k, 3 * k)
                                          * comb(2 * k, k + 1), 1728**k)),),
        lambda p, _: 0),
    "CL3_2": Statement(
        lambda p: True,
        # sum_{k<p} (s k + 1)/base^k sum_{i+j=k} C(2i,i)^2 C(2j,j)^2, (s, base) = (1, 8), (2, -16)
        lambda p, part: (full(p, lambda k: F(part * k + 1, (8 if part == 1 else -16) ** k)
                              * sum(c(i) ** 2 * c(k - i) ** 2 for i in range(k + 1))),),
        lambda p, part: p * leg(-1, p),
        "part", lambda p: (1, 2)),
    "CL3_3": Statement(
        lambda p: True,
        lambda p, part: ({
            1: 2 * half(p, lambda k: F(k * c(k) ** 2, 8**k)) + half(p, lambda k: F(c(k) * cat(k), 8**k)),
            2: 8 * half(p, lambda k: F(k * c(k) ** 2, (-16) ** k))
            + half(p, lambda k: F(c(k) * cat(k), (-16) ** k)),
            3: half(p, lambda k: F((2 * k * k + 4 * k + 1) * c(k) ** 2, 8**k)),
            4: half(p, lambda k: F((8 * k * k + 4 * k + 1) * c(k) ** 2, (-16) ** k)),
        }[part],),
        lambda p, part: (2 if part < 3 else 1) * p * p * leg(2 if part % 2 else -1, p),
        "part", lambda p: (1, 2, 3, 4)),
    "CGZ": Statement(
        lambda p: True,
        lambda p, _: (full(p, lambda k: F((3 * k + 1) * c(k) ** 3, (-8) ** k)),),
        lambda p, _: p * leg(-1, p)),
    "CGZ_P4": Statement(
        lambda p: True,
        lambda p, _: (full(p, lambda k: F((3 * k + 1) * c(k) ** 3, (-8) ** k)),),
        lambda p, _: p * leg(-1, p) + p**3 * EULER[p - 3],
        conjectural=lambda p: True),
    "C3_2": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (comb(n_(p), (p - 1) // 4),),
        lambda p, _: F(2 ** (p - 1) + 1, 2) * (2 * x1(p) - F(p, 2 * x1(p)))),
    "C3_3": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (half(p, lambda k: F(c(k) ** 2, 8**k)),
                      half(p, lambda k: F(c(k) ** 2, (-16) ** k))),
        lambda p, _: quarter(p) * (2 * x1(p) - F(p, 2 * x1(p)))),
    "C3_4": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (delannoy(n_(p)),),
        lambda p, _: quarter(p) * (2 * x1(p) - F(p, 2 * x1(p)))),
    "CR3_1": Statement(
        lambda p: p % 4 == 3,
        lambda p, _: (delannoy(n_(p)),),
        lambda p, _: 0),
    "C3_5": Statement(
        lambda p: True,
        lambda p, _: (full(p, lambda k: F(c(k) ** 3, (-8) ** k)),),
        lambda p, _: ETA["a"][p]),
    "C4_1": Statement(
        lambda p: True,
        lambda p, x: (full(p, lambda k: c(k) ** 3 * F(-x, 64) ** k),),
        lambda p, x: leg(x + 1, p) * full(
            p, lambda k: c(k) ** 2 * comb(4 * k, 2 * k) * F(x, 64 * (x + 1) ** 2) ** k),
        "x", lambda p: (1, 2, 3, -2)),
    "CG": Statement(
        lambda p: p % 4 == 1,
        lambda p, _: (comb(n_(p), (p - 1) // 4),),
        lambda p, _: 2 * x1(p)),
    "CM": Statement(
        lambda p: p % 12 == 5,
        lambda p, _: (comb(n_(p), (p - 1) // 4),),
        lambda p, _: 12 * (-432) ** ((p - 5) // 12) * comb((p - 5) // 6, (p - 5) // 12)),
    "C_AHL": Statement(
        lambda p: True,
        lambda p, _: (leg(-1, p) * sum(comb(n_(p), k) ** 2 * comb(n_(p) + k, k) * (-1) ** k
                                       for k in range(n_(p) + 1)),),
        lambda p, _: ETA["c"][p]),
}


def residue(value, m):
    """An integer or a rational with denominator prime to m, reduced mod m."""
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, m) % m


def expected(row_id, p, kexp):
    """The reports the statement of ``row_id`` predicts at p mod p^kexp."""
    st, m = STATEMENTS[row_id], p**kexp
    out = []
    for v in st.params(p):
        params = "" if v is None else f"{st.param}={v}"
        if not st.applies(p):
            out.append((row_id, p, params, m, None, None, "skipped"))
            continue
        chain = [residue(x, m) for x in (*st.members(p, v), st.rhs(p, v))]
        pair = next(((a, b) for a, b in zip(chain, chain[1:]) if a != b), None)
        ok = pair is None
        lhs, rhs = (chain[0], chain[-1]) if ok else pair
        kind = "experimental-" if st.conjectural(p) else ""
        out.append((row_id, p, params, m, lhs, rhs, kind + ("pass" if ok else "fail")))
    return out


def test_every_row_has_a_statement():
    assert list(STATEMENTS) == all_ids()


@pytest.mark.parametrize("p", PRIMES)
def test_statements_match_check_and_suite(p):
    for kexp in (1, 2, 3, 4):
        suite = run_suite([p], all_ids(), mod_exp=dict.fromkeys(all_ids(), kexp))
        want = [r for row_id in STATEMENTS for r in expected(row_id, p, kexp)]
        assert [tuple(r[:7]) for r in suite] == want, (p, kexp)
        for r in want:
            param = int(r[2].split("=")[1]) if r[2] else None
            got = check(r[0], p, param, mod_exp=kexp)
            assert tuple(got[:7]) == r, (p, kexp, r)
