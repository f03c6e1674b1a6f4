"""Exact verification of the finite binomial-sum identities and recurrences.

A polynomial identity is proved by evaluation: two polynomials of degree at
most D that agree at the D + 1 points x = 0..D are equal.  So each side is
evaluated exactly at those points, by Horner's rule over its coefficient
list, with D read from the lengths of the lists compared.  D_n, S_n and f_n
are ``sequences``' own lists, the ones its evaluators read.  The other
identities are checked on an exact-rational grid.  No sampling, no floating
point.  These identities are what reduce the congruence checks to closed
forms, so they are verified independently of any modular arithmetic.

Each suite only states its checks: it is a generator of ``(witness, holds)``
pairs.  One runner, ``_suite``, counts them up to the first that fails and
builds the ``IdentityRecord``, whose witness names the failing case.  It also
enters the suite in ``SUITES``, so definition order is the run order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from fractions import Fraction
from itertools import zip_longest
from math import comb

from ._sweeps import SHIFT_FAMILIES
from .arith import _integer
from .sequences import (delannoy_coeffs, delannoy_poly, f_coeffs, horner, schroder_coeffs,
                        schroder_poly)


@dataclass(frozen=True)
class IdentityRecord:
    """Outcome of one identity suite: pass iff no witness."""

    name: str
    params: str
    checks: int
    status: str
    witness: tuple | None = None


# suite name -> (verifier, the bound it reads, its default), filled by ``_suite``
SUITES: dict[str, tuple] = {}


def _bound(name: str, value, least: int) -> int:
    """``value``, the bound named ``name``, as an int if it is an integer >= ``least``."""
    value = _integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _suite(name: str, bound: str, default: int):
    """Make a generator of checks into the verifier of suite ``name``, entered in
    ``SUITES`` with its ``default`` bound.

    The generator yields one ``(witness, holds)`` pair per check.  The
    verifier counts the checks up to the first that does not hold and returns
    the record: "fail" with that check's witness, else "pass".  Its params
    read ``bound<=`` the generator's first argument, which must be an integer
    >= 0 and is passed on as an int.  A guard that a passing run does not
    count is yielded only when it fails.  The verifier keeps the generator's
    name, signature and docstring; the return annotation the generator
    carries is the verifier's.
    """

    def decorate(checks):
        first = checks.__code__.co_varnames[0]

        @wraps(checks)
        def verify(*args, **kwargs):
            if not args and first not in kwargs:  # as a plain call would say
                raise TypeError(f"{verify.__name__}() missing 1 required positional "
                                f"argument: {first!r}")
            top = _bound(first, args[0] if args else kwargs.pop(first), 0)
            params, count = f"{bound}<={top}", 0
            for count, (witness, holds) in enumerate(checks(top, *args[1:], **kwargs), 1):
                if not holds:
                    return IdentityRecord(name, params, count, "fail", witness)
            return IdentityRecord(name, params, count, "pass")

        SUITES[name] = (verify, bound, default)
        return verify

    return decorate


def _convolve(a: list, b: list) -> list:
    """The coefficient list of the product of the polynomials ``a`` and ``b``."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


@_suite("delannoy_square", "n", 25)
def verify_delannoy_square(n_max: int) -> IdentityRecord:
    """f_n(x(x+1)) = D_n(x)^2 as a polynomial identity for n <= n_max."""
    for n in range(n_max + 1):
        f, d = f_coeffs(n), delannoy_coeffs(n)
        # both sides have degree <= D = 2 max(len(f), len(d)) - 2: check x = 0..D
        yield (n,), all(horner(f, x * (x + 1)) == horner(d, x) ** 2
                        for x in range(2 * max(len(f), len(d)) - 1))


@_suite("schroder_square", "n", 25)
def verify_schroder_square(n_max: int) -> IdentityRecord:
    """sum_{k=1..n} C(n+k,2k)C(2k,k)C(2k,k+1) x^(k-1)(x+1)^(k+1) = n(n+1)S_n(x)^2."""
    for n in range(1, n_max + 1):
        c = [comb(n + k, 2 * k) * comb(2 * k, k) * comb(2 * k, k + 1) for k in range(1, n + 1)]
        s = schroder_coeffs(n)
        # x^(k-1) (x+1)^(k+1) = (x+1)^2 y^(k-1) with y = x(x+1)
        # both sides have degree <= D = 2 max(len(c), len(s) - 1): check x = 0..D
        yield (n,), all((x + 1) ** 2 * horner(c, x * (x + 1)) == n * (n + 1) * horner(s, x) ** 2
                        for x in range(2 * max(len(c), len(s) - 1) + 1))


def _a_coeff(m: int, n: int) -> int:
    return sum(comb(n + k, 2 * k) * (comb(2 * k, k) // (k + 1)) * comb(n + m - k, 2 * (m - k))
               * (comb(2 * (m - k), m - k) // (m - k + 1)) for k in range(m + 1))


def _b_coeff(m: int, n: int) -> int:
    return sum(comb(n + k, 2 * k) * comb(2 * k, k) * comb(2 * k, k + 1) * comb(k + 1, m + 1 - k)
               for k in range(1, m + 2))


@_suite("schroder_square_coeffs", "n", 10)
def verify_schroder_square_coefficients(n_max: int) -> IdentityRecord:
    """Both coefficient families of the squared-Schroeder identity satisfy

        (m+2)(m+3)(m+4) u_{m+2}
            = 2(2mn^2+5n^2+2mn+5n-m^3-6m^2-11m-6) u_{m+1}
              - (m+1)(m-2n)(m+2n+2) u_m

    for m <= 2n, and the second family equals n(n+1) times the first.  That
    needs no check of its own: the leading coefficient (m+2)(m+3)(m+4) is
    never 0, so u_0 and u_1 fix each family, and the anchors b_0 = n(n+1) a_0
    and b_1 = n(n+1) a_1 with both recursions give b_m = n(n+1) a_m for every m.
    """
    for n in range(1, n_max + 1):
        a = [_a_coeff(m, n) for m in range(2 * n + 3)]
        b = [_b_coeff(m, n) for m in range(2 * n + 3)]
        if a[0] != 1 or b[0] != n * (n + 1) or a[1] != n * (n + 1) or b[1] != (n * (n + 1)) ** 2:
            yield (n, "anchor"), False
        for u, tag in ((a, "a"), (b, "b")):
            for m in range(2 * n + 1):
                lhs = (m + 2) * (m + 3) * (m + 4) * u[m + 2]
                rhs = (2 * (2 * m * n * n + 5 * n * n + 2 * m * n + 5 * n - m**3 - 6 * m * m
                            - 11 * m - 6) * u[m + 1]
                       - (m + 1) * (m - 2 * n) * (m + 2 * n + 2) * u[m])
                yield (n, m, tag), lhs == rhs


@_suite("alternating_catalan_sum", "n", 100)
def verify_alternating_catalan_sum(n_max: int) -> IdentityRecord:
    """sum_k C(n+k,2k) C_k /(-2)^k is 0 for even n and (-1)^((n-1)/2) C_((n-1)/2)/2^n for odd n.

    Holds for n >= 1 (at n = 0 the sum is the single term 1).  Checked in integers, times 2^n.
    """
    for n in range(1, n_max + 1):
        s = sum(comb(n + k, 2 * k) * (comb(2 * k, k) // (k + 1)) * (-1) ** k << (n - k)
                for k in range(n + 1))
        h = (n - 1) // 2
        yield (n,), s == ((-1) ** h * (comb(2 * h, h) // (h + 1)) if n % 2 else 0)


@_suite("central_sum_reflection", "n", 60)
def verify_central_sum_reflection(n_max: int) -> IdentityRecord:
    """sum_k C(2k,k)^3 C(k,n-k)(-16)^(n-k) = sum_k C(2k,k)^2 C(2(n-k),n-k)^2,

    and both sides satisfy (n+2)^3 u_{n+2} = 8(2n+3)(2n^2+6n+5) u_{n+1} - 256(n+1)^3 u_n.
    """
    lhs = [sum(comb(2 * k, k) ** 3 * comb(k, n - k) * (-16) ** (n - k)
               for k in range((n + 1) // 2, n + 1)) for n in range(n_max + 1)]
    rhs = [sum(comb(2 * k, k) ** 2 * comb(2 * (n - k), n - k) ** 2 for k in range(n + 1))
           for n in range(n_max + 1)]
    if n_max >= 1 and (lhs[0] != 1 or lhs[1] != 8):
        yield ("anchor",), False
    for n in range(n_max + 1):
        yield (n,), lhs[n] == rhs[n]
    for u, tag in ((lhs, "lhs"), (rhs, "rhs")):
        for n in range(n_max - 1):
            yield (n, tag), (n + 2) ** 3 * u[n + 2] == (
                8 * (2 * n + 3) * (2 * n * n + 6 * n + 5) * u[n + 1] - 256 * (n + 1) ** 3 * u[n])


@_suite("weighted_central_square_sums", "n", 100)
def verify_weighted_central_square_sums(n_max: int) -> IdentityRecord:
    """Four closed forms for weighted partial sums of C(2k,k)^2 over 8^k and (-16)^k:

        sum (2k + 1/(k+1)) C(2k,k)^2/8^k     = (2n+1)^2 C(2n,n)^2 / ((n+1) 8^n)
        sum (8k + 1/(k+1)) C(2k,k)^2/(-16)^k = (2n+1)^2 C(2n,n)^2 / ((n+1)(-16)^n)
        sum (2k^2+4k+1) C(2k,k)^2/8^k        = (2n+1)^2 C(2n,n)^2 / 8^n
        sum (8k^2+4k+1) C(2k,k)^2/(-16)^k    = (2n+1)^2 C(2n,n)^2 / (-16)^n
    """
    s = [Fraction(0)] * 4
    for n in range(n_max + 1):
        c2 = comb(2 * n, n) ** 2
        s[0] += Fraction((2 * n * (n + 1) + 1) * c2, (n + 1) * 8**n)
        s[1] += Fraction((8 * n * (n + 1) + 1) * c2, (n + 1) * (-16) ** n)
        s[2] += Fraction((2 * n * n + 4 * n + 1) * c2, 8**n)
        s[3] += Fraction((8 * n * n + 4 * n + 1) * c2, (-16) ** n)
        t = (2 * n + 1) ** 2 * c2
        closed = (Fraction(t, (n + 1) * 8**n), Fraction(t, (n + 1) * (-16) ** n),
                  Fraction(t, 8**n), Fraction(t, (-16) ** n))
        for i in range(4):
            yield (n, i), s[i] == closed[i]


def _recursion_poly(m: int, n: int) -> int:
    # quintic-in-m coupling polynomial; the n^4 coefficient is -20 (with +20
    # the recursion already fails against the anchor coefficients 1, 10, 38)
    return (
        m**5 + 11 * m**4 + 45 * m**3 + 83 * m * m + 64 * m + 12
        - 20 * n**4 - 40 * n**3 - 58 * n * n - 38 * n
        - 25 * m * n + m * m * n + 2 * m**3 * n
        - 33 * m * n * n + m * m * n * n + 2 * m**3 * n * n
        - 16 * m * n**3 - 8 * m * n**4
    )


def _c_coeff(m: int, n: int) -> int:
    return sum(comb(n + k, 2 * k) * (comb(2 * k, k) // (k + 1)) * comb(2 * (m - k), m - k)
               * (comb(n - 1 + m - k, 2 * (m - k)) + comb(n + 1 + m - k, 2 * (m - k)))
               for k in range(m + 1))


def _d_coeff(m: int, n: int) -> int:
    return sum(comb(n + k, 2 * k) * (comb(2 * k, k) // (k + 1)) ** 2 * comb(k + 1, m - k)
               * (2 * k + 1) for k in range(m + 1))


@_suite("schroder_delannoy_product", "n", 15)
def verify_schroder_delannoy_product(n_max: int) -> IdentityRecord:
    """sum_k C(n+k,2k)C(2k,k)^2 (2k+1)/(k+1)^2 x^k(x+1)^(k+1)
          = S_n(x)(D_{n-1}(x)+D_{n+1}(x))/2,

    plus the order-2 recursion shared by both coefficient families:

        (m+2)(m+3)^2(m^2+5m+6+4n(n+1)) u_{m+2} + 2 P(m,n) u_{m+1}
            = (m+2)((2n+1)^2-m^2)(m^2+7m+12+4n(n+1)) u_m.

    Checked in integers: C(2k,k)^2/(k+1)^2 is the squared Catalan number C_k^2,
    and the c-family's recursion, linear and homogeneous, is checked on the
    coefficients of the product itself, twice the left side's.
    """
    for n in range(1, n_max + 1):
        c = [comb(n + k, 2 * k) * (comb(2 * k, k) // (k + 1)) ** 2 * (2 * k + 1)
             for k in range(n + 1)]
        prod = _convolve(schroder_coeffs(n), [u + v for u, v in zip_longest(
            delannoy_coeffs(n - 1), delannoy_coeffs(n + 1), fillvalue=0)])
        # x^k (x+1)^(k+1) = (x+1) y^k with y = x(x+1)
        # both sides have degree <= D = max(2 len(c) - 1, len(prod) - 1): check x = 0..D
        yield (n, "poly"), all(2 * (x + 1) * horner(c, x * (x + 1)) == horner(prod, x)
                               for x in range(max(2 * len(c), len(prod))))
        # the c-family must also be the coefficient list of the product itself
        cs = [_c_coeff(m, n) for m in range(2 * n + 4)]
        for m in range(2 * n + 2):
            yield (n, m, "c-extraction"), cs[m] == (prod[m] if m < len(prod) else 0)
        ds = [_d_coeff(m, n) for m in range(2 * n + 4)]
        for u, tag in ((cs, "c"), (ds, "d")):
            for m in range(2 * n + 2):
                a2 = (m + 2) * (m + 3) ** 2 * (m * m + 5 * m + 6 + 4 * n * (n + 1))
                a0 = (m + 2) * ((2 * n + 1) ** 2 - m * m) * (m * m + 7 * m + 12 + 4 * n * (n + 1))
                step = a2 * u[m + 2] + 2 * _recursion_poly(m, n) * u[m + 1]
                yield (n, m, tag), step == a0 * u[m]


@_suite("macmahon_cubes", "n", 25)
def verify_macmahon_cubes(n_max: int) -> IdentityRecord:
    """sum_k C(n,k)^3 x^k = sum_k C(n+k,2k)C(2k,k)C(n-k,k) x^k (1+x)^(n-2k)."""
    for n in range(n_max + 1):
        cubes = [comb(n, k) ** 3 for k in range(n + 1)]
        c = [comb(n + k, 2 * k) * comb(2 * k, k) * comb(n - k, k) for k in range(n // 2 + 1)]
        # each x^k (1+x)^(n-2k) has degree n - k, so both sides have degree
        # <= D = max(len(cubes) - 1, n): check x = 0..D
        yield (n,), all(horner(cubes, x) == sum(ck * x**k * (1 + x) ** (n - 2 * k)
                                                 for k, ck in enumerate(c))
                        for x in range(max(len(cubes), n + 1)))


def _shift_steps(base: int, P: int, *tag: str):
    """The checks of the step relation of ``SHIFT_FAMILIES[base]`` for d <= 2P.

    With W(k) the family's binomial product and u_d = sum_{k<P} C(2k,k+d)
    W(k)/base^k, the relation is

        c(d) u_d - c(d+1) u_{d+2} = c(-P) (d+1) / (base^(P-1) P)
                                     * C(2P,P+d+1) W(P-1).

    Each check's witness is (P, d, *tag).
    """
    fam = SHIFT_FAMILIES[base]
    (a, b), (c, e) = fam.binomials

    def weight(k: int) -> int:
        return comb(a * k, b * k) * comb(c * k, e * k)

    u = [sum(Fraction(comb(2 * k, k + d) * weight(k), base**k) for k in range(P))
         for d in range(2 * P + 3)]
    for d in range(2 * P + 1):
        rhs = (Fraction(fam.coeff(-P) * (d + 1), base ** (P - 1) * P)
               * comb(2 * P, P + d + 1) * weight(P - 1))
        yield (P, d, *tag), fam.coeff(d) * u[d] - fam.coeff(d + 1) * u[d + 2] == rhs


@_suite("shift_step_base64", "P", 10)
def verify_shift_step_base64(p_max: int) -> IdentityRecord:
    """(2d+1)^2 u_d - (2d+3)^2 u_{d+2}
          = (2P-1)^2 (d+1) / (64^(P-1) P) * C(2P,P+d+1) C(2P-2,P-1)^2

    for u_d = sum_{k<P} C(2k,k)^2 C(2k,k+d)/64^k, P a free integer parameter.
    The coefficients are read from the shift engine's ``SHIFT_FAMILIES``.
    """
    for P in range(2, p_max + 1):
        yield from _shift_steps(64, P)


@_suite("shift_step_threeproduct", "P", 8)
def verify_shift_step_threeproduct(p_max: int) -> IdentityRecord:
    """The d -> d+2 step relations for the three-binomial sums over 108^k,
    256^k and 1728^k, e.g.

        (3d+1)(3d+2) f(d) - (3d+4)(3d+5) f(d+2)
            = (3P-1)(3P-2)(d+1)/(108^(P-1) P) * C(2P,P+d+1) C(2P-2,P-1) C(3P-3,P-1),

    with the coefficients read from the shift engine's ``SHIFT_FAMILIES``.
    """
    for P in range(2, p_max + 1):
        for base in (108, 256, 1728):
            yield from _shift_steps(base, P, str(base))


@_suite("small_identities", "k,n", 100)
def verify_small_identities(n_max: int) -> IdentityRecord:
    """Index-wise identities used to rewrite sums:

        (i)   C(2k,k) C(3k,k+1) = 2 C(2k,k+1) C(3k,k)
        (ii)  C(2k,k+1)^2 = (1 - (2k+1)/(k+1)^2) C(2k,k)^2
        (iii) D_{2n}(-1/2) = C(2n,n)/(-4)^n
        (iv)  n (D_{n-1} + D_{n+1}) = 2n (3 D_n - S_n)   at x = 1
    """
    for k in range(n_max + 1):
        c, c1 = comb(2 * k, k), comb(2 * k, k + 1)
        yield ("i", k), c * comb(3 * k, k + 1) == 2 * c1 * comb(3 * k, k)
        yield ("ii", k), Fraction(c1**2) == (1 - Fraction(2 * k + 1, (k + 1) ** 2)) * c**2
    for n in range(n_max + 1):
        expect = Fraction(comb(2 * n, n), (-4) ** n)
        yield ("iii", n), delannoy_poly(2 * n, Fraction(-1, 2)) == expect
    d = [delannoy_poly(m, 1) for m in range(n_max + 2)]
    for n in range(1, n_max + 1):
        yield ("iv", n), n * (d[n - 1] + d[n + 1]) == 2 * n * (3 * d[n] - schroder_poly(n, 1))


def run_identity_suite(grid_n: int | None = None, grid_p: int | None = None,
                       names: list[str] | None = None) -> list[IdentityRecord]:
    """Run the identity suites at their default bounds, each named suite once.

    grid_n / grid_p override every n-indexed / P-indexed bound uniformly and
    must be integers >= 1 / >= 2, as on the command line; the defaults are
    the per-suite values in SUITES.  A name given twice runs once, where it
    first appears.
    """
    grid_n = None if grid_n is None else _bound("grid_n", grid_n, 1)
    grid_p = None if grid_p is None else _bound("grid_p", grid_p, 2)
    out = []
    for name in SUITES if names is None else dict.fromkeys(names):
        if name not in SUITES:
            raise ValueError(f"unknown identity suite {name!r} (known: {', '.join(SUITES)})")
        fn, bound, default = SUITES[name]
        top = grid_p if bound == "P" else grid_n
        out.append(fn(default if top is None else top))
    return out

