"""Exact verification of the finite binomial-sum identities and recurrences.

Every identity here is checked either as a full polynomial-coefficient
equality (PolynomialZ) or on an exact-rational grid — no sampling, no
floating point.  These identities are what reduce the congruence checks to
closed forms, so they are verified independently of any modular arithmetic.

Each suite only states its checks: it is a generator of ``(witness, holds)``
pairs.  One runner, ``_suite``, counts them up to the first that fails and
builds the ``IdentityRecord``, whose witness names the failing case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from fractions import Fraction
from math import comb

from ._sweeps import SHIFT_FAMILIES
from .sequences import delannoy_poly, f_poly, schroder_poly


class PolynomialZ:
    """Dense single-variable polynomial with exact (int or Fraction) coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def x(cls) -> "PolynomialZ":
        return cls((0, 1))

    @classmethod
    def const(cls, v) -> "PolynomialZ":
        return cls((v,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, PolynomialZ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "PolynomialZ") -> "PolynomialZ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return PolynomialZ(out)

    def __sub__(self, other: "PolynomialZ") -> "PolynomialZ":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, PolynomialZ):
            if not self.coeffs or not other.coeffs:
                return PolynomialZ()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return PolynomialZ(out)
        return PolynomialZ(tuple(other * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "PolynomialZ":
        if e < 0:
            raise ValueError("negative power")
        out = PolynomialZ((1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def evaluate(self, v):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __repr__(self):
        return f"PolynomialZ({self.coeffs})"


_X = PolynomialZ.x()
_X1 = PolynomialZ((1, 1))  # x + 1


@dataclass(frozen=True)
class IdentityRecord:
    """Outcome of one identity suite: pass iff no witness."""

    name: str
    params: str
    checks: int
    status: str
    witness: tuple | None = None


def _suite(name: str, bound: str):
    """Make a generator of checks into the verifier of suite ``name``.

    The generator yields one ``(witness, holds)`` pair per check.  The
    verifier counts the checks up to the first that does not hold and returns
    the record: "fail" with that check's witness, else "pass".  Its params
    read ``bound<=`` the generator's first argument.  A guard that a passing
    run does not count is yielded only when it fails.  The verifier keeps the
    generator's name, signature and docstring; the return annotation the
    generator carries is the verifier's.
    """

    def decorate(checks):
        first = checks.__code__.co_varnames[0]

        @wraps(checks)
        def verify(*args, **kwargs):
            params = f"{bound}<={args[0] if args else kwargs[first]}"
            count = 0
            for count, (witness, holds) in enumerate(checks(*args, **kwargs), 1):
                if not holds:
                    return IdentityRecord(name, params, count, "fail", witness)
            return IdentityRecord(name, params, count, "pass")

        return verify

    return decorate


def _delannoy_polyz(n: int) -> PolynomialZ:
    return PolynomialZ([comb(n + k, 2 * k) * comb(2 * k, k) for k in range(n + 1)])


def _schroder_polyz(n: int) -> PolynomialZ:
    return PolynomialZ([comb(n + k, 2 * k) * comb(2 * k, k) // (k + 1) for k in range(n + 1)])


@_suite("delannoy_square", "n")
def verify_delannoy_square(n_max: int) -> IdentityRecord:
    """f_n(x(x+1)) = D_n(x)^2 as a full coefficient identity for n <= n_max."""
    y = _X * _X1  # x(x+1)
    for n in range(n_max + 1):
        yp = PolynomialZ((1,))
        lhs = PolynomialZ()
        for k in range(n + 1):
            lhs = lhs + (comb(n + k, 2 * k) * comb(2 * k, k) ** 2) * yp
            yp = yp * y
        d = _delannoy_polyz(n)
        yield (n,), lhs == d * d


@_suite("schroder_square", "n")
def verify_schroder_square(n_max: int) -> IdentityRecord:
    """sum_{k=1..n} C(n+k,2k)C(2k,k)C(2k,k+1) x^(k-1)(x+1)^(k+1) = n(n+1)S_n(x)^2."""
    for n in range(1, n_max + 1):
        lhs = PolynomialZ()
        xp = PolynomialZ((1,))  # x^(k-1)
        x1p = _X1 * _X1  # (x+1)^(k+1)
        for k in range(1, n + 1):
            c = comb(n + k, 2 * k) * comb(2 * k, k) * comb(2 * k, k + 1)
            lhs = lhs + c * (xp * x1p)
            xp = xp * _X
            x1p = x1p * _X1
        s = _schroder_polyz(n)
        yield (n,), lhs == (n * (n + 1)) * (s * s)


def _a_coeff(m: int, n: int) -> int:
    return sum(
        comb(n + k, 2 * k)
        * (comb(2 * k, k) // (k + 1))
        * comb(n + m - k, 2 * (m - k))
        * (comb(2 * (m - k), m - k) // (m - k + 1))
        for k in range(m + 1)
    )


def _b_coeff(m: int, n: int) -> int:
    return sum(
        comb(n + k, 2 * k)
        * comb(2 * k, k)
        * comb(2 * k, k + 1)
        * comb(k + 1, m + 1 - k)
        for k in range(1, m + 2)
    )


@_suite("schroder_square_coeffs", "n")
def verify_schroder_square_coefficients(n_max: int, m_max: int | None = None) -> IdentityRecord:
    """Both coefficient families of the squared-Schroeder identity satisfy

        (m+2)(m+3)(m+4) u_{m+2}
            = 2(2mn^2+5n^2+2mn+5n-m^3-6m^2-11m-6) u_{m+1}
              - (m+1)(m-2n)(m+2n+2) u_m

    and the second family equals n(n+1) times the first.  That needs no check
    of its own: the leading coefficient (m+2)(m+3)(m+4) is never 0, so u_0
    and u_1 fix each family, and the anchors b_0 = n(n+1) a_0 and
    b_1 = n(n+1) a_1 with both recursions give b_m = n(n+1) a_m for every m.
    """
    for n in range(1, n_max + 1):
        mm = 2 * n if m_max is None else m_max
        a = [_a_coeff(m, n) for m in range(mm + 3)]
        b = [_b_coeff(m, n) for m in range(mm + 3)]
        if a[0] != 1 or b[0] != n * (n + 1) or a[1] != n * (n + 1) or b[1] != (n * (n + 1)) ** 2:
            yield (n, "anchor"), False
        for u, tag in ((a, "a"), (b, "b")):
            for m in range(mm + 1):
                lhs = (m + 2) * (m + 3) * (m + 4) * u[m + 2]
                rhs = 2 * (
                    2 * m * n * n + 5 * n * n + 2 * m * n + 5 * n
                    - m**3 - 6 * m * m - 11 * m - 6
                ) * u[m + 1] - (m + 1) * (m - 2 * n) * (m + 2 * n + 2) * u[m]
                yield (n, m, tag), lhs == rhs


@_suite("alternating_catalan_sum", "n")
def verify_alternating_catalan_sum(n_max: int) -> IdentityRecord:
    """sum_k C(n+k,2k) C_k /(-2)^k is 0 for even n and (-1)^((n-1)/2) C_((n-1)/2)/2^n for odd n.

    Holds for n >= 1 (at n = 0 the sum is the single term 1).
    """
    for n in range(1, n_max + 1):
        s = sum(
            Fraction(comb(n + k, 2 * k) * (comb(2 * k, k) // (k + 1)), (-2) ** k)
            for k in range(n + 1)
        )
        if n % 2 == 0:
            expect = Fraction(0)
        else:
            h = (n - 1) // 2
            expect = Fraction((-1) ** h * (comb(2 * h, h) // (h + 1)), 2**n)
        yield (n,), s == expect


@_suite("central_sum_reflection", "n")
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
            yield (n, tag), (n + 2) ** 3 * u[n + 2] == 8 * (2 * n + 3) * (
                2 * n * n + 6 * n + 5
            ) * u[n + 1] - 256 * (n + 1) ** 3 * u[n]


@_suite("weighted_central_square_sums", "n")
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
    return sum(
        comb(n + k, 2 * k)
        * (comb(2 * k, k) // (k + 1))
        * comb(2 * (m - k), m - k)
        * (comb(n - 1 + m - k, 2 * (m - k)) + comb(n + 1 + m - k, 2 * (m - k)))
        for k in range(m + 1)
    )


def _d_coeff(m: int, n: int) -> Fraction:
    return sum(
        Fraction(
            comb(n + k, 2 * k) * comb(2 * k, k) ** 2 * comb(k + 1, m - k) * (2 * k + 1),
            (k + 1) ** 2,
        )
        for k in range(m + 1)
    )


@_suite("schroder_delannoy_product", "n")
def verify_schroder_delannoy_product(n_max: int) -> IdentityRecord:
    """sum_k C(n+k,2k)C(2k,k)^2 (2k+1)/(k+1)^2 x^k(x+1)^(k+1)
          = S_n(x)(D_{n-1}(x)+D_{n+1}(x))/2,

    plus the order-2 recursion shared by both coefficient families:

        (m+2)(m+3)^2(m^2+5m+6+4n(n+1)) u_{m+2} + 2 P(m,n) u_{m+1}
            = (m+2)((2n+1)^2-m^2)(m^2+7m+12+4n(n+1)) u_m.
    """
    for n in range(1, n_max + 1):
        lhs = PolynomialZ()
        xp = PolynomialZ((1,))
        x1p = _X1
        for k in range(n + 1):
            c = Fraction(comb(n + k, 2 * k) * comb(2 * k, k) ** 2 * (2 * k + 1), (k + 1) ** 2)
            lhs = lhs + c * (xp * x1p)
            xp = xp * _X
            x1p = x1p * _X1
        prod = _schroder_polyz(n) * (_delannoy_polyz(n - 1) + _delannoy_polyz(n + 1))
        yield (n, "poly"), lhs == Fraction(1, 2) * prod
        # the c-family must also be the coefficient list of the product itself
        cs = [_c_coeff(m, n) for m in range(2 * n + 4)]
        for m in range(2 * n + 2):
            yield (n, m, "c-extraction"), cs[m] == (prod.coeffs[m] if m <= prod.degree else 0)
        ds = [_d_coeff(m, n) for m in range(2 * n + 4)]
        for u, tag in (([Fraction(c, 2) for c in cs], "c"), (ds, "d")):
            for m in range(2 * n + 2):
                a2 = (m + 2) * (m + 3) ** 2 * (m * m + 5 * m + 6 + 4 * n * (n + 1))
                a0 = (m + 2) * ((2 * n + 1) ** 2 - m * m) * (m * m + 7 * m + 12 + 4 * n * (n + 1))
                step = a2 * u[m + 2] + 2 * _recursion_poly(m, n) * u[m + 1]
                yield (n, m, tag), step == a0 * u[m]


@_suite("macmahon_cubes", "n")
def verify_macmahon_cubes(n_max: int) -> IdentityRecord:
    """sum_k C(n,k)^3 x^k = sum_k C(n+k,2k)C(2k,k)C(n-k,k) x^k (1+x)^(n-2k)."""
    for n in range(n_max + 1):
        lhs = PolynomialZ([comb(n, k) ** 3 for k in range(n + 1)])
        rhs = PolynomialZ()
        for k in range(n // 2 + 1):
            c = comb(n + k, 2 * k) * comb(2 * k, k) * comb(n - k, k)
            rhs = rhs + c * ((_X**k) * (_X1 ** (n - 2 * k)))
        yield (n,), lhs == rhs


def _shift_steps(base: int, P: int, d_max: int, *tag: str):
    """The checks of the step relation of ``SHIFT_FAMILIES[base]`` for d <= d_max.

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
         for d in range(d_max + 3)]
    for d in range(d_max + 1):
        rhs = (Fraction(fam.coeff(-P) * (d + 1), base ** (P - 1) * P)
               * comb(2 * P, P + d + 1) * weight(P - 1))
        yield (P, d, *tag), fam.coeff(d) * u[d] - fam.coeff(d + 1) * u[d + 2] == rhs


@_suite("shift_step_base64", "P")
def verify_shift_step_base64(p_max: int, d_max: int | None = None) -> IdentityRecord:
    """(2d+1)^2 u_d - (2d+3)^2 u_{d+2}
          = (2P-1)^2 (d+1) / (64^(P-1) P) * C(2P,P+d+1) C(2P-2,P-1)^2

    for u_d = sum_{k<P} C(2k,k)^2 C(2k,k+d)/64^k, P a free integer parameter.
    The coefficients are read from the shift engine's ``SHIFT_FAMILIES``.
    """
    for P in range(2, p_max + 1):
        yield from _shift_steps(64, P, 2 * P if d_max is None else d_max)


@_suite("shift_step_threeproduct", "P")
def verify_shift_step_threeproduct(p_max: int, d_max: int | None = None) -> IdentityRecord:
    """The d -> d+2 step relations for the three-binomial sums over 108^k,
    256^k and 1728^k, e.g.

        (3d+1)(3d+2) f(d) - (3d+4)(3d+5) f(d+2)
            = (3P-1)(3P-2)(d+1)/(108^(P-1) P) * C(2P,P+d+1) C(2P-2,P-1) C(3P-3,P-1),

    with the coefficients read from the shift engine's ``SHIFT_FAMILIES``.
    """
    for P in range(2, p_max + 1):
        for base in (108, 256, 1728):
            yield from _shift_steps(base, P, 2 * P if d_max is None else d_max, str(base))


@_suite("small_identities", "k,n")
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


# suite name -> (verifier, kind of bound it consumes)
SUITES = {
    "delannoy_square": (verify_delannoy_square, "n", 25),
    "schroder_square": (verify_schroder_square, "n", 25),
    "schroder_square_coeffs": (verify_schroder_square_coefficients, "n", 10),
    "alternating_catalan_sum": (verify_alternating_catalan_sum, "n", 100),
    "central_sum_reflection": (verify_central_sum_reflection, "n", 60),
    "weighted_central_square_sums": (verify_weighted_central_square_sums, "n", 100),
    "schroder_delannoy_product": (verify_schroder_delannoy_product, "n", 15),
    "macmahon_cubes": (verify_macmahon_cubes, "n", 25),
    "shift_step_base64": (verify_shift_step_base64, "P", 10),
    "shift_step_threeproduct": (verify_shift_step_threeproduct, "P", 8),
    "small_identities": (verify_small_identities, "n", 100),
}


def run_identity_suite(
    grid_n: int | None = None,
    grid_p: int | None = None,
    names: list[str] | None = None,
) -> list[IdentityRecord]:
    """Run the identity suites at their default bounds.

    grid_n / grid_p override every n-indexed / P-indexed bound uniformly;
    the defaults are the per-suite values in SUITES.
    """
    out = []
    for name in names if names is not None else SUITES:
        if name not in SUITES:
            raise ValueError(f"unknown identity suite {name!r} (known: {', '.join(SUITES)})")
        fn, kind, default = SUITES[name]
        bound = grid_n if kind == "n" else grid_p
        out.append(fn(default if bound is None else bound))
    return out


def cross_check_polynomials(n_max: int = 12) -> bool:
    """The polynomial builders here agree with the direct evaluators."""
    return all(
        _delannoy_polyz(n).evaluate(x) == delannoy_poly(n, x)
        and _schroder_polyz(n).evaluate(x) == schroder_poly(n, x)
        and f_poly(n, x * (x + 1)) == delannoy_poly(n, x) ** 2
        for n in range(n_max + 1)
        for x in (1, 2, Fraction(-1, 2), Fraction(3, 7))
    )
