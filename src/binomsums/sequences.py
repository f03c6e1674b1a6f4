"""Combinatorial sequences and polynomials used by the congruence checks.

Central Delannoy polynomials D_n(x) = sum_k C(n+k,2k) C(2k,k) x^k, Schroeder
polynomials S_n(x) = sum_k C(n+k,2k) C_k x^k (C_k the Catalan numbers), the
companion f_n(x) = sum_k C(n+k,2k) C(2k,k)^2 x^k, and the secant Euler
numbers mod p.  Each polynomial is defined once, by its coefficient list, and
evaluated by ``horner``; the identity suites read the same lists.  Everything
is exact: integer or Fraction arithmetic only, or an exact residue mod p
(``euler_number_mod_p``).  Central binomials modulo p^k are not streamed
here: the congruence engine reads them from the per-prime factorial tables
(``PrimeContext.power``, ``FactorialTables.binomial``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

Number = int | Fraction


def horner(coeffs: list[int], x: Number) -> Number:
    """The polynomial with the coefficient list ``coeffs``, constant first, at x, in the
    type of x^0: for x = a/b, the integer sum_k coeffs[k] a^k b^(D-k) by Horner's rule,
    divided by b^D once."""
    a, b = x.numerator, x.denominator
    acc, bp = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * bp
        bp *= b
    return Fraction(acc * b, bp) if isinstance(x, Fraction) else acc


def _central_coeffs(n: int, coeff) -> list[int]:
    """C(n+k,2k) coeff(k) for k = 0..n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [comb(n + k, 2 * k) * coeff(k) for k in range(n + 1)]


def delannoy_coeffs(n: int) -> list[int]:
    """The coefficients C(n+k,2k) C(2k,k) of D_n(x)."""
    return _central_coeffs(n, lambda k: comb(2 * k, k))


def schroder_coeffs(n: int) -> list[int]:
    """The coefficients C(n+k,2k) C_k of S_n(x), C_k the Catalan numbers."""
    return _central_coeffs(n, lambda k: comb(2 * k, k) // (k + 1))


def f_coeffs(n: int) -> list[int]:
    """The coefficients C(n+k,2k) C(2k,k)^2 of f_n(x)."""
    return _central_coeffs(n, lambda k: comb(2 * k, k) ** 2)


def delannoy_poly(n: int, x: Number) -> Number:
    """D_n(x) = sum_{k=0..n} C(n+k,2k) C(2k,k) x^k."""
    return horner(delannoy_coeffs(n), x)


def schroder_poly(n: int, x: Number) -> Number:
    """S_n(x) = sum_{k=0..n} C(n+k,2k) C_k x^k with Catalan C_k."""
    return horner(schroder_coeffs(n), x)


def f_poly(n: int, x: Number) -> Number:
    """f_n(x) = sum_{k=0..n} C(n+k,2k) C(2k,k)^2 x^k."""
    return horner(f_coeffs(n), x)


def euler_number_mod_p(n: int, p: int) -> int:
    """E_n mod an odd prime p in (p-1)/2 modular powers, without the exact numbers.

    E_n = 2^n E_n(1/2) and E_n(x) + E_n(x+1) = 2 x^n give
    sum_{k<p} (-1)^k (2k+1)^n = (E_n + 2^n E_n(1/2 + p)) / 2, and the Euler
    polynomials have p-integral coefficients, so the sum is E_n mod p.  Its
    terms at k and p-1-k are equal for even n and cancel for odd n, and the
    one at k = (p-1)/2 is (-1)^k p^n, so only the k < (p-1)/2 are summed.
    """
    powers = [pow(m, n, p) for m in range(1, p - 1, 2)] if n % 2 == 0 else []  # m = 2k+1
    return (2 * (sum(powers[::2]) - sum(powers[1::2])) + (-1) ** (p // 2) * pow(p, n, p)) % p
