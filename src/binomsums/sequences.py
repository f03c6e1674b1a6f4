"""Combinatorial sequences and polynomials used by the congruence checks.

Central Delannoy polynomials D_n(x) = sum_k C(n+k,2k) C(2k,k) x^k, Schroeder
polynomials S_n(x) = sum_k C(n+k,2k) C_k x^k (C_k the Catalan numbers), the
companion f_n(x) = sum_k C(n+k,2k) C(2k,k)^2 x^k, and the secant Euler
numbers mod p.  Everything is exact: integer or Fraction arithmetic only, or
an exact residue mod p (``euler_number_mod_p``).  Central binomials modulo p^k
are not streamed here: the congruence engine reads them from the per-prime
factorial tables (``PrimeContext.central``, ``FactorialTables.binomial``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable

Number = int | Fraction


def _central_series(n: int, x: Number, coeff: Callable[[int], int]) -> Number:
    """sum_{k=0..n} C(n+k,2k) coeff(k) x^k, in the type of x^0: for x = a/b, the integer
    sum_k C(n+k,2k) coeff(k) a^k b^(n-k) by Horner's rule, divided by b^n once."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b = x.numerator, x.denominator
    acc, bp = 0, 1
    for k in range(n, -1, -1):
        acc = acc * a + comb(n + k, 2 * k) * coeff(k) * bp
        bp *= b
    return Fraction(acc, bp // b) if isinstance(x, Fraction) else acc


def delannoy_poly(n: int, x: Number) -> Number:
    """D_n(x) = sum_{k=0..n} C(n+k,2k) C(2k,k) x^k."""
    return _central_series(n, x, lambda k: comb(2 * k, k))


def schroder_poly(n: int, x: Number) -> Number:
    """S_n(x) = sum_{k=0..n} C(n+k,2k) C_k x^k with Catalan C_k."""
    return _central_series(n, x, lambda k: comb(2 * k, k) // (k + 1))


def f_poly(n: int, x: Number) -> Number:
    """f_n(x) = sum_{k=0..n} C(n+k,2k) C(2k,k)^2 x^k."""
    return _central_series(n, x, lambda k: comb(2 * k, k) ** 2)


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
