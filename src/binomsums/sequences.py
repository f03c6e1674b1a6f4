"""Combinatorial sequences and polynomials used by the congruence checks.

Central Delannoy polynomials D_n(x) = sum_k C(n+k,2k) C(2k,k) x^k, Schroeder
polynomials S_n(x) = sum_k C(n+k,2k) C_k x^k (C_k the Catalan numbers), the
companion f_n(x) = sum_k C(n+k,2k) C(2k,k)^2 x^k, and the secant Euler
numbers.  Everything is exact: integer or Fraction arithmetic only, or an
exact residue mod p (``euler_number_mod_p``).  Central binomials modulo p^k
are not streamed here: the congruence engine reads them from the per-prime
factorial tables (``PrimeContext.central``, ``FactorialTables.binomial``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

Number = int | Fraction

KINDS = ("central_binomial", "catalan", "delannoy", "schroder", "euler")


def delannoy_poly(n: int, x: Number) -> Number:
    """D_n(x) = sum_{k=0..n} C(n+k,2k) C(2k,k) x^k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = 0
    xp = x**0
    for k in range(n + 1):
        acc += comb(n + k, 2 * k) * comb(2 * k, k) * xp
        xp = xp * x
    return acc


def schroder_poly(n: int, x: Number) -> Number:
    """S_n(x) = sum_{k=0..n} C(n+k,2k) C_k x^k with Catalan C_k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = 0
    xp = x**0
    for k in range(n + 1):
        acc += comb(n + k, 2 * k) * (comb(2 * k, k) // (k + 1)) * xp
        xp = xp * x
    return acc


def f_poly(n: int, x: Number) -> Number:
    """f_n(x) = sum_{k=0..n} C(n+k,2k) C(2k,k)^2 x^k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = 0
    xp = x**0
    for k in range(n + 1):
        acc += comb(n + k, 2 * k) * comb(2 * k, k) ** 2 * xp
        xp = xp * x
    return acc


def euler_numbers(limit: int) -> list[int]:
    """Secant Euler numbers E_0..E_limit.

    E_0 = 1 and sum over even k <= n of C(n,k) E_{n-k} = 0 for n >= 1, which
    forces E_n = 0 for odd n.
    """
    e = [0] * (limit + 1)
    e[0] = 1
    for n in range(1, limit + 1):
        e[n] = -sum(comb(n, k) * e[n - k] for k in range(2, n + 1, 2))
    return e


def euler_number_mod_p(n: int, p: int) -> int:
    """E_n mod an odd prime p in O(p) modular powers, without the exact table.

    E_n = 2^n E_n(1/2) and E_n(x) + E_n(x+1) = 2 x^n give
    sum_{k<p} (-1)^k (2k+1)^n = (E_n + 2^n E_n(1/2 + p)) / 2, and the Euler
    polynomials have p-integral coefficients, so the sum is E_n mod p.
    """
    return sum((-1) ** k * pow(2 * k + 1, n, p) for k in range(p)) % p


@dataclass(frozen=True)
class SequenceTable:
    """An exact integer prefix of a named sequence, index 0..limit."""

    kind: str
    values: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


def sequence_table(kind: str, limit: int) -> SequenceTable:
    """Exact values 0..limit of one of the named sequences.

    Tables are built from the defining sums, not from the recurrences, so the
    recurrence tests exercise something independent.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if kind == "central_binomial":
        vals = [comb(2 * n, n) for n in range(limit + 1)]
    elif kind == "catalan":
        vals = [comb(2 * n, n) // (n + 1) for n in range(limit + 1)]
    elif kind == "delannoy":
        vals = [delannoy_poly(n, 1) for n in range(limit + 1)]
    elif kind == "schroder":
        vals = [schroder_poly(n, 1) for n in range(limit + 1)]
    elif kind == "euler":
        vals = euler_numbers(limit)
    else:
        raise ValueError(f"unknown sequence kind {kind!r}; expected one of {KINDS}")
    return SequenceTable(kind, tuple(vals))
