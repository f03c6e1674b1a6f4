"""Exact arithmetic modulo prime powers.

Everything here works with plain integers: residues live in [0, p^k).  The
per-prime ``FactorialTables`` keep n! in factored form p^e * unit with the
unit tracked modulo p^k, so a binomial coefficient C(n, r) is an exact
valuation and a product of three units, never a division by a multiple of p.
Also: primality, Legendre symbols, square roots mod p and Cornacchia's
solution of p = x^2 + d y^2.  Each public function tests primality at most
once; the helpers it calls take the prime as tested.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import index
from typing import NamedTuple

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _integer(name: str, value) -> int:
    """``value`` as an int; TypeError naming ``name`` for a bool or a value that is
    not an integer, a whole float included."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 64-bit range."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi (simple sieve)."""
    if hi < lo or hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, hi + 1, q)))
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m; ValueError if gcd(a, m) != 1."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {m}") from None


def _euler_criterion(a: int, p: int) -> int:
    """(a|p) as a^((p-1)/2) mod p, for an odd prime p that the caller has tested."""
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) via Euler's criterion; p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return _euler_criterion(a, p)


def sqrt_mod(a: int, p: int) -> int | None:
    """Smallest square root of a modulo an odd prime p, or None.

    Tonelli-Shanks.  ValueError if p is not an odd prime, whatever a is.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return _sqrt_mod(a, p)


def _sqrt_mod(a: int, p: int) -> int | None:
    """``sqrt_mod`` for an odd prime p the caller has tested; p = 3 (mod 4) is the loop's s = 1."""
    a %= p
    if a == 0:
        return 0
    if _euler_criterion(a, p) != 1:
        return None
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _euler_criterion(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


class FactorialTables:
    """Per-prime tables giving n! in factored form in O(1) per query.

    val[n] is the p-adic valuation of n!, unit[n] the p-free part of n! modulo
    p^k and inv_unit[n] its inverse.  ``FactorialTables(p, k, limit)`` holds
    all three for n <= ``limit``; ``binomial(n, r)`` reads C(n, r) mod p^k from
    them.  Each list has a reach of its own: a table starts at 0! alone, and
    ``grow`` extends each list in place as far as its readers ask, so one
    table per prime and exponent serves them all, and no entry is made twice.
    A table made with a ``source``, a table of the same prime mod a higher
    power, shares the source's ``val`` list, since v_p(n!) is the same at
    every exponent, and takes the source's units and inverses reduced mod p^k
    as far as the source holds them.  Growing is O(new entries) in whole-list
    passes: the new multiples of p are stripped of their factors p, one slice
    per power of p; ``val`` continues as the running sum of v_p(n), ``unit``
    as the running product of the stripped factors, and the new ``inv_unit``
    entries run down from one inverse of their top unit.  ValueError for
    p < 2, k < 1, limit < 0, or a source of another prime or of no higher
    power; that p is prime is the caller's to know.
    """

    __slots__ = ("p", "k", "pk", "val", "unit", "inv_unit", "source")

    def __init__(self, p: int, k: int, limit: int, source: FactorialTables | None = None):
        for name, value, least in (("p", p, 2), ("k", k, 1), ("limit", limit, 0)):
            if value < least:
                raise ValueError(f"FactorialTables needs {name} >= {least}, got {value}")
        if source is not None and (source.p != p or source.k <= k):
            raise ValueError(f"FactorialTables mod {p}^{k} needs a source of the same prime "
                             f"mod a higher power, got mod {source.p}^{source.k}")
        self.p, self.k, self.pk, self.source = p, k, p**k, source
        self.val = [0] if source is None else source.val
        self.unit, self.inv_unit = [1], [1]  # 0! = 1
        self.grow(limit)

    @property
    def reaches(self) -> tuple[int, int, int]:
        """The largest n that ``val``, ``unit`` and ``inv_unit`` each hold."""
        return len(self.val) - 1, len(self.unit) - 1, len(self.inv_unit) - 1

    @property
    def limit(self) -> int:
        """The largest n whose n! every list holds (``unit`` reaches as far as ``inv_unit``)."""
        return min(len(self.val), len(self.inv_unit)) - 1

    def grow(self, limit: int, unit: int | None = None, inv: int | None = None) -> None:
        """Extend in place ``val`` to n <= limit, ``unit`` to n <= ``unit`` (``limit`` if
        None) and ``inv_unit`` to n <= ``inv`` (``unit`` if None), and ``unit`` to ``inv``:
        the inverses run down from the top unit.  A reach a list has changes nothing.
        With a ``source``, the units and inverses it holds are taken first, reduced
        mod p^k, and only the entries past them are built."""
        p, pk, start = self.p, self.pk, len(self.val)
        unit = limit if unit is None else unit
        inv = unit if inv is None else inv
        if limit >= start:  # e[i] = v_p(start + i)
            e = [0] * (limit + 1 - start)
            q = p
            while q <= limit:
                e[-start % q :: q] = [v + 1 for v in e[-start % q :: q]]
                q *= p
            e[0] += self.val[-1]
            self.val += accumulate(e)
        top = max(unit, inv)
        if self.source is not None:
            self.unit += [u % pk for u in self.source.unit[len(self.unit) : top + 1]]
            self.inv_unit += [u % pk for u in self.source.inv_unit[len(self.inv_unit) : inv + 1]]
        start = len(self.inv_unit)
        if inv < start:  # no inverse to add
            start = len(self.unit)
        if top < start:
            return
        # m[i] is n = start + i with its factors p removed
        m = list(range(start, top + 1))
        q = p
        while q <= top:
            m[-start % q :: q] = [n // p for n in m[-start % q :: q]]
            q *= p
        u = self.unit[-1]
        self.unit += [u := u * n % pk for n in m[len(self.unit) - start :]]
        if inv >= start:  # inv_unit[n - 1] = inv_unit[n] * m[n], from the new top down
            x = last = mod_inverse(self.unit[inv], pk)
            self.inv_unit += [x := x * n % pk for n in m[inv - start : 0 : -1]][::-1]
            self.inv_unit.append(last)

    def binomial(self, n: int, r: int) -> int:
        """C(n, r) mod p^k, the tables grown as far as it reads; 0 when r < 0 or r > n."""
        if not 0 <= r <= n:
            return 0
        self.grow(n, n, max(r, n - r))
        v = self.val[n] - self.val[r] - self.val[n - r]
        return self.p**v * self.unit[n] * self.inv_unit[r] * self.inv_unit[n - r] % self.pk


class QuadraticRepresentation(NamedTuple):
    """p = x^2 + d*y^2 in normalized form.

    For d = 1 (so p ≡ 1 mod 4): x is odd with x ≡ 1 (mod 4) — the sign of x is
    adjusted, so x may be negative — and y is even with y >= 0.  For the other
    d: x > 0 and y >= 0.
    """

    p: int
    d: int
    x: int
    y: int


def represent(p: int, d: int) -> QuadraticRepresentation | None:
    """Solve p = x^2 + d*y^2 for an odd prime p not dividing d, or None.

    Cornacchia's descent seeded with the square root of -d mod p taken in
    (p/2, p); either root yields the same normalized answer.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if p == 2 or (d > 1 and p % d == 0) or not is_prime(p):
        raise ValueError(f"p must be an odd prime not dividing d, got p={p}, d={d}")
    t = _sqrt_mod(-d % p, p)
    if t is None:
        return None
    r = t if 2 * t > p else p - t
    a, b = p, r
    limit = isqrt(p)
    while b > limit:
        a, b = b, a % b
    c = p - b * b
    if c % d:
        return None
    y2 = c // d
    y = isqrt(y2)
    if y * y != y2:
        return None
    x = b
    if d == 1:
        if x % 2 == 0:
            x, y = y, x
        if x % 4 == 3:
            x = -x
    return QuadraticRepresentation(p, d, x, y)

