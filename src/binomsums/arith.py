"""Exact arithmetic modulo prime powers.

Everything here works with plain integers: residues live in [0, p^k), and
quantities that may carry powers of p (factorials, binomial coefficients) are
kept in factored form sign * p^e * unit with the unit tracked modulo p^k.  A
factored value represents the underlying integer exactly modulo p^(e+k), so
exact division by p^j never loses information.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) via Euler's criterion; p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def sqrt_mod(a: int, p: int) -> int | None:
    """Smallest square root of a modulo an odd prime p, or None.

    Tonelli-Shanks, with the usual p % 4 == 3 shortcut.
    """
    a %= p
    if a == 0:
        return 0
    if legendre_symbol(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
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


def fermat_quotient_2(p: int, k: int = 1) -> "PrimePowerResidue":
    """(2^(p-1) - 1)/p reduced modulo p^k."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if not 1 <= k <= 4:
        raise ValueError("exponent k must be in 1..4")
    t = pow(2, p - 1, p ** (k + 1))
    return PrimePowerResidue(p, k, (t - 1) // p)


class PrimePowerResidue:
    """A residue in Z/p^k, k in 1..4.  Immutable; all ops return new values."""

    __slots__ = ("p", "k", "modulus", "value")

    def __init__(self, p: int, k: int, value: int):
        if not 1 <= k <= 4:
            raise ValueError("exponent k must be in 1..4")
        self.p = p
        self.k = k
        self.modulus = p**k
        self.value = value % self.modulus

    def _match(self, other: "PrimePowerResidue") -> None:
        if self.p != other.p or self.k != other.k:
            raise ValueError("mixed moduli")

    def __add__(self, other):
        if isinstance(other, int):
            return PrimePowerResidue(self.p, self.k, self.value + other)
        self._match(other)
        return PrimePowerResidue(self.p, self.k, self.value + other.value)

    def __sub__(self, other):
        if isinstance(other, int):
            return PrimePowerResidue(self.p, self.k, self.value - other)
        self._match(other)
        return PrimePowerResidue(self.p, self.k, self.value - other.value)

    def __mul__(self, other):
        if isinstance(other, int):
            return PrimePowerResidue(self.p, self.k, self.value * other)
        self._match(other)
        return PrimePowerResidue(self.p, self.k, self.value * other.value)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return PrimePowerResidue(self.p, self.k, -self.value)

    def inverse(self) -> "PrimePowerResidue":
        return PrimePowerResidue(self.p, self.k, mod_inverse(self.value, self.modulus))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.value == other % self.modulus
        return (
            isinstance(other, PrimePowerResidue)
            and self.p == other.p
            and self.k == other.k
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.p, self.k, self.value))

    def __int__(self) -> int:
        return self.value

    def __repr__(self):
        return f"PrimePowerResidue({self.p}, {self.k}, {self.value})"


def strip_p(n: int, p: int) -> tuple[int, int]:
    """Return (e, u) with n = p^e * u and p not dividing u; n > 0."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


class FactoredResidue:
    """sign * p^valuation * unit with the unit known modulo p^k.

    Represents the underlying integer exactly modulo p^(valuation + k), so
    multiplying and exactly dividing by integers never loses precision.
    Addition is deliberately unsupported: reduce to PrimePowerResidue first.
    """

    __slots__ = ("p", "k", "pk", "is_zero", "sign", "valuation", "unit_value")

    def __init__(self, p: int, k: int, sign: int, valuation: int, unit_value: int, is_zero: bool = False):
        self.p = p
        self.k = k
        self.pk = p**k
        self.is_zero = is_zero
        if is_zero:
            self.sign, self.valuation, self.unit_value = 1, 0, 0
            return
        if valuation < 0:
            raise ValueError("negative valuation")
        if unit_value % p == 0:
            raise ValueError("unit divisible by p")
        self.sign = 1 if sign >= 0 else -1
        self.valuation = valuation
        self.unit_value = unit_value % self.pk

    @classmethod
    def zero(cls, p: int, k: int) -> "FactoredResidue":
        return cls(p, k, 1, 0, 0, is_zero=True)

    @classmethod
    def from_int(cls, n: int, p: int, k: int) -> "FactoredResidue":
        if n == 0:
            return cls.zero(p, k)
        sign = 1 if n > 0 else -1
        e, u = strip_p(abs(n), p)
        return cls(p, k, sign, e, u % p**k)

    @property
    def unit(self) -> PrimePowerResidue:
        return PrimePowerResidue(self.p, self.k, self.unit_value)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.times_int(other)
        if self.p != other.p or self.k != other.k:
            raise ValueError("mixed moduli")
        if self.is_zero or other.is_zero:
            return FactoredResidue.zero(self.p, self.k)
        return FactoredResidue(
            self.p,
            self.k,
            self.sign * other.sign,
            self.valuation + other.valuation,
            self.unit_value * other.unit_value % self.pk,
        )

    __rmul__ = __mul__

    def times_int(self, c: int) -> "FactoredResidue":
        if c == 0 or self.is_zero:
            return FactoredResidue.zero(self.p, self.k)
        sign = self.sign if c > 0 else -self.sign
        e, u = strip_p(abs(c), self.p)
        return FactoredResidue(
            self.p, self.k, sign, self.valuation + e, self.unit_value * u % self.pk
        )

    def over_int(self, c: int) -> "FactoredResidue":
        """Exact division by a nonzero integer c (valuation must stay >= 0)."""
        if c == 0:
            raise ZeroDivisionError("division by zero")
        if self.is_zero:
            return self
        sign = self.sign if c > 0 else -self.sign
        e, u = strip_p(abs(c), self.p)
        if e > self.valuation:
            raise ValueError("inexact division: valuation would go negative")
        return FactoredResidue(
            self.p,
            self.k,
            sign,
            self.valuation - e,
            self.unit_value * mod_inverse(u, self.pk) % self.pk,
        )

    def __truediv__(self, other):
        if isinstance(other, int):
            return self.over_int(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        if self.is_zero:
            return self
        if other.valuation > self.valuation:
            raise ValueError("inexact division: valuation would go negative")
        return FactoredResidue(
            self.p,
            self.k,
            self.sign * other.sign,
            self.valuation - other.valuation,
            self.unit_value * mod_inverse(other.unit_value, self.pk) % self.pk,
        )

    def __neg__(self):
        if self.is_zero:
            return self
        return FactoredResidue(self.p, self.k, -self.sign, self.valuation, self.unit_value)

    def residue(self) -> PrimePowerResidue:
        return PrimePowerResidue(self.p, self.k, self.residue_int())

    def residue_int(self) -> int:
        if self.is_zero or self.valuation >= self.k:
            return 0
        return self.sign * self.p**self.valuation * self.unit_value % self.pk

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredResidue):
            return NotImplemented
        if self.p != other.p or self.k != other.k:
            return False
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return (
            self.valuation == other.valuation
            and self.sign * self.unit_value % self.pk
            == other.sign * other.unit_value % self.pk
        )

    def __repr__(self):
        if self.is_zero:
            return f"FactoredResidue(0 mod {self.p}^{self.k})"
        s = "-" if self.sign < 0 else ""
        return f"FactoredResidue({s}{self.p}^{self.valuation} * {self.unit_value} mod {self.p}^{self.k})"


class FactorialTables:
    """Per-prime tables giving n! in factored form in O(1) per query.

    val[n] is the p-adic valuation of n!, unit[n] the p-free part of n! modulo
    p^k, inv_unit[n] its inverse.  Building is O(limit); intended to be built
    once per prime and shared by many binomial queries.
    """

    __slots__ = ("p", "k", "pk", "limit", "val", "unit", "inv_unit")

    def __init__(self, p: int, k: int, limit: int):
        self.p, self.k, self.pk, self.limit = p, k, p**k, limit
        pk = self.pk
        val = [0] * (limit + 1)
        unit = [1] * (limit + 1)
        v, u = 0, 1
        for n in range(1, limit + 1):
            m = n
            while m % p == 0:
                m //= p
                v += 1
            u = u * m % pk
            val[n] = v
            unit[n] = u
        inv = [1] * (limit + 1)
        inv[limit] = mod_inverse(unit[limit], pk)
        for n in range(limit, 1, -1):
            m = n
            while m % p == 0:
                m //= p
            inv[n - 1] = inv[n] * m % pk
        self.val, self.unit, self.inv_unit = val, unit, inv


def factorial_factored(n: int, p: int, k: int, tables: FactorialTables | None = None) -> FactoredResidue:
    """n! as a FactoredResidue (exact valuation, unit mod p^k)."""
    if n < 0:
        raise ValueError("factorial of a negative integer")
    if tables is not None and n <= tables.limit and tables.p == p and tables.k == k:
        return FactoredResidue(p, k, 1, tables.val[n], tables.unit[n])
    pk = p**k
    v, u = 0, 1
    for m in range(2, n + 1):
        while m % p == 0:
            m //= p
            v += 1
        u = u * m % pk
    return FactoredResidue(p, k, 1, v, u)


def binomial_factored(n: int, r: int, p: int, k: int, tables: FactorialTables | None = None) -> FactoredResidue:
    """C(n, r) as a FactoredResidue; zero when r < 0 or r > n."""
    if r < 0 or r > n:
        return FactoredResidue.zero(p, k)
    if tables is not None and n <= tables.limit and tables.p == p and tables.k == k:
        pk = tables.pk
        val = tables.val
        unit = tables.unit
        inv = tables.inv_unit
        return FactoredResidue(
            p, k, 1, val[n] - val[r] - val[n - r],
            unit[n] * inv[r] % pk * inv[n - r] % pk,
        )
    fn = factorial_factored(n, p, k)
    fr = factorial_factored(r, p, k)
    fnr = factorial_factored(n - r, p, k)
    return fn / fr / fnr


def binomial_valuation(n: int, r: int, p: int) -> int:
    """p-adic valuation of C(n, r) = number of carries adding r and n-r base p."""
    if r < 0 or r > n:
        raise ValueError("binomial is zero")
    carries, carry = 0, 0
    a, b = r, n - r
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


@dataclass(frozen=True)
class QuadraticRepresentation:
    """p = x^2 + d*y^2 in normalized form.

    For d = 1 (so p ≡ 1 mod 4): x is odd with x ≡ 1 (mod 4) — the sign of x is
    adjusted, so x may be negative — and y is even with y >= 0.  For the other
    d: x > 0 and y >= 0.
    """

    p: int
    d: int
    x: int
    y: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)


def represent(p: int, d: int) -> QuadraticRepresentation | None:
    """Solve p = x^2 + d*y^2 for an odd prime p not dividing d, or None.

    Cornacchia's descent seeded with the square root of -d mod p taken in
    (p/2, p); either root yields the same normalized answer.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if p == 2 or (d > 1 and p % d == 0) or not is_prime(p):
        raise ValueError(f"p must be an odd prime not dividing d, got p={p}, d={d}")
    t = sqrt_mod(-d % p, p)
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

