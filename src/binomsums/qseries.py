"""Truncated q-expansions of eta products, and the three with CM closed forms.

The three weight-3 eta products tracked here all have a simple q-expansion
q * prod(1 - q^(m n))^r and their prime Fourier coefficients are given by
binary quadratic forms:

    a:  q prod (1-q^(4n))^6            a(p) = 4x^2 - 2p  if p = x^2 + y^2,   else 0
    b:  q prod (1-q^(6n))^3 (1-q^(2n))^3   b(p) = 4x^2 - 2p  if p = x^2 + 3y^2,  else 0
    c:  q prod (1-q^n)^2 (1-q^(2n)) (1-q^(4n)) (1-q^(8n))^2
                                       c(p) = 4x^2 - 2p  if p = x^2 + 2y^2,  else 0

The closed form is left undefined (None) at the primes that divide a factor
period m, where neither branch applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import is_prime, represent


@dataclass(frozen=True)
class EtaProductSpec:
    """A product q^t * prod_m prod_n (1 - q^(m n))^r over factors (m, r).

    t = sum(m*r)/24 must come out a positive integer for the expansions used
    here; the constructor enforces that.
    """

    name: str
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        s = sum(m * r for m, r in self.factors)
        if s % 24 != 0 or s <= 0:
            raise ValueError("sum of m*r over factors must be a positive multiple of 24")
        for m, _ in self.factors:
            if m <= 0:
                raise ValueError("factor periods must be positive")

    @property
    def leading_power(self) -> int:
        return sum(m * r for m, r in self.factors) // 24


ETA_PRODUCTS: dict[str, EtaProductSpec] = {
    "a": EtaProductSpec("a", ((4, 6),)),
    "b": EtaProductSpec("b", ((6, 3), (2, 3))),
    "c": EtaProductSpec("c", ((1, 2), (2, 1), (4, 1), (8, 2))),
}

# p is represented by x^2 + d y^2 exactly when represent(p, d) succeeds
_FORM_D = {"a": 1, "b": 3, "c": 2}


def _pentagonal(m: int, order: int) -> list[tuple[int, int]]:
    """The terms (e, sign) of sign * q^e, 0 < e <= order, of prod_n (1 - q^(m n)), by
    Euler's pentagonal series 1 + sum_{j>=1} (-1)^j (q^(m j(3j-1)/2) + q^(m j(3j+1)/2));
    j(3j-1)/2 >= j^2, so no j past sqrt(order/m) has a term."""
    return [(m * g, (-1) ** j) for j in range(1, isqrt(order // m) + 1)
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if m * g <= order]


def eta_quotient(spec: EtaProductSpec, order: int) -> list[int]:
    """Coefficients of q^0..q^order of the full expansion, leading shift included.

    A factor (m, r) is |r| in-place passes of the pentagonal series of
    prod_n (1 - q^(m n)): multiplying for r > 0, from the top, so each
    c[i] reads the c[i - e] below it before they change; dividing for
    r < 0, from the bottom, so each reads them once they are quotients.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    t = spec.leading_power
    c = [0] * (order + 1)
    if t <= order:
        c[t] = 1
    for m, r in spec.factors:
        terms = _pentagonal(m, order)
        sign, rows = (1, range(order, 0, -1)) if r > 0 else (-1, range(1, order + 1))
        for _ in range(abs(r)):
            for i in rows:
                c[i] += sign * sum(s * c[i - e] for e, s in terms if e <= i)
    return c


def _spec(name: str) -> EtaProductSpec:
    if name not in ETA_PRODUCTS:
        raise ValueError(f"unknown eta product {name!r}; expected one of a, b, c")
    return ETA_PRODUCTS[name]


def coefficient_table(name: str, order: int) -> list[int]:
    """Fourier coefficients 0..order of the named eta product."""
    return eta_quotient(_spec(name), order)


def coefficient_closed_form(name: str, p: int) -> int | None:
    """Prime coefficient of the named product from its quadratic form.

    Returns None at the primes that divide a factor period (2 for a and c,
    2 and 3 for b), where neither branch of the dichotomy applies.
    ``represent`` tests that p is prime (ValueError if not).
    """
    spec = _spec(name)
    if is_prime(p) and any(m % p == 0 for m, _ in spec.factors):
        return None
    rep = represent(p, _FORM_D[name])
    if rep is None:
        return 0
    return 4 * rep.x * rep.x - 2 * p
