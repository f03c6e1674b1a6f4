"""Truncated q-expansions of eta products, and the three with CM closed forms.

The three weight-3 eta products tracked here all have a simple q-expansion
q * prod(1 - q^(m n))^r and their prime Fourier coefficients are given by
binary quadratic forms:

    a:  q prod (1-q^(4n))^6            a(p) = 4x^2 - 2p  if p = x^2 + y^2,   else 0
    b:  q prod (1-q^(6n))^3 (1-q^(2n))^3   b(p) = 4x^2 - 2p  if p = x^2 + 3y^2,  else 0
    c:  q prod (1-q^n)^2 (1-q^(2n)) (1-q^(4n)) (1-q^(8n))^2
                                       c(p) = 4x^2 - 2p  if p = x^2 + 2y^2,  else 0

The closed form is left undefined (None) at the few primes dividing the
modulus of the product, where neither branch applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import represent


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

# primes where the quadratic-form dichotomy for the closed form does not apply
_EXCLUDED_PRIMES = {"a": {2}, "b": {2, 3}, "c": {2}}
# p is represented by x^2 + d y^2 exactly when represent(p, d) succeeds
_FORM_D = {"a": 1, "b": 3, "c": 2}


def eta_quotient(spec: EtaProductSpec, order: int) -> list[int]:
    """Coefficients of q^0..q^order of the full expansion, leading shift included.

    Multiplying a truncated series by (1 - q^j)^r is r in-place passes of
    c[i] -= c[i-j] from the top; negative r divides instead with ascending
    passes of c[i] += c[i-j].
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    t = spec.leading_power
    c = [0] * (order + 1)
    if t <= order:
        c[t] = 1
    for m, r in spec.factors:
        for n in range(1, (order - t) // m + 1):
            j = m * n
            if r >= 0:
                for _ in range(r):
                    for i in range(order, j - 1, -1):
                        c[i] -= c[i - j]
            else:
                for _ in range(-r):
                    for i in range(j, order + 1):
                        c[i] += c[i - j]
    return c


def coefficient_table(name: str, order: int) -> list[int]:
    """Fourier coefficients 0..order of the named eta product."""
    if name not in ETA_PRODUCTS:
        raise ValueError(f"unknown eta product {name!r}; expected one of a, b, c")
    return eta_quotient(ETA_PRODUCTS[name], order)


def coefficient_closed_form(name: str, p: int) -> int | None:
    """Prime coefficient of the named product from its quadratic form.

    Returns None at the excluded primes (2 for a and c, 2 and 3 for b) where
    neither branch of the dichotomy applies.  ``represent`` tests that p is
    prime (ValueError if not).
    """
    if name not in ETA_PRODUCTS:
        raise ValueError(f"unknown eta product {name!r}; expected one of a, b, c")
    if p in _EXCLUDED_PRIMES[name]:
        return None
    rep = represent(p, _FORM_D[name])
    if rep is None:
        return 0
    return 4 * rep.x * rep.x - 2 * p
