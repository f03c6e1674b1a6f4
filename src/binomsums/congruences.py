"""Checkers for central-binomial-sum congruences modulo prime powers.

Every registry row states a congruence for a sum of products of up to three
binomial coefficients, e.g.

    sum_{k<p} C(2k,k)^2 C(2k,k+d) / 64^k   (mod p^2),

whose right-hand side is a binary-quadratic-form expression (p = x^2 + d y^2),
an eta-product Fourier coefficient, a Delannoy/Schroeder number, or zero.
Rows are checked exactly: each term is carried as p^v * unit with the unit
reduced mod p^K, so equality of the reported residues decides the congruence.

Two evaluation paths exist and are pinned against each other by the tests:

* ``check`` runs a single row at a single prime through the direct reference
  evaluators (plain streamed sums, one term at a time);
* ``run_suite`` batches rows over many primes, sharing per-prime inverse and
  factorial tables, running-sum menus, and the shift engine, which produces
  all shifted sums S(d) of a family at once in O(p) by stepping the certified
  d -> d+2 relations from two direct seeds.

Statuses: ``pass``/``fail`` for proven rows, ``experimental-pass``/
``experimental-fail`` for conjectural ones, and ``skipped`` when a row's side
condition excludes the prime.  Only a plain ``fail`` should ever make a
verification run unsuccessful.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from ._sweeps import SHIFT_FAMILIES, self_convolution_mod, shift_sums
from .arith import (
    FactorialTables,
    binomial_factored,
    inverse_table,
    is_prime,
    legendre_symbol,
    mod_inverse,
    represent,
)
from .qseries import coefficient_closed_form
from .sequences import euler_numbers

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
XPASS = "experimental-pass"
XFAIL = "experimental-fail"


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of one congruence row at one prime.

    ``lhs``/``rhs`` are residues mod ``modulus`` (None when skipped).  For
    chained statements that assert several sums agree, ``lhs``/``rhs`` show
    the first differing pair on failure and (first member, closed form)
    otherwise.  ``micros`` is filled only when timings were requested; shared
    per-prime precomputation is not attributed to individual rows.
    """

    id: str
    p: int
    params: str
    modulus: int
    lhs: int | None
    rhs: int | None
    status: str
    micros: int = 0

    @property
    def failed(self) -> bool:
        return self.status == FAIL


@dataclass(frozen=True)
class RowSpec:
    """Registry metadata for one congruence family.

    ``modulus_exp`` is the exponent K of the modulus p^K, either a constant
    or a function of p for rows whose strength depends on the prime class.
    """

    id: str
    modulus_exp: int | Callable[[int], int]
    description: str
    applies: Callable[[int], bool]
    param_name: str = ""
    param_values: Callable[[int], tuple[int, ...]] | None = None
    conjectural: Callable[[int, int | None], bool] = lambda p, v: False
    experimental: bool = False
    sweep_base: int | None = None  # shift family served by the shift engine

    def exponent(self, p: int) -> int:
        return self.modulus_exp(p) if callable(self.modulus_exp) else self.modulus_exp


# ratio of consecutive terms for each binomial-product family; entries are
# (numerator factors, denominator factors) taking term k to term k+1
_FAMILY_RATIOS: dict[str, Callable[[int], tuple[tuple[int, ...], tuple[int, ...]]]] = {
    "c2": lambda k: ((4 * k + 2,), (k + 1,)),
    "c2sq": lambda k: ((4 * k + 2,) * 2, (k + 1,) * 2),
    "c2cube": lambda k: ((4 * k + 2,) * 3, (k + 1,) * 3),
    "c2c3": lambda k: (
        (4 * k + 2, 3 * k + 1, 3 * k + 2, 3 * k + 3),
        (k + 1, k + 1, 2 * k + 1, 2 * k + 2),
    ),
    "c2c4": lambda k: (
        (4 * k + 2, 4 * k + 1, 4 * k + 2, 4 * k + 3, 4 * k + 4),
        (k + 1, 2 * k + 1, 2 * k + 1, 2 * k + 2, 2 * k + 2),
    ),
    "c2sqc4": lambda k: (
        (4 * k + 2, 4 * k + 2, 4 * k + 1, 4 * k + 2, 4 * k + 3, 4 * k + 4),
        (k + 1, k + 1, 2 * k + 1, 2 * k + 1, 2 * k + 2, 2 * k + 2),
    ),
    "c3c6": lambda k: (
        (3 * k + 1, 3 * k + 2, 3 * k + 3, 6 * k + 1, 6 * k + 2, 6 * k + 3,
         6 * k + 4, 6 * k + 5, 6 * k + 6),
        (k + 1, 2 * k + 1, 2 * k + 2, 3 * k + 1, 3 * k + 1, 3 * k + 2,
         3 * k + 2, 3 * k + 3, 3 * k + 3),
    ),
}

# ratio-stream family of each shift family (the reference path's weights)
_SWEEP_FAMILY = {64: "c2sq", 108: "c2c3", 256: "c2c4", 1728: "c3c6"}


def _tail_error(stream: str, p: int, k: int, val: int) -> ArithmeticError:
    """The invariant v_p(C(2k,k)^2) >= 2 for (p+1)/2 <= k < p was broken."""
    return ArithmeticError(
        f"{stream}: squared central binomial tail valuation {val} < 2 "
        f"at p={p}, k={k}"
    )


@lru_cache(maxsize=1)
def _euler_list(limit: int) -> tuple[int, ...]:
    return tuple(euler_numbers(limit))


def _euler_number_mod(index: int, modulus: int) -> int:
    # round the table size up so nearby primes reuse one computation
    limit = ((index // 256) + 1) * 256
    return _euler_list(limit)[index] % modulus


class PrimeContext:
    """Shared per-prime state for congruence evaluation.

    Inverse tables, factorial tables, running-sum menus, sweep outputs and
    quadratic representations are cached on first use, so checking many rows
    at one prime costs one pass per distinct (family, base, exponent).
    """

    def __init__(self, p: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"need a prime p >= 5, got {p}")
        self.p = p
        self.n = (p - 1) // 2
        self._cache: dict = {}

    # --- basic cached helpers -------------------------------------------

    def pk(self, kexp: int) -> int:
        return self.p**kexp

    def inv(self, kexp: int) -> list[int]:
        key = ("inv", kexp)
        if key not in self._cache:
            self._cache[key] = inverse_table(6 * self.p + 8, self.p, kexp)
        return self._cache[key]

    def tables(self, kexp: int, limit: int = 0) -> FactorialTables:
        """Factorial tables mod p^kexp reaching n! for n <= max(3p, limit).

        One table per exponent: a request past the cached limit rebuilds it
        at the larger size, which then serves every smaller request.
        """
        key = ("tables", kexp)
        cached = self._cache.get(key)
        if cached is None or cached.limit < limit:
            cached = FactorialTables(self.p, kexp, max(3 * self.p, limit))
            self._cache[key] = cached
        return cached

    def legendre(self, a: int) -> int:
        key = ("leg", a)
        if key not in self._cache:
            self._cache[key] = legendre_symbol(a, self.p)
        return self._cache[key]

    def rep(self, d: int):
        key = ("rep", d)
        if key not in self._cache:
            self._cache[key] = represent(self.p, d)
        return self._cache[key]

    def sign_quarter(self, kexp: int) -> int:
        """(-1)^((p-1)/4) mod p^kexp, defined for p = 1 (mod 4)."""
        return 1 if self.p % 8 == 1 else self.pk(kexp) - 1

    # --- factored term streams ------------------------------------------

    def _terms(self, family: str, base: int, kexp: int, hi: int):
        """Yield (k, val, unit) with family(k)/base^k = p^val * unit mod p^kexp.

        ``base`` is inverted mod p^kexp, so negative bases are fine; the
        family value itself is a positive integer, hence no sign tracking.
        """
        p = self.p
        pkv = self.pk(kexp)
        inv = self.inv(kexp)
        binv = mod_inverse(base % pkv, pkv)
        ratio = _FAMILY_RATIOS[family]
        val, unit = 0, 1
        yield 0, 0, 1
        for k in range(1, hi + 1):
            nums, dens = ratio(k - 1)
            for m in nums:
                while m % p == 0:
                    m //= p
                    val += 1
                unit = unit * m % pkv
            for m in dens:
                while m % p == 0:
                    m //= p
                    val -= 1
                unit = unit * inv[m] % pkv
            unit = unit * binv % pkv
            yield k, val, unit

    def weights(self, base: int, kexp: int) -> list[int]:
        """Residues of the shift family for ``base`` at every k < p.

        w(k) = C(a k, b k) C(c k, e k) / base^k, read from the factorial
        tables (valuation and unit of each binomial) with no term stream.
        """
        key = ("w", base, kexp)
        if key not in self._cache:
            p = self.p
            fam = SHIFT_FAMILIES[base]
            tables = self.tables(kexp, fam.step * p)
            pkv, val, unit, inv = tables.pk, tables.val, tables.unit, tables.inv_unit
            pp = [p**i for i in range(kexp)]
            (a, b), (c, e) = fam.binomials
            binv = mod_inverse(base % pkv, pkv)
            out = []
            scale = 1  # base^-k
            for k in range(p):
                ak, bk, ck, ek = a * k, b * k, c * k, e * k
                v = val[ak] - val[bk] - val[ak - bk] + val[ck] - val[ek] - val[ck - ek]
                if v < kexp:
                    out.append(
                        pp[v] * scale % pkv * unit[ak] % pkv * inv[bk] % pkv
                        * inv[ak - bk] % pkv * unit[ck] % pkv * inv[ek] % pkv
                        * inv[ck - ek] % pkv
                    )
                else:
                    out.append(0)
                scale = scale * binv % pkv
            self._cache[key] = out
        return self._cache[key]

    def sweep(self, bases: Iterable[int], kexp: int) -> dict[int, list[int]]:
        """All shifted sums S[base][d] = sum_k w_base[k] C(2k,k+d) mod p^kexp.

        Each family's p sums come from the O(p) step-relation engine
        ``shift_sums``; one factorial table, sized for the widest requested
        family, serves the weights and the engine of every family.
        """
        bases = tuple(bases)
        missing = [b for b in bases if ("sweep", b, kexp) not in self._cache]
        if missing:
            limit = max(SHIFT_FAMILIES[b].step for b in missing) * self.p
            tables = self.tables(kexp, limit)
            for b in missing:
                self._cache[("sweep", b, kexp)] = shift_sums(
                    self.p, b, self.weights(b, kexp), tables
                )
        return {b: self._cache[("sweep", b, kexp)] for b in bases}

    # --- running-sum menus ----------------------------------------------

    def central_square_menu(self, base: int, kexp: int, full: bool) -> dict[str, int]:
        """Weighted sums of C(2k,k)^2 / base^k over k <= (p-1)/2 or k < p.

        Returns A = sum of terms, Ak = sum of k*term, Ak2 = sum of k^2*term,
        and Acat = sum of C(2k,k)*Catalan(k)/base^k (i.e. term/(k+1)).  The
        tail valuation invariant v_p(C(2k,k)^2) >= 2 for (p+1)/2 <= k < p is
        checked as the stream passes through it (ArithmeticError if broken).
        """
        key = ("sqmenu", base, kexp, full)
        if key in self._cache:
            return self._cache[key]
        p = self.p
        pkv = self.pk(kexp)
        inv = self.inv(kexp)
        pp = [p**i for i in range(kexp + 1)]
        hi = p - 1 if full else self.n
        tail = (p + 1) // 2
        a = ak = ak2 = acat = 0
        for k, val, unit in self._terms("c2sq", base, kexp, hi):
            if k >= tail and val < 2:
                raise _tail_error(f"central_square_menu(base={base})", p, k, val)
            if val < kexp:
                t = pp[val] * unit % pkv
                a += t
                ak += k * t
                ak2 += k * k * t
            m, e = k + 1, 0
            while m % p == 0:
                m //= p
                e += 1
            if val - e < kexp:
                acat += pp[val - e] * unit % pkv * inv[m] % pkv
        out = {"A": a % pkv, "Ak": ak % pkv, "Ak2": ak2 % pkv, "Acat": acat % pkv}
        self._cache[key] = out
        return out

    def central_cube_menu(self, base: int, kexp: int) -> dict[str, int]:
        """A3 = sum_{k<p} C(2k,k)^3 / base^k, A3k = sum of k*term, mod p^kexp."""
        key = ("cubemenu", base, kexp)
        if key in self._cache:
            return self._cache[key]
        p = self.p
        pkv = self.pk(kexp)
        pp = [p**i for i in range(kexp + 1)]
        tail = (p + 1) // 2
        a3 = a3k = 0
        for k, val, unit in self._terms("c2cube", base, kexp, p - 1):
            if k >= tail and val < 2:
                raise _tail_error(f"central_cube_menu(base={base})", p, k, val)
            if val < kexp:
                t = pp[val] * unit % pkv
                a3 += t
                a3k += k * t
        out = {"A3": a3 % pkv, "A3k": a3k % pkv}
        self._cache[key] = out
        return out

    def delannoy_menu(self, kexp: int) -> dict[str, int]:
        """Central Delannoy/Schroeder values at n = (p-1)/2 mod p^kexp.

        Uses (m+1) D_{m+1} = 3(2m+1) D_m - m D_{m-1} and the derivative
        relation D_{n+1} - 3 D_n = 2n S_n.
        """
        key = ("delannoy", kexp)
        if key in self._cache:
            return self._cache[key]
        pkv = self.pk(kexp)
        inv = self.inv(kexp)
        n = self.n
        prev, cur = 1, 3 % pkv  # D_0, D_1
        for m in range(1, n + 1):
            prev, cur = cur, (3 * (2 * m + 1) * cur - m * prev) * inv[m + 1] % pkv
        dn, dn1 = prev, cur
        sn = (dn1 - 3 * dn) * inv[2 * n] % pkv
        out = {"Dn": dn, "Dn1": dn1, "Sn": sn}
        self._cache[key] = out
        return out

    def central_square_residues(self, kexp: int) -> list[int]:
        """C(2k,k)^2 mod p^kexp for k < p (input to the double-sum square)."""
        key = ("c2sqres", kexp)
        if key not in self._cache:
            pkv = self.pk(kexp)
            pp = [self.p**i for i in range(kexp)]
            self._cache[key] = [
                pp[val] * unit % pkv if val < kexp else 0
                for _, val, unit in self._terms("c2sq", 1, kexp, self.p - 1)
            ]
        return self._cache[key]

    def square_convolution(self, kexp: int) -> list[int]:
        key = ("conv", kexp)
        if key not in self._cache:
            self._cache[key] = self_convolution_mod(
                self.central_square_residues(kexp), self.pk(kexp)
            )
        return self._cache[key]


# --- reference evaluators -------------------------------------------------


def _reference_shift_sum(ctx: PrimeContext, kexp: int, base: int, d: int) -> int:
    """sum_{k<p} w_base[k] * C(2k, k+d) mod p^kexp, term by factored term.

    Checks the tail valuation invariant for every summand that contains a
    squared central binomial: the whole weight for base 64, and weight plus
    C(2k,k) itself for the d = 0 sums of the 108 and 256 families.
    """
    p = ctx.p
    pkv = ctx.pk(kexp)
    pp = [p**i for i in range(kexp + 1)]
    tables = ctx.tables(kexp)
    tail = (p + 1) // 2
    total = 0
    for k, wval, wunit in ctx._terms(_SWEEP_FAMILY[base], base, kexp, p - 1):
        if base == 64 and k >= tail and wval < 2:
            raise _tail_error(f"_reference_shift_sum(base=64, d={d})", p, k, wval)
        if k + d > 2 * k:
            continue
        row = binomial_factored(2 * k, k + d, p, kexp, tables)
        val = wval + row.valuation
        if d == 0 and base in (108, 256) and k >= tail and val < 2:
            raise _tail_error(f"_reference_shift_sum(base={base}, d=0)", p, k, val)
        if val < kexp:
            total += pp[val] * wunit % pkv * row.unit_value % pkv
    return total % pkv


def _shift_sum(ctx: PrimeContext, kexp: int, base: int, d: int) -> int:
    """Shifted family sum, from the shift engine's output when one is already
    cached for this (base, exponent) — run_suite primes that cache — and
    otherwise through the term-by-term reference path."""
    cached = ctx._cache.get(("sweep", base, kexp))
    if cached is not None:
        return cached[d]
    return _reference_shift_sum(ctx, kexp, base, d)


def _sum_square_shift1(ctx: PrimeContext, kexp: int, base: int) -> int:
    """sum_{k<p} C(2k,k)^2 C(2k,k+1) / base^k mod p^kexp.

    Uses C(2k,k+1) = C(2k,k) * k/(k+1) on top of the cube stream.
    """
    p = ctx.p
    pkv = ctx.pk(kexp)
    inv = ctx.inv(kexp)
    pp = [p**i for i in range(kexp + 1)]
    tail = (p + 1) // 2
    total = 0
    for k, val, unit in ctx._terms("c2cube", base, kexp, p - 1):
        if k == 0:
            continue  # C(0, 1) = 0
        m, e = k + 1, 0
        while m % p == 0:
            m //= p
            e += 1
        v = val - e
        if k >= tail and v < 2:
            raise _tail_error(f"_sum_square_shift1(base={base})", p, k, v)
        if 0 <= v < kexp:
            total += pp[v] * unit % pkv * (k % pkv) % pkv * inv[m] % pkv
    return total % pkv


def _sum_shift1_square(ctx: PrimeContext, kexp: int, base: int) -> int:
    """sum_{k<p} C(2k,k) C(2k,k+1)^2 / base^k mod p^kexp."""
    p = ctx.p
    pkv = ctx.pk(kexp)
    inv = ctx.inv(kexp)
    pp = [p**i for i in range(kexp + 1)]
    total = 0
    for k, val, unit in ctx._terms("c2cube", base, kexp, p - 1):
        if k == 0:
            continue
        m, e = k + 1, 0
        while m % p == 0:
            m //= p
            e += 1
        v = val - 2 * e
        if 0 <= v < kexp:
            total += pp[v] * unit % pkv * (k * k % pkv) % pkv * inv[m] % pkv * inv[m] % pkv
    return total % pkv


def _x_term(ctx: PrimeContext, kexp: int, d: int, num: int, den_x: int) -> int:
    """(num*x - p/(den_x*x)) mod p^kexp for the normalized p = x^2 + d y^2."""
    pkv = ctx.pk(kexp)
    x = ctx.rep(d).x
    xinv = mod_inverse(x % pkv, pkv)
    return (num * x - ctx.p * xinv * mod_inverse(den_x, pkv)) % pkv


def _eval_c1_1(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    lhs = ctx.central_cube_menu(1, kexp)["A3"]
    if legendre_symbol(ctx.p, 7) == 1:
        r = ctx.rep(7)
        rhs = (4 * r.x * r.x - 2 * ctx.p) % pkv
    else:
        rhs = 0
    return (lhs,), rhs


def _eval_c1_2(ctx, kexp, k):
    pkv = ctx.pk(kexp)
    tables = ctx.tables(kexp)
    lhs = binomial_factored(ctx.n + k, 2 * k, ctx.p, kexp, tables).residue_int()
    rhs = (
        binomial_factored(2 * k, k, ctx.p, kexp, tables).residue_int()
        * pow(mod_inverse(-16 % pkv, pkv), k, pkv)
        % pkv
    )
    return (lhs,), rhs


def _eval_c1_5(ctx, kexp, d):
    return (_shift_sum(ctx, kexp, 64, d),), 0


def _eval_c1_6(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    lhs = _shift_sum(ctx, kexp, 64, 1)
    b = binomial_factored(ctx.n, (ctx.p + 1) // 4, ctx.p, kexp, ctx.tables(kexp))
    c = b.residue_int()
    rhs = (2 * ctx.p + 2 - pow(2, ctx.p - 1, pkv)) * c % pkv * c % pkv
    return (lhs,), rhs


def _eval_c1_7a(ctx, kexp, _):
    m = ctx.central_square_menu(8, kexp, full=False)
    pkv = ctx.pk(kexp)
    lhs = (m["Ak"] + m["A"]) % pkv
    rhs = ctx.sign_quarter(kexp) * (ctx.rep(1).x % pkv) % pkv
    return (lhs,), rhs


def _eval_c1_7b(ctx, kexp, _):
    m = ctx.central_square_menu(-16, kexp, full=False)
    pkv = ctx.pk(kexp)
    lhs = (2 * m["Ak"] + m["A"]) % pkv
    rhs = ctx.sign_quarter(kexp) * (ctx.rep(1).x % pkv) % pkv
    return (lhs,), rhs


def _eval_c1_8(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    m_half = ctx.central_square_menu(8, kexp, full=False)
    m_full = ctx.central_square_menu(8, kexp, full=True)
    members = (m_half["Acat"], (-2 * m_full["Ak"]) % pkv)
    rhs = ctx.sign_quarter(kexp) * _x_term(ctx, kexp, 1, 2, 1) % pkv
    return members, rhs


def _eval_c1_9(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    m = ctx.central_square_menu(-16, kexp, full=False)
    members = (
        ctx.delannoy_menu(kexp)["Sn"],
        m["Acat"],
        (-8 * m["Ak"]) % pkv,
    )
    rhs = ctx.sign_quarter(kexp) * 2 * _x_term(ctx, kexp, 1, 2, 1) % pkv
    return members, rhs


def _eval_c1_10(ctx, kexp, _):
    m = ctx.central_square_menu(8, kexp, full=False)
    pkv = ctx.pk(kexp)
    x = ctx.rep(1).x
    rhs = (
        ctx.sign_quarter(kexp)
        * ((x - 3 * ctx.p * mod_inverse(4 * x % pkv, pkv)) % pkv)
        % pkv
    )
    return (m["Ak2"],), rhs


def _eval_c1_11(ctx, kexp, _):
    m = ctx.central_square_menu(-16, kexp, full=False)
    pkv = ctx.pk(kexp)
    x = ctx.rep(1).x
    rhs = (
        (pkv - ctx.sign_quarter(kexp))
        * (ctx.p * mod_inverse(16 * x % pkv, pkv) % pkv)
        % pkv
    )
    return (m["Ak2"],), rhs


def _eval_c1_12(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    lhs = _sum_square_shift1(ctx, kexp, -8)
    x = ctx.rep(1).x
    rhs = (2 * ctx.p - 2 * x * x) % pkv
    return (lhs,), rhs


def _eval_c1_13(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    lhs = _sum_shift1_square(ctx, kexp, -8)
    return (lhs,), (-2 * ctx.p) % pkv


def _eval_cr1_1(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    m8 = ctx.central_square_menu(8, kexp, full=True)
    m16 = ctx.central_square_menu(-16, kexp, full=False)
    lhs = (m8["Ak"] + m8["A"] + 2 * m16["Ak"] + m16["A"]) % pkv
    if ctx.p % 4 == 1:
        rhs = 2 * ctx.legendre(2) * ctx.rep(1).x % pkv
    else:
        rhs = 0
    return (lhs,), rhs


def _eval_c1_14b(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    return (_shift_sum(ctx, kexp, 108, 0),), coefficient_closed_form(
        "b", ctx.p
    ) % pkv


def _eval_c1_14c(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    return (_shift_sum(ctx, kexp, 256, 0),), coefficient_closed_form(
        "c", ctx.p
    ) % pkv


def _eval_c1_15(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    rhs = legendre_symbol(ctx.p, 3) * coefficient_closed_form("a", ctx.p) % pkv
    return (_shift_sum(ctx, kexp, 1728, 0),), rhs


def _eval_c1_19(ctx, kexp, d):
    return (_shift_sum(ctx, kexp, 108, d),), 0


def _eval_c1_20(ctx, kexp, d):
    return (_shift_sum(ctx, kexp, 256, d),), 0


def _eval_c1_21(ctx, kexp, d):
    return (_shift_sum(ctx, kexp, 1728, d),), 0


def _eval_c1_22(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    r = ctx.rep(2)
    rhs = (4 * r.x * r.x - 2 * ctx.p) % pkv
    return (_shift_sum(ctx, kexp, 256, 0),), rhs


def _eval_c1_23(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    x = ctx.rep(1).x
    rhs = (2 * ctx.p - 4 * x * x) % pkv
    return (_shift_sum(ctx, kexp, 1728, 0),), rhs


def _eval_c1_24(ctx, kexp, _):
    p = ctx.p
    pkv = ctx.pk(kexp)
    pp = [p**i for i in range(kexp + 1)]
    tables = ctx.tables(kexp)
    tail = (p + 1) // 2
    total = 0
    for k, wval, wunit in ctx._terms("c2sq", 108, kexp, p - 1):
        if k >= tail and wval < 2:
            raise _tail_error("C1_24", p, k, wval)
        b = binomial_factored(3 * k, k + 1, p, kexp, tables)
        if b.is_zero:
            continue
        val = wval + b.valuation
        if val < kexp:
            total += pp[val] * wunit % pkv * b.unit_value % pkv
    return (total % pkv,), 0


def _eval_c1_25(ctx, kexp, _):
    return (_shift_sum(ctx, kexp, 256, 1),), 0


def _eval_c1_26(ctx, kexp, _):
    return (_shift_sum(ctx, kexp, 1728, 1),), 0


def _eval_cl3_2(ctx, kexp, part):
    p = ctx.p
    pkv = ctx.pk(kexp)
    conv = ctx.square_convolution(kexp)
    if part == 1:
        mult, weight = mod_inverse(8 % pkv, pkv), lambda m: m + 1
    else:
        mult, weight = mod_inverse(-16 % pkv, pkv), lambda m: 2 * m + 1
    total, mp = 0, 1
    for m in range(p):
        total += weight(m) * conv[m] % pkv * mp % pkv
        mp = mp * mult % pkv
    rhs = p * ctx.legendre(-1) % pkv
    return (total % pkv,), rhs


def _eval_cl3_3(ctx, kexp, part):
    pkv = ctx.pk(kexp)
    p2 = ctx.p * ctx.p
    if part in (1, 3):
        m = ctx.central_square_menu(8, kexp, full=False)
        sign = ctx.legendre(2)
    else:
        m = ctx.central_square_menu(-16, kexp, full=False)
        sign = ctx.legendre(-1)
    if part == 1:
        lhs, rhs = 2 * m["Ak"] + m["Acat"], 2 * p2 * sign
    elif part == 2:
        lhs, rhs = 8 * m["Ak"] + m["Acat"], 2 * p2 * sign
    elif part == 3:
        lhs, rhs = 2 * m["Ak2"] + 4 * m["Ak"] + m["A"], p2 * sign
    else:
        lhs, rhs = 8 * m["Ak2"] + 4 * m["Ak"] + m["A"], p2 * sign
    return (lhs % pkv,), rhs % pkv


def _eval_cgz(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    m = ctx.central_cube_menu(-8, kexp)
    lhs = (3 * m["A3k"] + m["A3"]) % pkv
    return (lhs,), ctx.p * ctx.legendre(-1) % pkv


def _eval_cgz_p4(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    m = ctx.central_cube_menu(-8, kexp)
    lhs = (3 * m["A3k"] + m["A3"]) % pkv
    e = _euler_number_mod(ctx.p - 3, ctx.p)
    rhs = (ctx.p * ctx.legendre(-1) + ctx.p**3 * e) % pkv
    return (lhs,), rhs


def _eval_c3_2(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    lhs = binomial_factored(
        ctx.n, (ctx.p - 1) // 4, ctx.p, kexp, ctx.tables(kexp)
    ).residue_int()
    half = mod_inverse(2, pkv)
    rhs = (pow(2, ctx.p - 1, pkv) + 1) * half % pkv * _x_term(ctx, kexp, 1, 2, 2) % pkv
    return (lhs,), rhs


def _eval_c3_3(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    members = (
        ctx.central_square_menu(8, kexp, full=False)["A"],
        ctx.central_square_menu(-16, kexp, full=False)["A"],
    )
    rhs = ctx.sign_quarter(kexp) * _x_term(ctx, kexp, 1, 2, 2) % pkv
    return members, rhs


def _eval_c3_4(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    rhs = ctx.sign_quarter(kexp) * _x_term(ctx, kexp, 1, 2, 2) % pkv
    return (ctx.delannoy_menu(kexp)["Dn"],), rhs


def _eval_cr3_1(ctx, kexp, _):
    return (ctx.delannoy_menu(kexp)["Dn"],), 0


def _eval_c3_5(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    lhs = ctx.central_cube_menu(-8, kexp)["A3"]
    if ctx.p % 4 == 1:
        x = ctx.rep(1).x
        rhs = (4 * x * x - 2 * ctx.p) % pkv
    else:
        rhs = 0
    return (lhs,), rhs


def _eval_c4_1(ctx, kexp, x):
    p = ctx.p
    pkv = ctx.pk(kexp)
    inv64 = mod_inverse(64 % pkv, pkv)
    mult_lhs = (-x) * inv64 % pkv
    lhs = ctx.central_cube_menu(mod_inverse(mult_lhs, pkv), kexp)["A3"]
    mult_rhs = x * mod_inverse(64 * (x + 1) * (x + 1) % pkv, pkv) % pkv
    pp = [p**i for i in range(kexp)]
    total = 0
    for k, val, unit in ctx._terms("c2sqc4", mod_inverse(mult_rhs, pkv), kexp, p - 1):
        if val < kexp:
            total += pp[val] * unit % pkv
    rhs = ctx.legendre(x + 1) * (total % pkv) % pkv
    return (lhs,), rhs


def _eval_cg(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    lhs = binomial_factored(
        ctx.n, (ctx.p - 1) // 4, ctx.p, kexp, ctx.tables(kexp)
    ).residue_int()
    return (lhs,), 2 * ctx.rep(1).x % pkv


def _eval_cm(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    m = (ctx.p - 5) // 12
    lhs = binomial_factored(
        ctx.n, (ctx.p - 1) // 4, ctx.p, kexp, ctx.tables(kexp)
    ).residue_int()
    cm = binomial_factored(2 * m, m, ctx.p, kexp, ctx.tables(kexp)).residue_int()
    rhs = 12 * pow(-432 % pkv, m, pkv) % pkv * cm % pkv
    return (lhs,), rhs


def _eval_c_ahl(ctx, kexp, _):
    p = ctx.p
    pkv = ctx.pk(kexp)
    n = ctx.n
    inv = ctx.inv(kexp)
    # term ratio: T_{k+1}/T_k = -((n-k)/(k+1))^2 (n+k+1)/(k+1); no factor
    # in 1..p-1 here is divisible by p, so the terms stay units
    sign, unit = 1, 1
    total = 1
    for k in range(n):
        sign = -sign
        unit = (
            unit
            * ((n - k) * (n - k) % pkv)
            % pkv
            * (n + k + 1)
            % pkv
            * inv[k + 1]
            % pkv
            * inv[k + 1]
            % pkv
            * inv[k + 1]
            % pkv
        )
        total += sign * unit
    lhs = ctx.legendre(-1) * total % pkv
    if ctx.legendre(-2) == 1:
        r = ctx.rep(2)
        rhs = (4 * r.x * r.x - 2 * p) % pkv
    else:
        rhs = 0
    return (lhs,), rhs


_EVAL: dict[str, Callable] = {
    "C1_1": _eval_c1_1,
    "C1_2": _eval_c1_2,
    "C1_5": _eval_c1_5,
    "C1_6": _eval_c1_6,
    "C1_7a": _eval_c1_7a,
    "C1_7b": _eval_c1_7b,
    "C1_8": _eval_c1_8,
    "C1_9": _eval_c1_9,
    "C1_10": _eval_c1_10,
    "C1_11": _eval_c1_11,
    "C1_12": _eval_c1_12,
    "C1_13": _eval_c1_13,
    "CR1_1": _eval_cr1_1,
    "C1_14b": _eval_c1_14b,
    "C1_14c": _eval_c1_14c,
    "C1_15": _eval_c1_15,
    "C1_19": _eval_c1_19,
    "C1_20": _eval_c1_20,
    "C1_21": _eval_c1_21,
    "C1_22": _eval_c1_22,
    "C1_23": _eval_c1_23,
    "C1_24": _eval_c1_24,
    "C1_25": _eval_c1_25,
    "C1_26": _eval_c1_26,
    "CL3_2": _eval_cl3_2,
    "CL3_3": _eval_cl3_3,
    "CGZ": _eval_cgz,
    "CGZ_P4": _eval_cgz_p4,
    "C3_2": _eval_c3_2,
    "C3_3": _eval_c3_3,
    "C3_4": _eval_c3_4,
    "CR3_1": _eval_cr3_1,
    "C3_5": _eval_c3_5,
    "C4_1": _eval_c4_1,
    "CG": _eval_cg,
    "CM": _eval_cm,
    "C_AHL": _eval_c_ahl,
}


def _qualifying_shifts(parity_of: Callable[[int], int]) -> Callable[[int], tuple[int, ...]]:
    def values(p: int) -> tuple[int, ...]:
        start = parity_of(p) % 2
        return tuple(range(start, p, 2))

    return values


_REGISTRY: tuple[RowSpec, ...] = (
    RowSpec(
        "C1_1", 2,
        "sum of cubed central binomials vs the x^2+7y^2 form",
        lambda p: p >= 5 and p != 7,
        conjectural=lambda p, v: legendre_symbol(p, 7) == 1,
    ),
    RowSpec(
        "C1_2", 2,
        "C(n+k,2k) vs C(2k,k)/(-16)^k at n = (p-1)/2",
        lambda p: p >= 5,
        param_name="k",
        param_values=lambda p: tuple(range((p - 1) // 2 + 1)),
    ),
    RowSpec(
        "C1_5", 2,
        "shifted squared-central sums over 64^k vanish at alternating shifts",
        lambda p: p >= 5,
        param_name="d",
        param_values=_qualifying_shifts(lambda p: (p + 1) // 2),
        sweep_base=64,
    ),
    RowSpec(
        "C1_6", 2,
        "shift-one squared-central sum over 64^k for p = 3 (mod 4)",
        lambda p: p % 4 == 3,
        sweep_base=64,
    ),
    RowSpec(
        "C1_7a", 2,
        "(k+1)-weighted squared-central sum over 8^k vs x",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "C1_7b", 2,
        "(2k+1)-weighted squared-central sum over (-16)^k vs x",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "C1_8", 2,
        "central-times-Catalan sum over 8^k chain vs 2x - p/x",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "C1_9", 2,
        "central-times-Catalan sum over (-16)^k chain vs 2(2x - p/x)",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "C1_10", 2,
        "k^2-weighted squared-central sum over 8^k vs x - 3p/4x",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "C1_11", 2,
        "k^2-weighted squared-central sum over (-16)^k vs -p/16x",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "C1_12", 2,
        "squared-central shift-one sum over (-8)^k vs 2p - 2x^2",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "C1_13", 2,
        "central times squared shift-one sum over (-8)^k vs -2p",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "CR1_1", lambda p: 3 if p % 4 == 1 else 2,
        "combined (k+1)/8^k and (2k+1)/(-16)^k squared-central sums",
        lambda p: p >= 5,
        conjectural=lambda p, v: True,
        experimental=True,
    ),
    RowSpec(
        "C1_14b", 2,
        "C(2k,k)^2 C(3k,k)/108^k sum vs weight-3 eta-product coefficient",
        lambda p: p >= 5,
        sweep_base=108,
    ),
    RowSpec(
        "C1_14c", 2,
        "C(2k,k)^2 C(4k,2k)/256^k sum vs weight-3 eta-product coefficient",
        lambda p: p >= 5,
        sweep_base=256,
    ),
    RowSpec(
        "C1_15", 2,
        "C(2k,k) C(3k,k) C(6k,3k)/1728^k sum vs eta-product coefficient",
        lambda p: p >= 5,
        sweep_base=1728,
    ),
    RowSpec(
        "C1_19", 2,
        "shifted 108-family sums vanish at alternating shifts",
        lambda p: p >= 5,
        param_name="d",
        param_values=_qualifying_shifts(lambda p: (1 + legendre_symbol(p, 3)) // 2),
        sweep_base=108,
    ),
    RowSpec(
        "C1_20", 2,
        "shifted 256-family sums vanish at alternating shifts",
        lambda p: p >= 5,
        param_name="d",
        param_values=_qualifying_shifts(lambda p: (1 + legendre_symbol(-2, p)) // 2),
        sweep_base=256,
    ),
    RowSpec(
        "C1_21", 2,
        "shifted 1728-family sums vanish at alternating shifts",
        lambda p: p >= 5,
        param_name="d",
        param_values=_qualifying_shifts(lambda p: (1 + legendre_symbol(-1, p)) // 2),
        sweep_base=1728,
    ),
    RowSpec(
        "C1_22", 2,
        "256-family sum at shift 0 vs the x^2+2y^2 form for p = 3 (mod 8)",
        lambda p: p % 8 == 3,
        sweep_base=256,
    ),
    RowSpec(
        "C1_23", 2,
        "1728-family sum at shift 0 vs the x^2+y^2 form for p = 5 (mod 12)",
        lambda p: p % 12 == 5,
        sweep_base=1728,
    ),
    RowSpec(
        "C1_24", 2,
        "C(2k,k)^2 C(3k,k+1)/108^k sum vanishes for p = 1 (mod 3)",
        lambda p: p % 3 == 1,
    ),
    RowSpec(
        "C1_25", 2,
        "256-family sum at shift 1 vanishes for p = 1,3 (mod 8)",
        lambda p: p % 8 in (1, 3),
        sweep_base=256,
    ),
    RowSpec(
        "C1_26", 2,
        "1728-family sum at shift 1 vanishes for p = 1 (mod 4)",
        lambda p: p % 4 == 1,
        sweep_base=1728,
    ),
    RowSpec(
        "CL3_2", 3,
        "double convolution sums of squared central binomials mod p^3",
        lambda p: p >= 5,
        param_name="part",
        param_values=lambda p: (1, 2),
    ),
    RowSpec(
        "CL3_3", 3,
        "weighted half-range squared-central sums mod p^3",
        lambda p: p >= 5,
        param_name="part",
        param_values=lambda p: (1, 2, 3, 4),
    ),
    RowSpec(
        "CGZ", 3,
        "(3k+1) C(2k,k)^3/(-8)^k sum vs p(-1|p) mod p^3",
        lambda p: p >= 5,
    ),
    RowSpec(
        "CGZ_P4", 4,
        "(3k+1) C(2k,k)^3/(-8)^k sum with Euler-number correction mod p^4",
        lambda p: p >= 5,
        conjectural=lambda p, v: True,
        experimental=True,
    ),
    RowSpec(
        "C3_2", 2,
        "C(n,(p-1)/4) vs (2^(p-1)+1)/2 (2x - p/2x) for p = 1 (mod 4)",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "C3_3", 2,
        "squared-central sums over 8^k and (-16)^k chain vs 2x - p/2x",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "C3_4", 2,
        "central Delannoy number at (p-1)/2 vs 2x - p/2x",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "CR3_1", 1,
        "central Delannoy number at (p-1)/2 vanishes for p = 3 (mod 4)",
        lambda p: p % 4 == 3,
    ),
    RowSpec(
        "C3_5", 2,
        "cubed central binomials over (-8)^k vs the x^2+y^2 form",
        lambda p: p >= 5,
    ),
    RowSpec(
        "C4_1", 1,
        "cubic-sum vs 256-family transformation at scaled arguments",
        lambda p: p >= 5,
        param_name="x",
        param_values=lambda p: (1, 2, 3, -2),
    ),
    RowSpec(
        "CG", 1,
        "C(n,(p-1)/4) vs 2x for p = x^2 + y^2, x = 1 (mod 4)",
        lambda p: p % 4 == 1,
    ),
    RowSpec(
        "CM", 1,
        "C(n,(p-1)/4) vs 12(-432)^m C(2m,m) for p = 12m + 5",
        lambda p: p % 12 == 5,
    ),
    RowSpec(
        "C_AHL", 1,
        "alternating Apery-style sum vs the x^2+2y^2 form",
        lambda p: p >= 5,
    ),
)

_ROW_INDEX = {row.id: i for i, row in enumerate(_REGISTRY)}


def registry() -> tuple[RowSpec, ...]:
    """All congruence rows in report order."""
    return _REGISTRY


def all_ids() -> list[str]:
    return [row.id for row in _REGISTRY]


def default_ids() -> list[str]:
    """Ids checked by default: every row that is not fully experimental."""
    return [row.id for row in _REGISTRY if not row.experimental]


def _format_params(row: RowSpec, value: int | None) -> str:
    if value is None:
        return ""
    return f"{row.param_name}={value}"


def _status(row: RowSpec, p: int, value: int | None, ok: bool) -> str:
    if row.conjectural(p, value):
        return XPASS if ok else XFAIL
    return PASS if ok else FAIL


def _report(row, ctx, kexp, value, members, rhs, micros=0) -> CongruenceReport:
    ok = all(m == rhs for m in members)
    lhs_out, rhs_out = members[0], rhs
    if not ok:
        seq = (*members, rhs)
        for a, b in zip(seq, seq[1:]):
            if a != b:
                lhs_out, rhs_out = a, b
                break
    return CongruenceReport(
        id=row.id,
        p=ctx.p,
        params=_format_params(row, value),
        modulus=ctx.pk(kexp),
        lhs=lhs_out,
        rhs=rhs_out,
        status=_status(row, ctx.p, value, ok),
        micros=micros,
    )


def _skipped(row: RowSpec, p: int, kexp: int, value: int | None = None) -> CongruenceReport:
    return CongruenceReport(
        id=row.id,
        p=p,
        params=_format_params(row, value),
        modulus=p**kexp,
        lhs=None,
        rhs=None,
        status=SKIPPED,
    )


def check(
    congruence_id: str,
    p: int,
    param: int | None = None,
    *,
    mod_exp: int | None = None,
) -> CongruenceReport:
    """Evaluate one congruence row at one prime via the reference path.

    ``param`` carries the row's parameter (shift d, index k, part number or
    weight x) and must be omitted for parameterless rows.  A prime the row
    does not apply to — or a parameter value outside the qualifying set —
    yields a ``skipped`` report.  ``mod_exp`` overrides the modulus exponent.
    """
    if congruence_id not in _ROW_INDEX:
        raise ValueError(f"unknown congruence id {congruence_id!r}")
    row = _REGISTRY[_ROW_INDEX[congruence_id]]
    if not is_prime(p) or p < 5:
        raise ValueError(f"p must be a prime >= 5, got {p}")
    kexp = row.exponent(p) if mod_exp is None else mod_exp
    if kexp < 1:
        raise ValueError("modulus exponent must be >= 1")
    if row.param_values is None:
        if param is not None:
            raise ValueError(f"{congruence_id} takes no parameter")
    elif param is None:
        raise ValueError(f"{congruence_id} needs parameter {row.param_name!r}")
    if not row.applies(p):
        return _skipped(row, p, kexp, param)
    if row.param_values is not None and param not in row.param_values(p):
        return _skipped(row, p, kexp, param)
    ctx = PrimeContext(p)
    members, rhs = _EVAL[congruence_id](ctx, kexp, param)
    return _report(row, ctx, kexp, param, members, rhs)


def _suite_for_prime(
    p: int,
    ids: tuple[str, ...],
    mod_exp: dict[str, int],
    timings: bool,
) -> list[CongruenceReport]:
    ctx = PrimeContext(p)
    rows = [_REGISTRY[_ROW_INDEX[i]] for i in ids]
    # one shift-engine pass per (family, modulus exponent) serves every row
    by_exp: dict[int, list[int]] = {}
    for row in rows:
        if row.sweep_base is not None and row.applies(p):
            kexp = mod_exp.get(row.id, row.exponent(p))
            by_exp.setdefault(kexp, []).append(row.sweep_base)
    for kexp, bases in sorted(by_exp.items()):
        ctx.sweep(sorted(set(bases)), kexp)
    reports: list[CongruenceReport] = []
    for row in rows:
        kexp = mod_exp.get(row.id, row.exponent(p))
        if not row.applies(p):
            reports.append(_skipped(row, p, kexp))
            continue
        values: tuple[int | None, ...] = (
            (None,) if row.param_values is None else row.param_values(p)
        )
        if row.sweep_base is not None and row.param_values is not None:
            table = ctx.sweep((row.sweep_base,), kexp)[row.sweep_base]
            for v in values:
                reports.append(_report(row, ctx, kexp, v, (table[v],), 0))
            continue
        for v in values:
            start = time.perf_counter_ns() if timings else 0
            members, rhs = _EVAL[row.id](ctx, kexp, v)
            micros = (time.perf_counter_ns() - start) // 1000 if timings else 0
            reports.append(_report(row, ctx, kexp, v, members, rhs, micros))
    return reports


def _suite_worker(args) -> list[CongruenceReport]:
    p, ids, mod_exp_items, timings = args
    return _suite_for_prime(p, ids, dict(mod_exp_items), timings)


def run_suite(
    primes: Iterable[int],
    ids: Iterable[str] | None = None,
    *,
    jobs: int = 1,
    mod_exp: dict[str, int] | None = None,
    timings: bool = False,
) -> list[CongruenceReport]:
    """Evaluate congruence rows over a set of primes.

    ``primes``: candidate moduli; entries below 5 or composite are dropped.
    ``ids``: row ids in any order (default: the whole registry); unknown ids
    raise ValueError.  ``jobs`` > 1 distributes primes over worker processes
    — the result is identical to the serial run.  ``mod_exp`` maps row ids to
    overridden modulus exponents.  ``timings`` fills the per-row micros field
    (kept at 0 otherwise so repeated runs are byte-identical).
    """
    if ids is None:
        id_list = all_ids()
    else:
        id_list = list(dict.fromkeys(ids))
        for i in id_list:
            if i not in _ROW_INDEX:
                raise ValueError(f"unknown congruence id {i!r}")
        id_list.sort(key=_ROW_INDEX.__getitem__)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    over = dict(mod_exp or {})
    for i, k in over.items():
        if i not in _ROW_INDEX:
            raise ValueError(f"unknown congruence id {i!r}")
        if k < 1:
            raise ValueError("modulus exponent must be >= 1")
    ps = sorted({p for p in primes if p >= 5 and is_prime(p)})
    id_tuple = tuple(id_list)
    if jobs == 1 or len(ps) <= 1:
        out: list[CongruenceReport] = []
        for p in ps:
            out.extend(_suite_for_prime(p, id_tuple, over, timings))
        return out
    work = [(p, id_tuple, tuple(over.items()), timings) for p in ps]
    chunk = max(1, len(work) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_suite_worker, work, chunksize=chunk))
    out = []
    for part in results:
        out.extend(part)
    return out
