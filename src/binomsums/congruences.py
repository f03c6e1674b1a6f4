"""Checkers for central-binomial-sum congruences modulo prime powers.

Every registry row states a congruence for a sum of products of up to three
binomial coefficients, e.g.

    sum_{k<p} C(2k,k)^2 C(2k,k+d) / 64^k   (mod p^2),

whose right-hand side is a binary-quadratic-form expression (p = x^2 + d y^2),
an eta-product Fourier coefficient, a Delannoy/Schroeder number, or zero.
Rows are checked exactly: each term is carried as p^v * unit with the unit
reduced mod p^K, so equality of the reported residues decides the congruence.
Every summand is a product of factorials (a k + b)!^(+-1), times a power of
C(2k,k), over base^k; the term engine ``PrimeContext.terms`` reads it per k
from the prime's factorial tables, so no term is built from its predecessor.

Two evaluation paths exist and are pinned against each other by the tests:

* ``check`` runs a single row at a single prime through the direct reference
  evaluators (each shifted sum summed term by term);
* ``iter_suite`` batches rows over many primes, sharing per-prime factorial
  tables, term lists, running-sum menus, and the shift engine, which produces
  all shifted sums S(d) of a family at once in O(p) by stepping the certified
  d -> d+2 relations from two seeds read from binomial columns that every
  family shares.  A prime's lower exponents read
  these reduced from its higher ones.  It yields reports one prime at
  a time; ``run_suite`` collects them into a list.

Statuses: ``pass``/``fail`` for proven rows, ``experimental-pass``/
``experimental-fail`` for conjectural ones, and ``skipped`` when a row's side
condition excludes the prime.  Only a plain ``fail`` should ever make a
verification run unsuccessful.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple

from ._sweeps import SHIFT_FAMILIES, shift_sums
from .arith import (
    FactorialTables,
    is_prime,
    legendre_symbol,
    mod_inverse,
    represent,
)
from .qseries import coefficient_closed_form
from .sequences import euler_number_mod_p

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
XPASS = "experimental-pass"
XFAIL = "experimental-fail"


class CongruenceReport(NamedTuple):
    """Outcome of one congruence row at one prime, as an immutable named tuple.

    ``lhs``/``rhs`` are residues mod ``modulus`` (None when skipped).  For
    chained statements that assert several sums agree, ``lhs``/``rhs`` show
    the first differing pair on failure and (first member, closed form)
    otherwise.  ``micros`` is filled only when timings were requested; it is
    the marginal cost of the row's own evaluation, which leaves out the shared
    per-prime tables, menus and sweeps, and it is 0 for table rows.
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


def _family_spec(binomials) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """A product of C(a k, b k) as C(2k,k)^c times factorial factors (a, b, e)."""
    central, exps = 0, {}
    for a, b in binomials:
        if (a, b) == (2, 1):
            central += 1
            continue
        for m, e in ((a, 1), (b, -1), (a - b, -1)):
            exps[m] = exps.get(m, 0) + e
    return central, tuple((m, 0, e) for m, e in exps.items() if e)


# each shift family's weight as an input to ``PrimeContext.terms``
_FAMILY_SPEC = {base: _family_spec(fam.binomials) for base, fam in SHIFT_FAMILIES.items()}
# C(2k,k+1) / C(2k,k) = k!^2 / ((k+1)! (k-1)!), for k >= 1
_SHIFT1 = ((1, 0, 2), (1, 1, -1), (1, -1, -1))
# Catalan(k) / C(2k,k) = k! / (k+1)!
_CATALAN = ((1, 0, 1), (1, 1, -1))


def _tail_error(stream: str, p: int, k: int, val: int) -> ArithmeticError:
    """The invariant v_p(C(2k,k)^2) >= 2 for (p+1)/2 <= k < p was broken."""
    return ArithmeticError(
        f"{stream}: squared central binomial tail valuation {val} < 2 "
        f"at p={p}, k={k}"
    )


def _column(table: list[int], a: int, b: int, lo: int, hi: int) -> list[int]:
    """table[a*k + b] for lo <= k <= hi (a may be zero or negative)."""
    if a == 0:
        return [table[b]] * (hi - lo + 1)
    stop = a * hi + b + (1 if a > 0 else -1)
    return table[a * lo + b : stop if stop >= 0 else None : a]


class PrimeContext:
    """Shared per-prime state for congruence evaluation.

    Every summand comes from one term engine, ``terms``: a product
    C(2k,k)^c * prod (a k + b)!^e / base^k is read per k from the factorial
    tables as a sum of valuations and a product of units, with no ratio
    stream.  C(2k,k) is read from the tables once (``central``), which is
    also where the squared-central tail invariants get their valuations.
    Terms, menus, weights, sweep outputs and quadratic representations are
    cached on first use, so checking many rows at one prime costs one pass
    per distinct (summand, base).

    A value mod p^K is the value mod p^J (J > K) reduced mod p^K, so a miss
    at K is reduced from the lowest higher exponent cached, and built only if
    there is none.  The suite evaluates rows from the top exponent down, so a
    prime builds its factorial table, C(2k,k), powers and menus once each.
    """

    def __init__(self, p: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"need a prime p >= 5, got {p}")
        self.p = p
        self.n = (p - 1) // 2
        self._cache: dict = {}
        self._exps: set[int] = set()  # the exponents of the keys cached so far

    # --- basic cached helpers -------------------------------------------

    def _cached(self, key, build: Callable[[], object]):
        """The value cached under ``key``, built by ``build()`` on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _higher(self, key: tuple, kexp: int, fits: Callable = lambda v: True):
        """The cached value of ``key`` at the lowest exponent above kexp that ``fits``, or None."""
        found = (self._cache.get((*key, j)) for j in sorted(self._exps) if j > kexp)
        return next((v for v in found if v is not None and fits(v)), None)

    def _at(self, key: tuple, kexp: int, build: Callable[[], object] | None = None):
        """The value for ``key`` mod p^kexp: cached, else the one of the lowest
        higher exponent cached reduced mod p^kexp, else ``build()`` (None
        without ``build``).  Units and residues reduce entry by entry and menus
        value by value; valuation lists are shared, so their checks ran on them.
        """
        full = (*key, kexp)
        if full not in self._cache:
            value, pkv = self._higher(key, kexp), self.pk(kexp)
            if isinstance(value, dict):
                value = {name: v % pkv for name, v in value.items()}
            elif isinstance(value, tuple):  # (valuations, units)
                value = (value[0], [u % pkv for u in value[1]])
            elif value is not None:
                value = [r % pkv for r in value]
            elif build is None:
                return None
            else:
                value = build()
            self._cache[full] = value
            self._exps.add(kexp)
        return self._cache[full]

    def pk(self, kexp: int) -> int:
        return self.p**kexp

    def tables(self, kexp: int, limit: int = 0) -> FactorialTables:
        """Factorial tables mod p^kexp reaching n! for n <= max(p, limit).

        One table per prime: the cached table at kexp, else the lowest higher
        exponent's table that reaches far enough, reduced, else a new build,
        which then serves every smaller request.
        """
        limit = max(self.p, limit)
        cached = self._cache.get(("tables", kexp))
        if cached is None or cached.limit < limit:
            higher = self._higher(("tables",), kexp, lambda t: t.limit >= limit)
            cached = higher.reduced(kexp, limit) if higher else FactorialTables(self.p, kexp, limit)
            self._cache[("tables", kexp)] = cached
            self._exps.add(kexp)
        return cached

    def legendre(self, a: int) -> int:
        return self._cached(("leg", a), lambda: legendre_symbol(a, self.p))

    def rep(self, d: int):
        return self._cached(("rep", d), lambda: represent(self.p, d))

    def sign_quarter(self, kexp: int) -> int:
        """(-1)^((p-1)/4) mod p^kexp, defined for p = 1 (mod 4)."""
        return 1 if self.p % 8 == 1 else self.pk(kexp) - 1

    # --- the term engine --------------------------------------------------

    def central(self, kexp: int) -> tuple[list[int], list[int]]:
        """Valuations and units mod p^kexp of C(2k,k) for k < p."""

        def build():
            p = self.p
            t = self.tables(kexp, 2 * p)
            pk, inv = t.pk, t.inv_unit
            return (
                [a - 2 * b for a, b in zip(t.val[: 2 * p : 2], t.val[:p])],
                [u * i * i % pk for u, i in zip(t.unit[: 2 * p : 2], inv[:p])],
            )

        return self._at(("central",), kexp, build)

    def central_power(self, central: int, base: int, kexp: int) -> tuple[list[int], list[int]]:
        """Valuations and units mod p^kexp of C(2k,k)^central / base^k for k < p.

        ``base`` is inverted mod p^kexp, so negative and residue bases are
        fine.  Cached: the rows that share a power and a base share one pass.
        """

        def build():
            pk = self.pk(kexp)
            cval, cunit = self.central(kexp)
            if base == 1:
                units = [u**central % pk for u in cunit]
            elif central:
                scale = self.central_power(0, base, kexp)[1]
                units = [u**central * s % pk for u, s in zip(cunit, scale)]
            else:
                binv, s = mod_inverse(base % pk, pk), 1
                units = [1] + [(s := s * binv % pk) for _ in range(self.p - 1)]
            return [central * v for v in cval], units

        return self._at(("cpow", central, base), kexp, build)

    def terms(
        self,
        kexp: int,
        base: int = 1,
        central: int = 0,
        factors: tuple[tuple[int, int, int], ...] = (),
        lo: int = 0,
        hi: int | None = None,
    ) -> tuple[list[int], list[int]]:
        """Valuations and units of C(2k,k)^central prod (a k + b)!^e / base^k.

        One entry per k in lo..hi (hi defaults to p-1), units mod p^kexp.
        The summand starts from ``central_power`` and every factorial factor
        is a table lookup; repeated (a, b) factors are merged by summing their
        exponents, so each distinct factorial costs one pass.  The factorial
        table is grown to the largest a k + b the factors reach.
        """
        hi = self.p - 1 if hi is None else hi
        vals, units = self.central_power(central, base, kexp)
        vals, units = vals[lo : hi + 1], units[lo : hi + 1]
        t = self.tables(kexp, max([a * k + b for a, b, _ in factors for k in (lo, hi)], default=0))
        pk = t.pk
        merged: dict[tuple[int, int], int] = {}
        for a, b, e in factors:
            merged[a, b] = merged.get((a, b), 0) + e
        for (a, b), e in merged.items():
            if not e:
                continue
            col = _column(t.val, a, b, lo, hi)
            if any(col):  # (a k + b)! is often p-free over the whole range
                vals = [v + e * x for v, x in zip(vals, col)]
            col, m = _column(t.unit if e > 0 else t.inv_unit, a, b, lo, hi), abs(e)
            if m == 1:
                units = [u * x % pk for u, x in zip(units, col)]
            else:
                units = [u * x**m % pk for u, x in zip(units, col)]
        return vals, units

    def residues(self, kexp: int, terms: tuple[list[int], list[int]]) -> list[int]:
        """p^val * unit mod p^kexp for each (val, unit) of ``terms``."""
        pk = self.pk(kexp)
        pp = [self.p**i for i in range(kexp)]
        return [(pp[v] * u % pk if v else u) if v < kexp else 0 for v, u in zip(*terms)]

    def total(self, kexp: int, terms: tuple[list[int], list[int]]) -> int:
        """The sum of ``terms`` mod p^kexp."""
        return sum(self.residues(kexp, terms)) % self.pk(kexp)

    def check_tail(self, stream: str, vals: list[int], lo: int = 0) -> None:
        """Raise unless v_p >= 2 at every (p+1)/2 <= k; vals[i] is at k = lo+i."""
        start = max((self.p + 1) // 2 - lo, 0)
        if vals[start:] and min(vals[start:]) < 2:
            i = next(i for i in range(start, len(vals)) if vals[i] < 2)
            raise _tail_error(stream, self.p, lo + i, vals[i])

    def weights(self, base: int, kexp: int) -> list[int]:
        """Residues of the shift family for ``base`` at every k < p.

        w(k) = C(a k, b k) C(c k, e k) / base^k, from the term engine.
        """
        return self._at(("w", base), kexp,
                        lambda: self.residues(kexp, self.terms(kexp, base, *_FAMILY_SPEC[base])))

    def shift_column(self, d: int, kexp: int) -> list[int]:
        """Residues of C(2k, k+d) for d <= k < p mod p^kexp.

        The shift engine reads its seeds S(0), S(1) and its check S((p-1)/2)
        from these columns, which every family shares.  The d = 0 column is
        C(2k,k) itself.
        """

        def build():
            if d == 0:
                return self.residues(kexp, self.central(kexp))
            t = self.tables(kexp, 2 * self.p)
            return [t.binomial(2 * k, k + d) for k in range(d, self.p)]

        return self._at(("column", d), kexp, build)

    def sweep(self, bases: Iterable[int], kexp: int) -> dict[int, list[int]]:
        """All shifted sums S[base][d] = sum_k w_base[k] C(2k,k+d) mod p^kexp.

        Each family's p sums come from the O(p) step-relation engine
        ``shift_sums``; one factorial table, sized for the widest requested
        family, and one set of seed columns (``shift_column`` at d = 0, 1 and
        (p-1)/2) serve the weights and the engine of every family.  A family
        already swept at a higher exponent is reduced instead.
        """
        bases = tuple(bases)
        missing = [b for b in bases if self._at(("sweep", b), kexp) is None]
        if missing:
            tables = self.tables(kexp, max(SHIFT_FAMILIES[b].step for b in missing) * self.p)
            columns = {d: self.shift_column(d, kexp) for d in (0, 1, self.n)}
            for b in missing:
                self._at(("sweep", b), kexp,
                         lambda: shift_sums(self.p, b, self.weights(b, kexp), tables, columns))
        return {b: self._cache[("sweep", b, kexp)] for b in bases}

    def transform_coefficients(self, kexp: int) -> tuple[list[int], list[int]]:
        """Residues mod p^kexp of C(2k,k)^3 and C(2k,k)^2 C(4k,2k) for k < p.

        These are ``C4_1``'s two power series in its scaled argument; they do
        not depend on x, so the row reads them once per exponent and each x
        costs one Horner pass per side.  Trailing zero coefficients (the tail
        k > (p-1)/2 for K <= 2) are dropped.  The valuations of the cube are
        checked for the squared-central tail invariant.
        """

        def trimmed(res: list[int]) -> list[int]:
            end = len(res)
            while end and not res[end - 1]:
                end -= 1
            return res[:end]

        def cube():
            terms = self.terms(kexp, 1, 3)
            self.check_tail("C4_1", terms[0])
            return trimmed(self.residues(kexp, terms))

        def quartic():
            # C(2k,k)^2 C(4k,2k) = C(2k,k)^2 (4k)! / (2k)!^2
            return trimmed(self.residues(kexp, self.terms(kexp, 1, 2, ((4, 0, 1), (2, 0, -2)))))

        return self._at(("c4cube",), kexp, cube), self._at(("c4quartic",), kexp, quartic)

    # --- running-sum menus ----------------------------------------------

    def central_square_menu(self, base: int, kexp: int, full: bool) -> dict[str, int]:
        """Weighted sums of C(2k,k)^2 / base^k over k <= (p-1)/2 or k < p.

        Returns A = sum of terms, Ak = sum of k*term, Ak2 = sum of k^2*term,
        and, over the half range only, Acat = sum of C(2k,k)*Catalan(k)/base^k
        (i.e. term/(k+1)).  The tail valuation invariant v_p(C(2k,k)^2) >= 2
        for (p+1)/2 <= k < p is checked on the full range (ArithmeticError if
        broken).
        """

        def build():
            hi = self.p - 1 if full else self.n
            pkv = self.pk(kexp)
            terms = self.terms(kexp, base, 2, hi=hi)
            self.check_tail(f"central_square_menu(base={base})", terms[0])
            t = self.residues(kexp, terms)
            ks = range(hi + 1)
            menu = {
                "A": sum(t) % pkv,
                "Ak": sum(map(mul, ks, t)) % pkv,
                "Ak2": sum(map(mul, map(mul, ks, ks), t)) % pkv,
            }
            if not full:  # no row reads the full-range Acat
                menu["Acat"] = self.total(kexp, self.terms(kexp, base, 2, _CATALAN, hi=hi))
            return menu

        return self._at(("sqmenu", base, full), kexp, build)

    def central_cube_menu(self, base: int, kexp: int) -> dict[str, int]:
        """A3 = sum_{k<p} C(2k,k)^3 / base^k, A3k = sum of k*term, mod p^kexp."""

        def build():
            pkv = self.pk(kexp)
            terms = self.terms(kexp, base, 3)
            self.check_tail(f"central_cube_menu(base={base})", terms[0])
            t = self.residues(kexp, terms)
            return {"A3": sum(t) % pkv, "A3k": sum(map(mul, range(self.p), t)) % pkv}

        return self._at(("cubemenu", base), kexp, build)

    def delannoy_menu(self, kexp: int) -> dict[str, int]:
        """Central Delannoy/Schroeder values at n = (p-1)/2 mod p^kexp.

        Uses (m+1) D_{m+1} = 3(2m+1) D_m - m D_{m-1} and the derivative
        relation D_{n+1} - 3 D_n = 2n S_n; 1/m = inv_unit[m] * unit[m-1].
        """

        def build():
            t = self.tables(kexp)
            pkv, unit, inv = t.pk, t.unit, t.inv_unit
            n = self.n
            prev, cur = 1, 3 % pkv  # D_0, D_1
            for m in range(1, n + 1):
                prev, cur = cur, (3 * (2 * m + 1) * cur - m * prev) * inv[m + 1] * unit[m] % pkv
            sn = (cur - 3 * prev) * inv[2 * n] * unit[2 * n - 1] % pkv
            return {"Dn": prev, "Dn1": cur, "Sn": sn}

        return self._at(("delannoy",), kexp, build)


# --- reference evaluators -------------------------------------------------


def _reference_shift_sum(ctx: PrimeContext, kexp: int, base: int, d: int) -> int:
    """sum_{d<=k<p} w_base[k] * C(2k, k+d) mod p^kexp from the term engine.

    Checks the tail valuation invariant for every summand that contains a
    squared central binomial: the whole weight for base 64, and weight plus
    C(2k,k) itself for the d = 0 sums of the 108 and 256 families.
    """
    if base == 64:
        cval = ctx.central(kexp)[0]
        ctx.check_tail(f"_reference_shift_sum(base=64, d={d})", [2 * v for v in cval])
    central, factors = _FAMILY_SPEC[base]
    terms = ctx.terms(kexp, base, central, factors + ((2, 0, 1), (1, d, -1), (1, -d, -1)), lo=d)
    if d == 0 and base in (108, 256):
        ctx.check_tail(f"_reference_shift_sum(base={base}, d=0)", terms[0])
    return ctx.total(kexp, terms)


def _shift_sum(ctx: PrimeContext, kexp: int, base: int, d: int) -> int:
    """Shifted family sum, from the shift engine's output when one is already
    cached for this (base, exponent) — the suite primes that cache — and
    otherwise through the term-by-term reference path."""
    cached = ctx._cache.get(("sweep", base, kexp))
    if cached is not None:
        return cached[d]
    return _reference_shift_sum(ctx, kexp, base, d)


def _sum_square_shift1(ctx: PrimeContext, kexp: int, base: int) -> int:
    """sum_{k<p} C(2k,k)^2 C(2k,k+1) / base^k mod p^kexp."""
    terms = ctx.terms(kexp, base, 3, _SHIFT1, lo=1)
    ctx.check_tail(f"_sum_square_shift1(base={base})", terms[0], lo=1)
    return ctx.total(kexp, terms)


def _sum_shift1_square(ctx: PrimeContext, kexp: int, base: int) -> int:
    """sum_{k<p} C(2k,k) C(2k,k+1)^2 / base^k mod p^kexp."""
    return ctx.total(kexp, ctx.terms(kexp, base, 3, _SHIFT1 + _SHIFT1, lo=1))


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
    t = ctx.tables(kexp)
    rhs = t.binomial(2 * k, k) * pow(-16, -k, pkv) % pkv
    return (t.binomial(ctx.n + k, 2 * k),), rhs


def _eval_c1_5(ctx, kexp, d):
    return (_shift_sum(ctx, kexp, 64, d),), 0


def _eval_c1_6(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    lhs = _shift_sum(ctx, kexp, 64, 1)
    c = ctx.tables(kexp).binomial(ctx.n, (ctx.p + 1) // 4)
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
    ctx.check_tail("C1_24", [2 * v for v in ctx.central(kexp)[0]])
    # C(3k,k+1) = (3k)! / ((k+1)! (2k-1)!), zero at k = 0
    terms = ctx.terms(kexp, 108, 2, ((3, 0, 1), (1, 1, -1), (2, -1, -1)), lo=1)
    return (ctx.total(kexp, terms),), 0


def _eval_c1_25(ctx, kexp, _):
    return (_shift_sum(ctx, kexp, 256, 1),), 0


def _eval_c1_26(ctx, kexp, _):
    return (_shift_sum(ctx, kexp, 1728, 1),), 0


def _eval_cl3_2(ctx, kexp, part):
    pkv = ctx.pk(kexp)
    # sum_{i+j<p} b_i b_j (s(i+j) + 1) with b_i = C(2i,i)^2/base^i is, by the
    # (i, j) symmetry, sum_i b_i (2si + 1) B(p-1-i), B the prefix sums of b
    base, s = (8, 1) if part == 1 else (-16, 2)
    b = ctx.residues(kexp, ctx.terms(kexp, base, 2))
    weighted = map(mul, b, range(1, 2 * s * ctx.p, 2 * s))
    total = sum(map(mul, weighted, reversed(list(accumulate(b)))))
    rhs = ctx.p * ctx.legendre(-1) % pkv
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
    e = euler_number_mod_p(ctx.p - 3, ctx.p)
    rhs = (ctx.p * ctx.legendre(-1) + ctx.p**3 * e) % pkv
    return (lhs,), rhs


def _eval_c3_2(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    lhs = ctx.tables(kexp).binomial(ctx.n, (ctx.p - 1) // 4)
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


def _horner(coeffs: list[int], t: int, pk: int) -> int:
    """sum_k coeffs[k] * t^k mod pk."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % pk
    return acc


def _eval_c4_1(ctx, kexp, x):
    """sum C(2k,k)^3 (-x/64)^k against (x+1|p) sum C(2k,k)^2 C(4k,2k) (x/(64(x+1)^2))^k.

    Both series have coefficients that do not depend on x; they are read once
    per prime and exponent (``transform_coefficients``) and evaluated at x by
    Horner's rule.
    """
    pkv = ctx.pk(kexp)
    cube, quartic = ctx.transform_coefficients(kexp)
    lhs = _horner(cube, (-x) * mod_inverse(64 % pkv, pkv) % pkv, pkv)
    mult_rhs = x * mod_inverse(64 * (x + 1) * (x + 1) % pkv, pkv) % pkv
    rhs = ctx.legendre(x + 1) * _horner(quartic, mult_rhs, pkv) % pkv
    return (lhs,), rhs


def _eval_cg(ctx, kexp, _):
    lhs = ctx.tables(kexp).binomial(ctx.n, (ctx.p - 1) // 4)
    return (lhs,), 2 * ctx.rep(1).x % ctx.pk(kexp)


def _eval_cm(ctx, kexp, _):
    pkv = ctx.pk(kexp)
    m = (ctx.p - 5) // 12
    t = ctx.tables(kexp)
    rhs = 12 * pow(-432 % pkv, m, pkv) % pkv * t.binomial(2 * m, m) % pkv
    return (t.binomial(ctx.n, (ctx.p - 1) // 4),), rhs


def _eval_c_ahl(ctx, kexp, _):
    p = ctx.p
    pkv = ctx.pk(kexp)
    n = ctx.n
    # C(n,k)^2 C(n+k,k) (-1)^k = n! (n+k)! / (k!^3 (n-k)!^2 (-1)^k), k <= n
    terms = ctx.terms(kexp, -1, 0, ((0, n, 1), (1, n, 1), (1, 0, -3), (-1, n, -2)), hi=n)
    lhs = ctx.legendre(-1) * ctx.total(kexp, terms) % pkv
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


def _check_table_rows() -> None:
    """``_row_reports`` gives a table row's reports pass or fail, so none may be conjectural."""
    for row in _REGISTRY:
        table = row.id == "C1_2" or (row.sweep_base is not None and row.param_values is not None)
        if table and row.conjectural is not RowSpec.conjectural:
            raise ValueError(f"table row {row.id} cannot be conjectural")


_check_table_rows()


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


def _located(exc: Exception, row_id: str, p: int) -> Exception:
    """``exc`` again, as a new exception of its class naming the row and prime."""
    where = f"row={row_id}, p={p}"
    try:
        return type(exc)(f"{exc} ({where})")
    except TypeError:  # a class whose constructor wants other arguments
        return RuntimeError(f"{type(exc).__name__}: {exc} ({where})")


def _row_reports(ctx: PrimeContext, row: RowSpec, kexp: int, timings: bool):
    """The reports of ``row`` at ``ctx.p`` mod p^kexp, in parameter order."""
    p, pkv, table = ctx.p, ctx.pk(kexp), None
    if not row.applies(p):
        return [_skipped(row, p, kexp)]
    if row.sweep_base is not None:  # one pass serves all rows of a family
        sums = ctx.sweep((row.sweep_base,), kexp)[row.sweep_base]
        if row.param_values is not None:  # table rows: lhs = S(d), rhs = 0
            table = [(d, sums[d], 0) for d in row.param_values(p)]
    elif row.id == "C1_2":  # table row: lhs = C(n+k, 2k), rhs = C(2k,k) / (-16)^k
        t, n, rhs = ctx.tables(kexp), ctx.n, ctx.central_power(1, -16, kexp)[1]
        unit, inv = t.unit, t.inv_unit  # n + k < p: every factorial here is a unit
        table = [(k, unit[n + k] * inv[2 * k] % pkv * inv[n - k] % pkv, rhs[k])
                 for k in range(n + 1)]
    if table is not None:
        # table rows are never conjectural (see _check_table_rows)
        prefix, new, rid = f"{row.param_name}=", tuple.__new__, row.id
        return [new(CongruenceReport, (rid, p, f"{prefix}{v}", pkv, lhs, r,
                                       PASS if lhs == r else FAIL, 0))
                for v, lhs, r in table]
    reports = []
    for v in (None,) if row.param_values is None else row.param_values(p):
        start = time.perf_counter_ns() if timings else 0
        members, rhs = _EVAL[row.id](ctx, kexp, v)
        micros = (time.perf_counter_ns() - start) // 1000 if timings else 0
        reports.append(_report(row, ctx, kexp, v, members, rhs, micros))
    return reports


def _suite_for_prime(
    p: int,
    ids: tuple[str, ...],
    mod_exp: dict[str, int],
    timings: bool,
) -> list[CongruenceReport]:
    """The reports of the rows ``ids`` at ``p``, in registry then parameter order.

    The rows are evaluated from the highest exponent down, in registry order
    within one exponent, so each lower exponent reads the prime's tables,
    powers, menus and sweeps reduced from a higher one.  An exception raised
    while a row is evaluated is raised again as the same class with
    ``row=<id>, p=<p>`` in its message, chained from the original; when two
    rows would raise, the one with the higher exponent is reported.
    """
    ctx = PrimeContext(p)
    rows = [_REGISTRY[_ROW_INDEX[i]] for i in ids]
    kexps = [mod_exp.get(row.id, row.exponent(p)) for row in rows]
    # lower exponents reduce the top one's factorial table; the shift engine
    # gets a table sized up front for each exponent's widest family
    widest: dict[int, int] = {}
    for row, kexp in zip(rows, kexps):
        if row.sweep_base is not None and row.applies(p):
            widest[kexp] = max(widest.get(kexp, 0), SHIFT_FAMILIES[row.sweep_base].step)
    for kexp in sorted(widest, reverse=True):
        ctx.tables(kexp, widest[kexp] * p)
    parts: list[list[CongruenceReport]] = [[] for _ in rows]
    for i in sorted(range(len(rows)), key=lambda i: -kexps[i]):
        try:
            parts[i] = _row_reports(ctx, rows[i], kexps[i], timings)
        except Exception as exc:
            raise _located(exc, rows[i].id, p) from exc
    return [r for part in parts for r in part]


def _suite_worker(args) -> list[tuple]:
    """One prime's reports as plain tuples: a named tuple would pickle through
    a Python-level ``__getnewargs__`` call per report."""
    p, ids, mod_exp_items, timings = args
    return list(map(tuple, _suite_for_prime(p, ids, dict(mod_exp_items), timings)))


def iter_suite(
    primes: Iterable[int],
    ids: Iterable[str] | None = None,
    *,
    jobs: int = 1,
    mod_exp: dict[str, int] | None = None,
    timings: bool = False,
) -> Iterator[CongruenceReport]:
    """Evaluate congruence rows over a set of primes, yielding reports in order.

    ``primes``: candidate moduli; entries below 5 or composite are dropped.
    ``ids``: row ids in any order (default: the whole registry); unknown ids
    raise ValueError.  ``jobs`` > 1 distributes primes over worker processes
    — the reports are identical to the serial run's.  ``mod_exp`` maps row ids
    to overridden modulus exponents.  ``timings`` fills the per-row micros
    field (kept at 0 otherwise so repeated runs are byte-identical).

    The arguments are checked here, when it is called; the generator it
    returns evaluates one prime at a time as it is consumed (with ``jobs``,
    each prime's reports as they arrive), so no run holds every report.
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
    return _stream(ps, tuple(id_list), over, jobs, timings)


def _stream(ps, ids, over, jobs, timings) -> Iterator[CongruenceReport]:
    if jobs == 1 or len(ps) <= 1:
        for p in ps:
            yield from _suite_for_prime(p, ids, over, timings)
        return
    work = [(p, ids, tuple(over.items()), timings) for p in ps]
    chunk = max(1, len(work) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = pool.map(_suite_worker, work, chunksize=chunk)
        try:
            for part in parts:
                yield from map(CongruenceReport._make, part)
        finally:
            parts.close()  # a stream dropped early cancels the primes not started


def run_suite(
    primes: Iterable[int],
    ids: Iterable[str] | None = None,
    *,
    jobs: int = 1,
    mod_exp: dict[str, int] | None = None,
    timings: bool = False,
) -> list[CongruenceReport]:
    """Every report of ``iter_suite`` with the same arguments, as one list."""
    return list(iter_suite(primes, ids, jobs=jobs, mod_exp=mod_exp, timings=timings))
