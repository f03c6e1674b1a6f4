"""Checkers for central-binomial-sum congruences modulo prime powers.

Every registry row states one congruence as data, e.g.

    sum_{k<p} C(2k,k)^2 C(2k,k+d) / 64^k = 0   (mod p^2).

A ``Statement``'s left side is a chain of members that must all agree, each
a sum of terms: weighted summands (``Sum``), shifted family sums
(``Shift``), a summand's terms as a column (``Terms``) and short functions
of the row's parameter.  Its right side is one ``Closed`` form in p and the
x of p = x^2 + d y^2, times a sign, or such a function.  Every summand is a
constant, the same at every prime: a factor that reads n = (p-1)/2, as in
the central Delannoy number D_n, is declared so and made plain by
``Sum.at(p)``.  One evaluator, ``_evaluate``, reads every statement.
Rows are checked exactly: each term is carried as p^v * unit with the unit
reduced mod p^K, so equality of the reported residues decides the
congruence.  ``PrimeContext`` reads every summand per k from the prime's
factorial tables and caches its residues and its moments sum_k k^j t_k, of
which a weighted sum is a combination.

Two evaluation paths exist and are pinned against each other by the tests:

* ``check`` evaluates a single row at a single prime, summing each shifted
  sum term by term;
* ``iter_suite`` batches rows over many primes.  Each prime evaluates its
  rows from the top exponent down, so a lower exponent reads tables,
  summands and moments reduced from a higher one.  Each exponent has one
  factorial table, and each of its lists (valuations, units, inverses), like
  each power C(2k,k)^c / base^k, grows to the reach its own readers ask
  for; a lower exponent's table or list takes what the one above it holds,
  reduced (the valuations shared), and builds only the rest.
  The shift engine steps the d -> d+2 relations in O(p) for each
  (family, parity) chain of shifts that a table row reads, from seeds read
  from binomial columns that every family shares.  Within one exponent the
  table rows run first, so a row that reads one fixed shift reads it from
  such a chain when one has its parity.  A row at a prime gives one
  column block: a report's fields, ``id``, ``p`` and ``modulus`` one value
  each, ``params`` a list of one entry per report, and ``lhs``, ``rhs``,
  ``status`` and ``micros`` each a list as long or one value for every
  report (a skipped row: one report, lhs and rhs None, status the one value
  ``skipped``).  ``iter_blocks`` hands each prime's blocks to an encoder, in
  the worker on a pooled run; ``iter_suite`` yields them as reports, and
  ``run_suite`` lists those.

Statuses: ``pass``/``fail`` for proven rows, ``experimental-pass``/
``experimental-fail`` for conjectural and experimental ones, and ``skipped``
when a row's side condition excludes the prime.  Only a plain ``fail`` should
ever make a verification run unsuccessful.
"""

from __future__ import annotations

import gc
import time
from collections import Counter, deque
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import add, eq, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._sweeps import SHIFT_FAMILIES, shift_chain, shift_seed
from .arith import FactorialTables, _euler_criterion, _integer, is_prime, mod_inverse, represent
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
    otherwise.  ``micros``, filled only when timings were requested, is the
    row's own evaluation time, which includes building each per-prime summand
    or seed it is the first row to need, and building or growing each
    factorial table it is the first row to need that far; 0 for table rows,
    which step the shift chains.
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


# --- the vocabulary of a statement ------------------------------------------
#
# Every term is called as term(ctx, kexp, v) -> int, v the row's parameter
# (None for rows without one).  A term with a ``column`` gives its values at
# many parameters at once.


class Sum(NamedTuple):
    """sum_k (w_0 + w_1 k + w_2 k^2 + ...) C(2k,k)^central prod (a k + b)!^e / base^k.

    k runs from ``lo`` to (p-1)/2 with ``half``, else to p-1, and ``weight``
    holds w_0, w_1, ...  A factor (a, b, e) of ``factors`` is (a k + b)!^e, and
    a pair (a, e) of ``n_factors`` is (a k + n)!^e at n = (p-1)/2, which
    ``at(p)`` makes a factor (a, n, e): a summand is a constant at every prime.
    The summand, everything but the weight, is cached with its moments, so
    the weighted sum is sum_j w_j * moment_j.  ``base`` is inverted mod p^K,
    so negative and residue bases are fine.  Mod p^K the summand ends at
    ``cutoff``: every later term is 0, and none is built.
    """

    base: int
    central: int
    weight: tuple[int, ...] = (1,)
    factors: tuple[tuple[int, int, int], ...] = ()
    lo: int = 0
    half: bool = False
    n_factors: tuple[tuple[int, int], ...] = ()

    @property
    def key(self) -> tuple:
        """The summand without its weight: what its residues and moments are cached by."""
        return self.base, self.central, self.factors, self.n_factors, self.lo, self.half

    @property
    def label(self) -> str:
        """The summand as text, e.g. ``C(2k,k)^2 (1k+1)!^-1/8^k``, for error messages."""
        parts = [f"C(2k,k)^{self.central}"] if self.central else []
        parts += [f"({a}k{b:+d})!^{e}" for a, b, e in self.factors]
        parts += [f"({a}k+n)!^{e}" for a, e in self.n_factors]
        return " ".join(parts or ["1"]) + f"/{self.base}^k"

    def __call__(self, ctx: PrimeContext, kexp: int, v) -> int:
        return sum(w * ctx.moment(kexp, self, j) for j, w in enumerate(self.weight) if w)

    def at(self, p: int) -> Sum:
        """The summand at the prime p: each n-factor (a, e) a factor (a, (p-1)/2, e)."""
        if not self.n_factors:
            return self
        n = (p - 1) // 2
        return self._replace(factors=self.factors + tuple((a, n, e) for a, e in self.n_factors),
                             n_factors=())

    def cutoff(self, p: int, kexp: int) -> int:
        """The last k of the range whose term can be nonzero mod p^kexp (lo - 1 if none).

        v_p(C(2k,k)^c prod (a k + b)!^e) is read at lo by Legendre's formula.
        It changes only where 2k, k or some a k + b passes a multiple m of p,
        by e v_p(m) for that factor, so it is stepped through those points and
        no table is read.  Every term past the cutoff has v_p >= kexp.
        """
        lo, hi = self.lo, (p - 1) // 2 if self.half else p - 1
        v, steps, cut = 0, {}, lo - 1
        for a, b, e in ((2, 0, self.central), (1, 0, -2 * self.central), *self.at(p).factors):
            if e:  # a k + b reaches m (a > 0) or drops below it (a < 0) at the k below
                first, last = sorted((a * lo + b, a * hi + b))
                v += e * _legendre(a * lo + b, p)
                for m in range(first // p * p + p, last + 1, p):
                    k = -((b - m) // a) if a > 0 else -((m - 1 - b) // -a)
                    dv = _legendre(m, p) - _legendre(m - 1, p)  # v_p(m)
                    steps[k] = steps.get(k, 0) + (dv * e if a > 0 else -dv * e)
        for k in sorted(steps) + [hi + 1]:  # v holds from the last step up to k - 1
            cut, v = k - 1 if v < kexp else cut, v + steps.get(k, 0)
        return cut


class Shift(NamedTuple):
    """S_base(d) = sum_{k<p} w_base(k) C(2k, k+d) for the shift family of ``base``.

    ``d`` None reads the row's parameter, the shifts d < p whose parity is odd
    on the residue class ``odd`` and even elsewhere (``values``).  A table row
    reads its shifts as a slice of their chain (``PrimeContext.chain``), and
    any other row reads its shift through ``PrimeContext.shift_sum``;
    ``check``'s context sums them term by term.
    """

    base: int
    d: int | None = None
    odd: tuple[int, ...] = (1,)

    def values(self, p: int) -> range:
        return range(_holds(self.odd, p), p, 2)

    def __call__(self, ctx: PrimeContext, kexp: int, v) -> int:
        return ctx.shift_sum(self.base, v if self.d is None else self.d, kexp)

    def column(self, ctx: PrimeContext, kexp: int, values: range) -> list[int]:
        if self.d is not None or values.step != 2:
            raise ValueError("a shift column reads the shifts of one parity, a range of step 2")
        i = values.start // 2
        return ctx.chain(self.base, values.start % 2, kexp)[i : i + len(values)]


class Terms(NamedTuple):
    """The terms of ``summand`` as a column: entry v is its term at k = v.  ValueError
    for a k below ``lo`` or past the cutoff, where no term is built."""

    summand: Sum

    def values(self, p: int) -> range:
        return range(self.summand.lo, (p + 1) // 2 if self.summand.half else p)

    def __call__(self, ctx: PrimeContext, kexp: int, v) -> int:
        return self.column(ctx, kexp, range(v, v + 1))[0]

    def column(self, ctx: PrimeContext, kexp: int, values: range) -> list[int]:
        s = self.summand
        col = ctx.summand(kexp, s)[values.start - s.lo : values.stop - s.lo : values.step]
        if values.start < s.lo or len(col) != len(values):
            raise ValueError(f"{s.label} has no term at some k of {values} mod p^{kexp}")
        return col


class Closed(NamedTuple):
    """sign * (x2 x^2 + x x + p_x p/x + p p + p2 p^2), x from p = x^2 + d y^2.

    x is normalized as ``represent`` gives it (x = 1 (mod 4) for d = 1), and
    a form with an x term is 0 when p has no such representation: 4x^2 - 2p
    is the eta-product coefficient shape.  ``sign`` is the a of the Legendre
    symbol (a|p); at p = 1 (mod 4), (2|p) is (-1)^((p-1)/4).  ``p_x`` may be
    a Fraction whose denominator is prime to p.
    """

    x2: int = 0
    x: int = 0
    p_x: int | Fraction = 0
    p: int = 0
    p2: int = 0
    d: int = 1
    sign: int = 1

    def __call__(self, ctx: PrimeContext, kexp: int, v) -> int:
        pk, p = ctx.pk(kexp), ctx.p
        value = self.p * p + self.p2 * p * p
        if self.x2 or self.x or self.p_x:
            rep = ctx.rep(self.d)
            if rep is None:
                return 0
            x = rep.x
            value += self.x2 * x * x + self.x * x
            if self.p_x:  # an int has a numerator and a denominator too
                c = self.p_x
                value += c.numerator * mod_inverse(c.denominator * x % pk, pk) * p
        if self.sign != 1:
            value *= ctx.legendre(self.sign)
        return value % pk

    def column(self, ctx: PrimeContext, kexp: int, values) -> list[int]:
        return [self(ctx, kexp, None)] * len(values)


ZERO = Closed()


class Statement(NamedTuple):
    """Every member of ``lhs``, a term or a tuple of terms to add, is congruent to ``rhs``."""

    lhs: tuple
    rhs: Callable


def _legendre(n: int, p: int) -> int:
    """v_p(n!) = sum_j floor(n / p^j), Legendre's formula."""
    return n // p + _legendre(n // p, p) if n >= p else 0


def _family_sum(base: int, binomials) -> Sum:
    """A family weight prod C(a k, b k) / base^k as C(2k,k)^c times factorial factors (a, b, e)."""
    central, exps = 0, {}
    for a, b in binomials:
        if (a, b) == (2, 1):
            central += 1
            continue
        for m, e in ((a, 1), (b, -1), (a - b, -1)):
            exps[m] = exps.get(m, 0) + e
    return Sum(base, central, factors=tuple((m, 0, e) for m, e in exps.items() if e))


# each shift family's weight w(k) as a summand
_FAMILY = {base: _family_sum(base, fam.binomials) for base, fam in SHIFT_FAMILIES.items()}
_CENTRAL = Sum(1, 1)  # C(2k,k) itself


def _shifted(d: int) -> tuple[tuple[int, int, int], ...]:
    """C(2k, k+d) = (2k)! / ((k+d)! (k-d)!) as factors, for k >= d."""
    return (2, 0, 1), (1, d, -1), (1, -d, -1)


# C(2k,k+1) / C(2k,k) = k!^2 / ((k+1)! (k-1)!), for k >= 1
_SHIFT1 = ((1, 0, 2), (1, 1, -1), (1, -1, -1))
# Catalan(k) / C(2k,k) = k! / (k+1)!
_CATALAN = ((1, 0, 1), (1, 1, -1))


def _column(table: list[int], a: int, b: int, lo: int, hi: int) -> list[int]:
    """table[a*k + b] for lo <= k <= hi (a may be zero or negative)."""
    if a == 0:
        return [table[b]] * (hi - lo + 1)
    stop = a * hi + b + (1 if a > 0 else -1)
    return table[a * lo + b : stop if stop >= 0 else None : a]


def _product(cols: list[list[int]], pv: list[int] | None, pk: int) -> list[int]:
    """pv[k] * prod_i cols[i][k] mod pk for every k, pv None standing for all 1.

    Three columns are folded into one per pass until the last pass can take
    the rest: four columns, or two or three and pv.  An entry whose pv is 0
    is left at 0 without its product.
    """
    ones = pv is None
    while len(cols) > 3 + ones:
        cols[-3:] = [[q and x * y * z % pk for x, y, z, q in zip(*cols[-3:], pv or repeat(1))]]
    if not ones:
        if len(cols) == 3:
            return [q and x * y * z * q % pk for x, y, z, q in zip(*cols, pv)]
        return [q and x * y * q % pk for x, y, q in zip(*cols, pv)]
    if len(cols) == 4:
        return [x * y * z * w % pk for x, y, z, w in zip(*cols)]
    if len(cols) == 3:
        return [x * y * z % pk for x, y, z in zip(*cols)]
    return [x * y % pk for x, y in zip(*cols)] if len(cols) == 2 else cols[0]


class PrimeContext:
    """Shared per-prime state for congruence evaluation.

    Every summand comes from one term engine, ``_kernel``: a product
    C(2k,k)^c * prod (a k + b)!^e / base^k is read per k from the factorial
    tables as a sum of valuations and a product of units, with no ratio
    stream, up to ``Sum.cutoff``: past it only valuations are read, to show
    every term is 0 mod p^K.  Only the shift engine and its direct-sum guard
    compute terms per k outside it.  The valuations of C(2k,k)^c are read once
    (``valuations``), its units over a base once per exponent (``power``).
    Summands, their moments, shift chains, shifted sums and quadratic
    representations are cached on first use, so checking many rows at one
    prime costs one kernel call per distinct summand and one pass per moment.

    A value mod p^K is the value mod p^J (J > K) reduced mod p^K, so a miss
    at K is reduced from the lowest higher exponent cached, and built only if
    there is none.  The suite evaluates rows from the top exponent down, so a
    prime builds summands once each, and a lower exponent's factorial table
    and power lists take what the ones above them hold and build only the
    rest.  Each list of an exponent's table grows to the reach its own
    readers ask for (``tables``): valuations over a summand's whole range,
    units and inverses only to its cutoff, and the shift engine's inverses
    only where a chain steps; the units of each power C(2k,k)^c / base^k
    grow to their readers' cutoffs (``power``), so at p^3, where ``_cl3_2``
    reads k > (p-1)/2 mod p^2, none passes (p-1)/2.  A
    shift chain is stepped only where a table row reads it.  What a prime
    computes follows from what its rows read and the order in which they run,
    with one choice fixed at import: a power C(2k,k)^c / base^k that two or
    more summands read (``_SHARED_POWERS``) gets a cached pass of its own, any
    other is multiplied into its summand's pass.  Sharing every power gives
    the same output with more ``_product`` multiplications: +8.6% on 10 shift
    rows at 21 primes from 2003, +7.2% on all rows to 491.
    """

    def __init__(self, p: int):
        if p < 5 or not is_prime(p):
            raise ValueError(f"need a prime p >= 5, got {p}")
        self.p = p
        self.n = (p - 1) // 2
        self._cache: dict = {}
        self._top = 0  # the highest exponent of the keys cached so far

    # --- basic cached helpers -------------------------------------------

    def _cached(self, key, build: Callable[[], object]):
        """The value cached under ``key``, built by ``build()`` on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _higher(self, key: tuple, kexp: int):
        """The cached value of ``key`` at the lowest exponent above kexp, or None."""
        for j in range(kexp + 1, self._top + 1):
            value = self._cache.get((*key, j))
            if value is not None:
                return value
        return None

    def _at(self, key: tuple, kexp: int, build: Callable[[], object] | None = None,
            s: Sum | None = None):
        """The value for ``key`` mod p^kexp: cached, else the one of the lowest
        higher exponent cached reduced mod p^kexp, else ``build()`` (None
        without ``build``).  Residues reduce entry by entry, a summand ``s``'s
        cut to its cutoff at kexp, and moments as numbers.
        """
        full = (*key, kexp)
        value = self._cache.get(full)
        if value is None:
            value, pkv = self._higher(key, kexp), self.pk(kexp)
            if isinstance(value, int):
                value %= pkv
            elif value is not None:
                stop = s.cutoff(self.p, kexp) + 1 - s.lo if s else None
                value = [r % pkv for r in value[:stop]]
            elif build is None:
                return None
            else:
                value = build()
            self._cache[full] = value
            self._top = max(self._top, kexp)
        return value

    def pk(self, kexp: int) -> int:
        return self.p**kexp

    def tables(self, kexp: int, limit: int = 0, unit: int | None = None,
               inv: int | None = None) -> FactorialTables:
        """Factorial tables mod p^kexp whose lists reach n <= limit, ``unit`` and ``inv``
        at least, as ``FactorialTables.grow`` takes them.  Each exponent makes its
        table once, on first use, from 0! with the lowest higher exponent's table
        cached as its source; each list then grows in place to its own readers'
        furthest reach, taking from the source what that holds."""
        t = self._cache.get(("tables", kexp))
        if t is None:
            t = FactorialTables(self.p, kexp, 0, self._higher(("tables",), kexp))
            self._cache[("tables", kexp)] = t
            self._top = max(self._top, kexp)
        t.grow(limit, unit, inv)
        return t

    def legendre(self, a: int) -> int:
        return self._cached(("leg", a), lambda: _euler_criterion(a, self.p))

    def rep(self, d: int):
        return self._cached(("rep", d), lambda: represent(self.p, d))

    # --- the term engine --------------------------------------------------

    def power(self, c: int, base: int, kexp: int, stop: int) -> list[int]:
        """The units of C(2k,k)^c / base^k mod p^kexp, one per k from 0 and for k < stop
        at least (negative and residue bases are fine).  The list, one per (c, base)
        and exponent, starts as [1], the entry at k = 0, and grows in place to its
        readers' furthest stop: first by the lowest higher exponent's entries, reduced
        mod p^kexp as far as that list holds them, then by building the rest: base^-k
        by one inverse and a running product, C(2k,k) as (2k)!/k!^2 from the tables,
        and any other power as the ``_product`` of those two."""
        key = ("power", c, base)
        units = self._cache.get((*key, kexp))
        if units is None:
            units = self._cache[(*key, kexp)] = [1]
            self._top = max(self._top, kexp)
        pk = self.pk(kexp)
        if len(units) < stop:
            units += [u % pk for u in (self._higher(key, kexp) or [])[len(units) : stop]]
        start = len(units)
        if start >= stop:
            return units
        if c == 0:
            binv, s = mod_inverse(base % pk, pk), units[-1]
            units += [(s := s * binv % pk) for _ in range(stop - start)]
        elif (c, base) == (1, 1):
            t = self.tables(kexp, 0, 2 * stop - 2, stop - 1)
            units += [u * i * i % pk for u, i in zip(t.unit[2 * start : 2 * stop : 2],
                                                     t.inv_unit[start:stop])]
        else:
            scale = [self.power(0, base, kexp, stop)[start:stop]] if base != 1 else []
            units += _product([self.power(1, 1, kexp, stop)[start:stop]] * c + scale, None, pk)
        return units

    def valuations(self, c: int, kexp: int) -> list[int]:
        """c * v_p(C(2k,k)) for every k < p, one list per c for the prime, read from
        the tables' ``val``, which every exponent shares."""

        def build() -> list[int]:
            val = self.tables(kexp, 2 * self.p - 2, 0, 0).val
            return [c * (a - 2 * b) for a, b in zip(val[: 2 * self.p : 2], val[: self.p])]

        return self._cached(("cval", c), build)

    def summand(self, kexp: int, s: Sum) -> list[int]:
        """Residues mod p^kexp of the summand of ``s`` (its weight left out), one per k."""
        return self._at(("summand", s.key), kexp, lambda: self._kernel(kexp, s), s)

    def _kernel(self, kexp: int, s: Sum) -> list[int]:
        """The residues of the summand of ``s`` for k = lo..``Sum.cutoff``, valuations first.

        Its factors are columns: C(2k,k) c times and base^-k (or their product
        C(2k,k)^c / base^k, where summands share it), each read from ``power``
        and ``valuations``, and each merged (a k + b)!^e |e| times, valuations
        over the whole range and units up to the cutoff; the power lists are
        asked for k < cut + 1.
        A valuation below 0, or below kexp past the cutoff, raises ArithmeticError
        naming the summand, p and k.  The unit columns and p^v (0 for v >= kexp,
        left out where every v is 0) are multiplied by ``_product``, or, for a
        single unit column, in the pass that reads p^v; an entry whose p^v is 0
        is left at 0 without its product.
        """
        p, lo, s = self.p, s.lo, s.at(self.p)
        hi, cut = self.n if s.half else p - 1, s.cutoff(p, kexp)
        vcols, cols = [], []  # (valuation column, add or sub) over lo..hi, unit columns to cut

        def factor(val: list[int], unit: list[int], op, times: int) -> None:
            if any(val):  # (a k + b)! is often p-free over the whole range
                vcols.extend([(val, op)] * times)
            cols.extend([unit] * times)

        # the power lists start at k = 0 and may pass the cutoff
        shared = (s.base, s.central) in _SHARED_POWERS
        c, base = (s.central, s.base) if shared else (1, 1)
        if s.central:
            factor(self.valuations(c, kexp)[lo : hi + 1],
                   self.power(c, base, kexp, cut + 1)[lo : cut + 1], add, s.central // c)
        if s.base != base:
            cols.append(self.power(0, s.base, kexp, cut + 1)[lo : cut + 1])
        merged: dict[tuple[int, int], int] = {}
        for a, b, e in s.factors:
            merged[a, b] = merged.get((a, b), 0) + e
        reach = [0, 0, 0]  # val over lo..hi, and unit (e > 0) or inv_unit (e < 0) to cut
        for (a, b), e in merged.items():
            i = 1 if e > 0 else 2
            if e:
                reach[0] = max(reach[0], a * lo + b, a * hi + b)
                reach[i] = max(reach[i], a * lo + b, a * cut + b)
        t = self.tables(kexp, *reach)
        for (a, b), e in merged.items():
            if e:
                factor(_column(t.val, a, b, lo, hi),
                       _column(t.unit if e > 0 else t.inv_unit, a, b, lo, cut),
                       add if e > 0 else sub, abs(e))

        def valuations() -> Iterator[int]:  # v_p of the terms k = lo..hi
            (vals, op), *rest = vcols
            vals = vals if op is add else map(sub, repeat(0), vals)
            for col, op in rest:
                vals = map(op, vals, col)
            return iter(vals)

        pv, pk, out = None, t.pk, None
        vals = valuations() if vcols else repeat(0, hi - cut)  # no column: all 0, the tail's < kexp
        if vcols:
            # v_p(m!) grows with m, so a column's largest entry is at one of its ends
            top = sum(max(col[0], col[-1]) for col, op in vcols if op is add)
            pp = {v: p**v if v < kexp else 0 for v in range(top + 1)}  # no key below 0
            try:  # each pass stops ``vals`` at the cutoff: a zip stops at its first list
                if len(cols) == 1:
                    out = [(q := pp[v]) and x * q % pk if v else x for x, v in zip(*cols, vals)]
                else:
                    pv = list(map(pp.__getitem__, islice(vals, cut + 1 - lo)))
            except KeyError:
                k, v = next((k, v) for k, v in enumerate(valuations(), lo) if v < 0)
                raise ArithmeticError(f"{s.label}: valuation {v} < 0, not p-integral, "
                                      f"at p={p}, k={k}") from None
        tail = list(vals)  # what the passes left of ``vals``: the dead tail
        if min(tail, default=kexp) < kexp:
            k, v = next((k, v) for k, v in enumerate(tail, cut + 1) if v < kexp)
            name = f"C(2k,k)^{s.central}/{s.base}^k" if s.central else s.label
            raise ArithmeticError(f"{name}: tail valuation {v} < {kexp} at p={p}, k={k}")
        return out if out is not None else _product(cols or [[1] * (cut + 1 - lo)], pv, pk)

    def moment(self, kexp: int, s: Sum, j: int) -> int:
        """sum_k k^j t_k mod p^kexp over the summand t of ``s``."""

        def build():
            t = self.summand(kexp, s)
            ks = range(s.lo, s.lo + len(t))
            for _ in range(j):
                t = map(mul, ks, t)
            return sum(t) % self.pk(kexp)

        return self._at(("moment", s.key, j), kexp, build)

    def weights(self, base: int, kexp: int) -> list[int]:
        """Residues of the shift family for ``base`` at every k < p.

        w(k) = C(a k, b k) C(c k, e k) / base^k, a summand of the term engine.
        """
        return self.summand(kexp, _FAMILY[base])

    def shift_column(self, d: int, kexp: int) -> list[int]:
        """Residues of C(2k, k+d) for d <= k < p mod p^kexp.

        The shift engine reads its seeds S(0), S(1) and its check S((p-1)/2)
        from these columns, which every family shares.  Each is a summand of
        the term engine, built when first read; the d = 0 column is C(2k,k).
        """
        return self.summand(kexp, _CENTRAL if d == 0 else Sum(1, 0, factors=_shifted(d), lo=d))

    def chain(self, base: int, parity: int, kexp: int) -> list[int]:
        """S_base(d) mod p^kexp for the d < p of one parity, entry d // 2 being S(d),
        from ``shift_chain``; the (p-1)/2 column is read only for its parity."""

        def build():  # the weights first: the table then holds what their kernel asked
            columns = {d: self.shift_column(d, kexp) for d in (parity, self.n) if d % 2 == parity}
            return shift_chain(self.p, base, self.weights(base, kexp), self.tables(kexp), columns,
                               parity)

        return self._at(("chain", base, parity), kexp, build)

    def shift_sum(self, base: int, d: int, kexp: int) -> int:
        """S_base(d) mod p^kexp for a row that reads the one shift d: from the
        chain of d's parity if one is cached at kexp or reduced from a higher
        exponent, else S(d) read from its column and checked by a direct sum
        (``shift_seed``), with no chain stepped."""

        def build():
            stepped = self._at(("chain", base, d % 2), kexp)
            if stepped is not None:
                return stepped[d // 2]
            column = self.shift_column(d, kexp)
            return shift_seed(self.p, base, self.weights(base, kexp), self.tables(kexp), column, d)

        return self._at(("shift", base, d), kexp, build)


def _reference_shift_sum(ctx: PrimeContext, base: int, d: int, kexp: int) -> int:
    """sum_{d<=k<p} w_base[k] * C(2k, k+d) mod p^kexp, summed term by term."""
    fam = _FAMILY[base]
    return ctx.moment(kexp, fam._replace(factors=fam.factors + _shifted(d), lo=d), 0)


class _TermwiseContext(PrimeContext):
    """``check``'s context: it sums every shifted sum term by term, with no shift engine."""

    shift_sum = _reference_shift_sum


# --- the summands whose factors read n = (p-1)/2, and the function members ----

# D_n = sum_k C(n+k,2k) C(2k,k) and S_n = sum_k C(n+k,2k) C_k at n = (p-1)/2:
# sums over k <= n of (n+k)! / ((n-k)! k! (k+s)!), s = 0 for D_n and 1 for S_n
_DELANNOY = Sum(1, 0, factors=((1, 0, -1), (1, 0, -1)), half=True, n_factors=((1, 1), (-1, -1)))
_SCHRODER = Sum(1, 0, factors=((1, 0, -1), (1, 1, -1)), half=True, n_factors=((1, 1), (-1, -1)))
# C1_2's columns: C(n+k,2k) = (n+k)! / ((2k)! (n-k)!) and C(2k,k)/(-16)^k
_C1_2 = (Sum(1, 0, factors=((2, 0, -1),), half=True, n_factors=((1, 1), (-1, -1))),
         Sum(-16, 1, half=True))
# C(n,k)^2 C(n+k,k) (-1)^k = n! (n+k)! / (k!^3 (n-k)!^2 (-1)^k) for k <= n
_AHL = Sum(-1, 0, factors=((1, 0, -3),), half=True, n_factors=((0, 1), (1, 1), (-1, -2)))
# CL3_2's b_i = C(2i,i)^2/base^i for i <= (p-1)/2, for each part: 8^i, (-16)^i
_CL3_2 = (Sum(8, 2, half=True), Sum(-16, 2, half=True))
# C4_1's two series: C(2k,k)^3 and C(2k,k)^2 C(4k,2k) = C(2k,k)^2 (4k)! / (2k)!^2
_C4_1 = (Sum(1, 3), Sum(1, 2, factors=((4, 0, 1), (2, 0, -2))))


def _cl3_2(ctx: PrimeContext, kexp: int, part: int) -> int:
    """sum_{i+j<p} b_i b_j (s(i+j) + 1), b_i = C(2i,i)^2/base^i.

    Part 1 has (base, s) = (8, 1), part 2 (-16, 2).  The pairs with i, j <= n =
    (p-1)/2 give M0^2 + 2s M0 M1, M_j = sum_{k<=n} k^j b_k.  For i > n, b_i =
    p^2 beta_i (Kummer) and j <= m = p-1-i < n: those ordered pairs add 2p^2
    sum_{i>n} beta_i ((si + 1) B0(m) + s B1(m)) = 2p^2 sum beta_i ((s(p-1) + 1)
    B0(m) - s sum_{t<m} B0(t)), B0 and B1 the prefix sums of b_j and j b_j,
    needed mod p^(kexp-2) and read mod p^(kexp-1), as the p^2 rows read them.
    A valuation of beta_i's power other than 2 raises ArithmeticError.
    """
    half, p, n, s = _CL3_2[part - 1], ctx.p, ctx.n, part
    m0, m1 = ctx.moment(kexp, half, 0), ctx.moment(kexp, half, 1)
    if kexp < 3:  # the pairs with i > n or j > n are 0 mod p^kexp
        return m0 * m0 + 2 * s * m0 * m1
    vals, beta = ctx.valuations(2, kexp - 1), ctx.power(2, half.base, kexp - 1, p)
    if vals[n + 1 :] != [2] * n:
        k = next(k for k in range(n + 1, p) if vals[k] != 2)
        raise ArithmeticError(f"C(2k,k)^2/{half.base}^k: valuation {vals[k]} != 2 "
                              f"at p={p}, k={k}")
    b0 = list(accumulate(ctx.summand(kexp - 1, half)[:n]))  # B0(m) for m = 0..n-1
    beta = beta[p - 1 : n : -1]  # beta_i for i = p-1-m
    upper = ((s * (p - 1) + 1) * sum(map(mul, beta, b0))
             - s * sum(map(mul, beta, accumulate(b0[:-1], initial=0))))
    return m0 * m0 + 2 * s * m0 * m1 + 2 * p * p * upper


def _series(ctx: PrimeContext, kexp: int, s: Sum, num: int, den: int) -> int:
    """sum_k t_k (num/den)^k mod p^kexp over the summand t of ``s``, by Horner's rule
    up to its cutoff; ``den`` is prime to p.  C4_1 evaluates two series at scaled
    arguments this way: their coefficients do not depend on x."""
    pk = ctx.pk(kexp)
    t, acc = num * mod_inverse(den % pk, pk) % pk, 0
    for c in reversed(ctx.summand(kexp, s)):
        acc = (acc * t + c) % pk
    return acc


# the summands that the registry's function members read
_MEMBER_SUMS = (*_CL3_2, *_C4_1, _AHL)


def _holds(cls: tuple[int, ...], p: int) -> bool:
    """Whether p is in the residue class ``cls`` = (m, r, ...): p % m is one of the r."""
    return p % cls[0] in cls[1:]


EVERY = (1, 0)  # the class of every prime; (1,) holds none


class _RowFields(NamedTuple):
    id: str
    modulus_exp: int | tuple[int, tuple[int, ...], int]
    description: str
    statement: Statement | dict[int, Statement]
    applies: tuple[int, ...] = EVERY
    param_name: str = ""
    conjectural: tuple[int, ...] = (1,)


class RowSpec(_RowFields):
    """Registry entry for one congruence family.

    ``modulus_exp`` is the exponent K of the modulus p^K, or (K, class, K'):
    K' on a residue class of primes, K elsewhere.  ``statement`` is a
    ``Statement`` or a map from each parameter value to its ``Statement``.
    ``applies`` is the residue class of primes at which the row holds,
    ``EVERY`` by default (p >= 5, as the engine and ``check`` require), and
    ``conjectural`` the class at which its statuses are experimental, none by
    default; a row conjectural at ``EVERY`` prime is experimental.  Every
    field but ``statement`` is data.  The derived properties are cached in ``__dict__``.
    """

    def exponent(self, p: int) -> int:
        k = self.modulus_exp
        return k if type(k) is int else k[2] if _holds(k[1], p) else k[0]

    def values(self, p: int) -> Sequence:
        """The parameter values at p: a part map's keys, a table row's left term's, else (None,)."""
        st = self.statement
        return tuple(st) if isinstance(st, dict) else st.lhs[0].values(p) if self.table else (None,)

    @cached_property
    def terms(self) -> tuple:
        """Every term of the statement."""
        st = self.statement
        parts = st.values() if isinstance(st, dict) else (st,)
        return tuple(t for s in parts for m in (*s.lhs, s.rhs)
                     for t in (m if type(m) is tuple else (m,)))

    @cached_property
    def table(self) -> bool:
        """One report per parameter value, read from the columns of one lhs term and the rhs;
        the values must be a ``range``, which the columns take as one slice."""
        st = self.statement
        return (self.param_name != "" and isinstance(st, Statement) and len(st.lhs) == 1
                and all(hasattr(t, "column") for t in (st.lhs[0], st.rhs)))


def _quarter_binomial(ctx: PrimeContext, kexp: int, _) -> int:
    """C((p-1)/2, (p-1)/4) mod p^kexp."""
    return ctx.tables(kexp).binomial(ctx.n, ctx.n // 2)


_REGISTRY: tuple[RowSpec, ...] = (
    RowSpec(
        "C1_1", 2,
        "sum of cubed central binomials vs the x^2+7y^2 form",
        Statement((Sum(1, 3),), Closed(x2=4, p=-2, d=7)),
        applies=(7, 1, 2, 3, 4, 5, 6),
        conjectural=(7, 1, 2, 4),
    ),
    RowSpec(
        "C1_2", 2,
        "C(n+k,2k) vs C(2k,k)/(-16)^k at n = (p-1)/2",
        Statement((Terms(_C1_2[0]),), Terms(_C1_2[1])),
        param_name="k",
    ),
    RowSpec(
        "C1_5", 2,
        "shifted squared-central sums over 64^k vanish at alternating shifts",
        Statement((Shift(64, odd=(4, 1)),), ZERO),
        param_name="d",
    ),
    RowSpec(
        "C1_6", 2,
        "shift-one squared-central sum over 64^k for p = 3 (mod 4)",
        Statement((Shift(64, 1),), lambda ctx, K, _: (2 * ctx.p + 2 - pow(2, ctx.p - 1, ctx.pk(K)))
                  * ctx.tables(K).binomial(ctx.n, (ctx.p + 1) // 4) ** 2),
        applies=(4, 3),
    ),
    RowSpec(
        "C1_7a", 2,
        "(k+1)-weighted squared-central sum over 8^k vs x",
        Statement((Sum(8, 2, (1, 1), half=True),), Closed(x=1, sign=2)),
        applies=(4, 1),
    ),
    RowSpec(
        "C1_7b", 2,
        "(2k+1)-weighted squared-central sum over (-16)^k vs x",
        Statement((Sum(-16, 2, (1, 2), half=True),), Closed(x=1, sign=2)),
        applies=(4, 1),
    ),
    RowSpec(
        "C1_8", 2,
        "central-times-Catalan sum over 8^k chain vs 2x - p/x",
        Statement((Sum(8, 2, factors=_CATALAN, half=True), Sum(8, 2, (0, -2))),
                  Closed(x=2, p_x=-1, sign=2)),
        applies=(4, 1),
    ),
    RowSpec(
        "C1_9", 2,
        "central-times-Catalan sum over (-16)^k chain vs 2(2x - p/x)",
        Statement((_SCHRODER, Sum(-16, 2, factors=_CATALAN, half=True),
                   Sum(-16, 2, (0, -8), half=True)), Closed(x=4, p_x=-2, sign=2)),
        applies=(4, 1),
    ),
    RowSpec(
        "C1_10", 2,
        "k^2-weighted squared-central sum over 8^k vs x - 3p/4x",
        Statement((Sum(8, 2, (0, 0, 1), half=True),),
                  Closed(x=1, p_x=Fraction(-3, 4), sign=2)),
        applies=(4, 1),
    ),
    RowSpec(
        "C1_11", 2,
        "k^2-weighted squared-central sum over (-16)^k vs -p/16x",
        Statement((Sum(-16, 2, (0, 0, 1), half=True),), Closed(p_x=Fraction(-1, 16), sign=2)),
        applies=(4, 1),
    ),
    RowSpec(
        "C1_12", 2,
        "squared-central shift-one sum over (-8)^k vs 2p - 2x^2",
        Statement((Sum(-8, 3, factors=_SHIFT1, lo=1),), Closed(x2=-2, p=2)),
        applies=(4, 1),
    ),
    RowSpec(
        "C1_13", 2,
        "central times squared shift-one sum over (-8)^k vs -2p",
        Statement((Sum(-8, 3, factors=_SHIFT1 * 2, lo=1),), Closed(p=-2)),
        applies=(4, 1),
    ),
    RowSpec(
        "CR1_1", (2, (4, 1), 3),
        "combined (k+1)/8^k and (2k+1)/(-16)^k squared-central sums",
        Statement(((Sum(8, 2, (1, 1)), Sum(-16, 2, (1, 2), half=True)),), Closed(x=2, sign=2)),
        conjectural=EVERY,
    ),
    RowSpec(
        "C1_14b", 2,
        "C(2k,k)^2 C(3k,k)/108^k sum vs weight-3 eta-product coefficient",
        Statement((Shift(108, 0),), Closed(x2=4, p=-2, d=3)),
    ),
    RowSpec(
        "C1_14c", 2,
        "C(2k,k)^2 C(4k,2k)/256^k sum vs weight-3 eta-product coefficient",
        Statement((Shift(256, 0),), Closed(x2=4, p=-2, d=2)),
    ),
    RowSpec(
        "C1_15", 2,
        "C(2k,k) C(3k,k) C(6k,3k)/1728^k sum vs eta-product coefficient",
        Statement((Shift(1728, 0),), Closed(x2=4, p=-2, sign=-3)),  # (p|3) = (-3|p)
    ),
    RowSpec(
        "C1_19", 2,
        "shifted 108-family sums vanish at alternating shifts",
        Statement((Shift(108, odd=(3, 1)),), ZERO),
        param_name="d",
    ),
    RowSpec(
        "C1_20", 2,
        "shifted 256-family sums vanish at alternating shifts",
        Statement((Shift(256, odd=(8, 1, 3)),), ZERO),
        param_name="d",
    ),
    RowSpec(
        "C1_21", 2,
        "shifted 1728-family sums vanish at alternating shifts",
        Statement((Shift(1728, odd=(4, 1)),), ZERO),
        param_name="d",
    ),
    RowSpec(
        "C1_22", 2,
        "256-family sum at shift 0 vs the x^2+2y^2 form for p = 3 (mod 8)",
        Statement((Shift(256, 0),), Closed(x2=4, p=-2, d=2)),
        applies=(8, 3),
    ),
    RowSpec(
        "C1_23", 2,
        "1728-family sum at shift 0 vs the x^2+y^2 form for p = 5 (mod 12)",
        Statement((Shift(1728, 0),), Closed(x2=-4, p=2)),
        applies=(12, 5),
    ),
    RowSpec(
        "C1_24", 2,
        "C(2k,k)^2 C(3k,k+1)/108^k sum vanishes for p = 1 (mod 3)",
        # C(3k,k+1) = (3k)! / ((k+1)! (2k-1)!), zero at k = 0
        Statement((Sum(108, 2, factors=((3, 0, 1), (1, 1, -1), (2, -1, -1)), lo=1),), ZERO),
        applies=(3, 1),
    ),
    RowSpec(
        "C1_25", 2,
        "256-family sum at shift 1 vanishes for p = 1,3 (mod 8)",
        Statement((Shift(256, 1),), ZERO),
        applies=(8, 1, 3),
    ),
    RowSpec(
        "C1_26", 2,
        "1728-family sum at shift 1 vanishes for p = 1 (mod 4)",
        Statement((Shift(1728, 1),), ZERO),
        applies=(4, 1),
    ),
    RowSpec(
        "CL3_2", 3,
        "double convolution sums of squared central binomials mod p^3",
        dict.fromkeys((1, 2), Statement((_cl3_2,), Closed(p=1, sign=-1))),
        param_name="part",
    ),
    RowSpec(
        "CL3_3", 3,
        "weighted half-range squared-central sums mod p^3",
        {
            1: Statement(((Sum(8, 2, (0, 2), half=True), Sum(8, 2, factors=_CATALAN, half=True)),),
                         Closed(p2=2, sign=2)),
            2: Statement(((Sum(-16, 2, (0, 8), half=True),
                           Sum(-16, 2, factors=_CATALAN, half=True)),), Closed(p2=2, sign=-1)),
            3: Statement((Sum(8, 2, (1, 4, 2), half=True),), Closed(p2=1, sign=2)),
            4: Statement((Sum(-16, 2, (1, 4, 8), half=True),), Closed(p2=1, sign=-1)),
        },
        param_name="part",
    ),
    RowSpec(
        "CGZ", 3,
        "(3k+1) C(2k,k)^3/(-8)^k sum vs p(-1|p) mod p^3",
        Statement((Sum(-8, 3, (1, 3)),), Closed(p=1, sign=-1)),
    ),
    RowSpec(
        "CGZ_P4", 4,
        "(3k+1) C(2k,k)^3/(-8)^k sum with Euler-number correction mod p^4",
        Statement((Sum(-8, 3, (1, 3)),), lambda ctx, K, _: ctx.p * ctx.legendre(-1)
                  + ctx.p**3 * euler_number_mod_p(ctx.p - 3, ctx.p)),
        conjectural=EVERY,
    ),
    RowSpec(
        "C3_2", 2,
        "C(n,(p-1)/4) vs (2^(p-1)+1)/2 (2x - p/2x) for p = 1 (mod 4)",
        Statement((_quarter_binomial,), lambda ctx, K, _: (pow(2, ctx.p - 1, ctx.pk(K)) + 1)
                  * Closed(x=1, p_x=Fraction(-1, 4))(ctx, K, _)),
        applies=(4, 1),
    ),
    RowSpec(
        "C3_3", 2,
        "squared-central sums over 8^k and (-16)^k chain vs 2x - p/2x",
        Statement((Sum(8, 2, half=True), Sum(-16, 2, half=True)),
                  Closed(x=2, p_x=Fraction(-1, 2), sign=2)),
        applies=(4, 1),
    ),
    RowSpec(
        "C3_4", 2,
        "central Delannoy number at (p-1)/2 vs 2x - p/2x",
        Statement((_DELANNOY,), Closed(x=2, p_x=Fraction(-1, 2), sign=2)),
        applies=(4, 1),
    ),
    RowSpec(
        "CR3_1", 1,
        "central Delannoy number at (p-1)/2 vanishes for p = 3 (mod 4)",
        Statement((_DELANNOY,), ZERO),
        applies=(4, 3),
    ),
    RowSpec(
        "C3_5", 2,
        "cubed central binomials over (-8)^k vs the x^2+y^2 form",
        Statement((Sum(-8, 3),), Closed(x2=4, p=-2)),
    ),
    RowSpec(
        "C4_1", 1,
        "cubic-sum vs 256-family transformation at scaled arguments",
        dict.fromkeys((1, 2, 3, -2), Statement(
            (lambda ctx, K, x: _series(ctx, K, _C4_1[0], -x, 64),), lambda ctx, K, x:
            ctx.legendre(x + 1) * _series(ctx, K, _C4_1[1], x, 64 * (x + 1) * (x + 1)))),
        param_name="x",
    ),
    RowSpec(
        "CG", 1,
        "C(n,(p-1)/4) vs 2x for p = x^2 + y^2, x = 1 (mod 4)",
        Statement((_quarter_binomial,), Closed(x=2)),
        applies=(4, 1),
    ),
    RowSpec(
        "CM", 1,
        "C(n,(p-1)/4) vs 12(-432)^m C(2m,m) for p = 12m + 5",
        Statement((_quarter_binomial,), lambda ctx, K, _: 12 * pow(-432, ctx.p // 12, ctx.pk(K))
                  * ctx.tables(K).binomial(ctx.p // 6, ctx.p // 12)),
        applies=(12, 5),
    ),
    RowSpec(
        "C_AHL", 1,
        "alternating Apery-style sum vs the x^2+2y^2 form",
        Statement((lambda ctx, K, _: ctx.legendre(-1) * _AHL(ctx, K, _),),
                  Closed(x2=4, p=-2, d=2)),
    ),
)

_ROW_INDEX = {row.id: i for i, row in enumerate(_REGISTRY)}


# every summand the engine reads, by its cache key: the shift families' weights,
# the registry's ``Sum`` terms, the summands of its ``Terms`` and those its
# function members read
_SUMMANDS = {s.key: s for s in (*_FAMILY.values(), *_MEMBER_SUMS, *(
    t.summand if isinstance(t, Terms) else t
    for row in _REGISTRY for t in row.terms if isinstance(t, (Sum, Terms))))}
# the (base, c) of each power C(2k,k)^c / base^k that two or more of them read:
# ``_kernel`` reads each as one ``power`` list and multiplies any other from the
# lists of C(2k,k) and base^-k in the summand's own pass
_READERS = Counter(key[:2] for key in _SUMMANDS if key[1])
_SHARED_POWERS = frozenset(pair for pair, n in _READERS.items() if n > 1)


def registry() -> tuple[RowSpec, ...]:
    """All congruence rows in report order."""
    return _REGISTRY


def all_ids() -> list[str]:
    return [row.id for row in _REGISTRY]


def default_ids() -> list[str]:
    """Ids checked by default: every row that is not conjectural at every prime."""
    return [row.id for row in _REGISTRY if row.conjectural != EVERY]


# "name=v" for v = 0, 1, ... per parameter name, grown as larger primes need more;
# the strings never change, so every prime's table-row reports share them (``_params``)
_PARAMS: dict[str, list[str]] = {}


def _params(name: str, values: Sequence) -> list[str]:
    """``name=v`` for each v ("" without a name); a range of ints >= 0 slices ``_PARAMS[name]``."""
    if not name or type(values) is not range or values.start < 0:
        return [f"{name}={v}" if name else "" for v in values]
    strs = _PARAMS.setdefault(name, [])
    strs.extend(f"{name}={v}" for v in range(len(strs), values.stop))
    return strs[values.start:values.stop:values.step]


def _status(row: RowSpec, p: int, ok: bool) -> str:
    if _holds(row.conjectural, p):
        return XPASS if ok else XFAIL
    return PASS if ok else FAIL


def _outcome(row: RowSpec, p: int, members, rhs) -> tuple[int, int, str]:
    """(lhs, rhs, status) of a report: on failure the chain's first differing pair."""
    seq = (*members, rhs)
    for a, b in zip(seq, seq[1:]):
        if a != b:
            return a, b, _status(row, p, False)
    return members[0], rhs, _status(row, p, True)


def _evaluate(row: RowSpec, ctx: PrimeContext, kexp: int, v) -> tuple[tuple[int, ...], int]:
    """The members of ``row``'s left side and its right side, mod p^kexp at parameter v."""
    st = row.statement
    if isinstance(st, dict):
        st = st[v]
    pkv = ctx.pk(kexp)
    members = tuple(
        (sum(t(ctx, kexp, v) for t in m) if type(m) is tuple else m(ctx, kexp, v)) % pkv
        for m in st.lhs
    )
    return members, st.rhs(ctx, kexp, v) % pkv


def _located(exc: Exception, row_id: str, p: int) -> Exception:
    """``exc`` again, as a new exception of its class naming the row and prime."""
    where = f"row={row_id}, p={p}"
    try:
        return type(exc)(f"{exc} ({where})")
    except TypeError:  # a class whose constructor wants other arguments
        return RuntimeError(f"{type(exc).__name__}: {exc} ({where})")


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
    ``p``, ``param`` and ``mod_exp`` must be integers: a bool or a float raises
    TypeError.  A p that is not a prime >= 5 raises ValueError (from ``PrimeContext``).
    An exception raised while the row is evaluated names the row and prime.
    """
    p = _integer("p", p)
    param = None if param is None else _integer("param", param)
    mod_exp = None if mod_exp is None else _integer("mod_exp", mod_exp)
    if congruence_id not in _ROW_INDEX:
        raise ValueError(f"unknown congruence id {congruence_id!r}")
    row = _REGISTRY[_ROW_INDEX[congruence_id]]
    ctx = _TermwiseContext(p)
    kexp = row.exponent(p) if mod_exp is None else mod_exp
    if kexp < 1:
        raise ValueError("modulus exponent must be >= 1")
    if not row.param_name:
        if param is not None:
            raise ValueError(f"{congruence_id} takes no parameter")
    elif param is None:
        raise ValueError(f"{congruence_id} needs parameter {row.param_name!r}")
    head = (row.id, p, _params(row.param_name, (param,))[0], p**kexp)
    if not _holds(row.applies, p) or param not in row.values(p):
        return CongruenceReport(*head, None, None, SKIPPED)
    try:
        members, rhs = _evaluate(row, ctx, kexp, param)
    except Exception as exc:
        raise _located(exc, row.id, p) from exc
    return CongruenceReport(*head, *_outcome(row, p, members, rhs))


def _row_block(ctx: PrimeContext, row: RowSpec, kexp: int, timings: bool) -> tuple:
    """The column block of ``row`` at ``ctx.p`` mod p^kexp, in parameter order."""
    p, pkv = ctx.p, ctx.pk(kexp)
    if not _holds(row.applies, p):
        return row.id, p, [""], pkv, None, None, SKIPPED, 0
    values = row.values(p)
    params = _params(row.param_name, values)
    if row.table:  # its columns as they come
        (term,), rhs = row.statement
        lhs, rhs = term.column(ctx, kexp, values), rhs.column(ctx, kexp, values)
        if not len(lhs) == len(rhs) == len(values):  # raise rather than drop or invent reports
            raise ValueError(f"a column is shorter or longer than the {len(values)} values")
        ok, bad = _status(row, p, True), _status(row, p, False)
        status = ok if lhs == rhs else list(map((bad, ok).__getitem__, map(eq, lhs, rhs)))
        return row.id, p, params, pkv, lhs, rhs, status, 0
    outcomes, micros = [], []
    for v in values:
        start = timings and time.perf_counter_ns()
        members, rhs = _evaluate(row, ctx, kexp, v)
        if timings:
            micros.append((time.perf_counter_ns() - start) // 1000)
        outcomes.append(_outcome(row, p, members, rhs))
    lhs, rhs, status = map(list, zip(*outcomes))
    return row.id, p, params, pkv, lhs, rhs, status, micros if timings else 0


def block_rows(block: tuple) -> Iterator[tuple]:
    """The reports of a column block (see the module docstring) as plain tuples."""
    n = len(block[2])
    return zip(*[col if type(col) is list else repeat(col, n) for col in block])


def _reports(blocks: list[tuple]) -> list[CongruenceReport]:
    """The reports of a prime's column blocks."""
    rows = chain.from_iterable(map(block_rows, blocks))
    return list(map(tuple.__new__, repeat(CongruenceReport), rows))


def _suite_for_prime(
    p: int,
    ids: tuple[str, ...],
    mod_exp: dict[str, int],
    timings: bool,
    finish: Callable[[list[tuple]], object] | None = None,
) -> object:
    """The column blocks of the rows ``ids`` at ``p``, in registry order, or ``finish(blocks)``.

    The rows are evaluated from the highest exponent down, so each lower
    exponent reads the prime's tables, powers, summands and shift chains
    reduced from a higher one: a lower exponent's factorial table takes the
    entries of the table above it, and each list of each exponent's table
    grows to the reach its own readers ask for (``PrimeContext.tables``).  Within one
    exponent the table rows run first, then the others, each in registry order, so every chain
    stepped at an exponent is cached before a row of that exponent reads one
    fixed shift (``PrimeContext.shift_sum``).  An exception raised while a row
    is evaluated is raised again as the same class with ``row=<id>, p=<p>``
    in its message, chained from the original; when two rows would raise, the
    one that runs first is reported: the one with the higher exponent, and
    within one exponent a table row before any other.

    The cyclic garbage collector is paused for the evaluation and ``finish``
    and left as the caller had it on return or raise: the evaluation makes no
    reference cycles, so its collections would find nothing but walk its young
    lists and any reports (a tuple subclass, never untracked).  The prime's
    context is dropped first, to be freed by reference counting without a
    walk.  No caller code runs in the pause.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        ctx = PrimeContext(p)
        rows = [_REGISTRY[_ROW_INDEX[i]] for i in ids]
        kexps = [mod_exp.get(row.id, row.exponent(p)) for row in rows]
        blocks: list = [None] * len(rows)
        for i in sorted(range(len(rows)), key=lambda i: (-kexps[i], not rows[i].table)):
            try:
                blocks[i] = _row_block(ctx, rows[i], kexps[i], timings)
            except Exception as exc:
                raise _located(exc, rows[i].id, p) from exc
        return blocks if finish is None else finish(blocks)
    finally:
        ctx = None  # freed by reference counting, not walked by the collector
        if collecting:
            gc.enable()


def _chunk_worker(ps, ids, mod_exp, timings, encode) -> tuple[list, Exception | None, str]:
    """``encode`` of each prime's column blocks (with None the blocks, a few lists to pickle)
    up to a defect; then the exception that stopped them and its traceback, or None, ""."""
    done = []
    for p in ps:
        try:
            blocks = _suite_for_prime(p, ids, mod_exp, timings)
            done.append(blocks if encode is None else encode(blocks))
        except Exception as exc:
            from traceback import format_exc

            return done, exc, format_exc()
    return done, None, ""


def _arguments(primes, ids, jobs, mod_exp) -> tuple[list[int], tuple[str, ...], dict[str, int]]:
    """The primes, row ids in registry order and exponent overrides of a suite run,
    checked; ValueError for an unknown id, a jobs count below 1 or an exponent below 1,
    TypeError for a prime, exponent or jobs count that is a bool or no integer."""
    id_list = all_ids() if ids is None else list(dict.fromkeys(ids))
    over = {i: _integer(f"mod_exp[{i!r}]", k) for i, k in (mod_exp or {}).items()}
    for i in [*id_list, *over]:
        if i not in _ROW_INDEX:
            raise ValueError(f"unknown congruence id {i!r}")
    if _integer("jobs", jobs) < 1:
        raise ValueError("jobs must be >= 1")
    for i, k in over.items():
        if k < 1:
            raise ValueError(f"modulus exponent for {i} must be >= 1")
    id_list.sort(key=_ROW_INDEX.__getitem__)
    ps = sorted({p for p in map(_integer, repeat("a prime of primes"), primes)
                 if p >= 5 and is_prime(p)})
    return ps, tuple(id_list), over


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

    The arguments are checked here, when it is called; the iterator it
    returns evaluates one prime at a time as it is consumed (with ``jobs``,
    each prime's reports as they arrive), so no run holds every report.  With
    ``jobs`` it is a generator: closing it cancels the chunks not yet started.
    """
    ps, ids, over = _arguments(primes, ids, jobs, mod_exp)
    if jobs == 1 or len(ps) <= 1:  # each prime's reports are built in its collector pause
        return chain.from_iterable(_suite_for_prime(p, ids, over, timings, _reports) for p in ps)
    # closed, it drops the stream, whose finaliser closes the pool
    return (r for blocks in _stream(ps, ids, over, jobs, timings, None) for r in _reports(blocks))


def iter_blocks(
    primes: Iterable[int],
    ids: Iterable[str] | None = None,
    *,
    encode: Callable[[list[tuple]], object],
    jobs: int = 1,
    mod_exp: dict[str, int] | None = None,
    timings: bool = False,
) -> Iterator:
    """``encode(blocks)`` of each prime's column blocks, one per row in registry
    order (see the module docstring), one prime at a time in order.

    No report is built.  The arguments are those of ``iter_suite``, checked
    at the call.  With ``jobs`` > 1, ``encode`` runs in the worker process
    that made the blocks and only its result is sent back, so it must pickle:
    a module-level function, or a ``functools.partial`` of one.  The workers
    take the primes in chunks of bounded work, a few chunks ahead of the
    consumer (``_stream``), so memory does not grow with the range; a defect
    at a prime is raised after the results of every prime before it.
    """
    ps, ids, over = _arguments(primes, ids, jobs, mod_exp)
    return _stream(ps, ids, over, jobs, timings, encode)


def _stream(ps, ids, over, jobs, timings, encode) -> Iterator:
    """``encode(blocks)`` of each prime in order; with ``jobs`` > 1 made in worker
    processes, where ``encode`` None sends the bare blocks.  A chunk is a run of consecutive
    primes (at least one) summing to at most twice the largest prime: a prime's work
    and output grow as p, so a chunk's output is bounded, and small primes batch.  At
    most 2 * workers chunks are submitted and not yet taken, so a slow consumer holds
    the workers back.  A defect at a prime yields the primes before it, then raises."""
    if jobs == 1 or len(ps) <= 1:
        for p in ps:
            yield encode(_suite_for_prime(p, ids, over, timings))
        return
    from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays for the import

    chunks = [[]]
    for p in ps:
        if sum(chunks[-1]) + p > 2 * ps[-1]:
            chunks.append([])
        chunks[-1].append(p)
    workers = min(jobs, len(chunks))
    # the fork start method starts every worker up front: no more than there is work for
    with ProcessPoolExecutor(max_workers=workers) as pool:
        submits = (pool.submit(_chunk_worker, c, ids, over, timings, encode) for c in chunks)
        window = deque(islice(submits, 2 * workers))
        try:
            while window:
                done, exc, trace = window.popleft().result()
                window.extend(islice(submits, 1))
                yield from done
                if exc is not None:  # chained to the worker's traceback, as the pool does
                    raise exc from RuntimeError(f"in a pool worker:\n{trace}")
        finally:
            for future in window:  # a stream closed early cancels the chunks not started
                future.cancel()


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
