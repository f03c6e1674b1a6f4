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
  summands and moments reduced from a higher one.  The prime builds one
  factorial table, at its top exponent; each lower exponent reduces it once,
  and each list of every exponent's table (valuations, units, inverses), like
  each base^-k list, grows to the reach its own readers ask for.
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
``experimental-fail`` for conjectural ones, and ``skipped`` when a row's side
condition excludes the prime.  Only a plain ``fail`` should ever make a
verification run unsuccessful.
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

    ``d`` None reads the row's parameter.  A table row reads its shifts as a
    slice of their chain (``PrimeContext.chain``), and any other row reads its
    shift through ``PrimeContext.shift_sum``; ``check``'s context sums them
    term by term.
    """

    base: int
    d: int | None = None

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

    def __call__(self, ctx: PrimeContext, kexp: int, v) -> int:
        return self.column(ctx, kexp, range(v, v + 1))[0]

    def column(self, ctx: PrimeContext, kexp: int, values: range) -> list[int]:
        s = self.summand
        col = ctx.summand(kexp, s)[values.start - s.lo : values.stop - s.lo : values.step]
        if values.start < s.lo or len(col) != len(values):
            raise ValueError(f"{s.label} has no term at some k of {values} mod p^{kexp}")
        return col


QUARTER = "(-1)^((p-1)/4)"  # a Closed sign, for p = 1 (mod 4)


class Closed(NamedTuple):
    """sign * (x2 x^2 + x x + p_x p/x + p p + p2 p^2), x from p = x^2 + d y^2.

    x is normalized as ``represent`` gives it (x = 1 (mod 4) for d = 1), and
    a form with an x term is 0 when p has no such representation: 4x^2 - 2p
    is the eta-product coefficient shape.  ``sign`` is ``QUARTER`` or the a
    of the Legendre symbol (a|p).  ``p_x`` may be a Fraction whose
    denominator is prime to p.
    """

    x2: int = 0
    x: int = 0
    p_x: int | Fraction = 0
    p: int = 0
    p2: int = 0
    d: int = 1
    sign: int | str = 1

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
        if self.sign == QUARTER:
            value *= 1 if p % 8 == 1 else -1
        elif self.sign != 1:
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
    compute terms per k outside it.  C(2k,k) is read once (``central``).
    Summands, their moments, shift chains, shifted sums and quadratic
    representations are cached on first use, so checking many rows at one
    prime costs one kernel call per distinct summand and one pass per moment.

    A value mod p^K is the value mod p^J (J > K) reduced mod p^K, so a miss
    at K is reduced from the lowest higher exponent cached, and built only if
    there is none.  The suite evaluates rows from the top exponent down, so a
    prime builds its factorial table, C(2k,k), powers and summands once each.
    Each list of an exponent's table then grows to the reach its own readers
    ask for (``tables``): valuations over a summand's whole range, units and
    inverses only to its cutoff, and the shift engine's inverses only where a
    chain steps; base^-k grows to its readers' cutoffs (``base_powers``).  A
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
        cut to its cutoff at kexp, and moments as numbers; valuation lists are
        shared, so their checks ran on them.
        """
        full = (*key, kexp)
        value = self._cache.get(full)
        if value is None:
            value, pkv = self._higher(key, kexp), self.pk(kexp)
            if isinstance(value, int):
                value %= pkv
            elif isinstance(value, tuple):  # (valuations, units)
                value = (value[0], [u % pkv for u in value[1]])
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
        table once, on first use: each list reduced from the lowest higher
        exponent's as far as that reaches and the caller asks, else from 0!; each
        then grows in place to its own readers' furthest reach."""
        unit = limit if unit is None else unit
        reach = (limit, unit, unit if inv is None else inv)
        t = self._cache.get(("tables", kexp))
        if t is None:
            higher = self._higher(("tables",), kexp)
            t = (higher.reduced(kexp, *map(min, reach, higher.reaches)) if higher
                 else FactorialTables(self.p, kexp, 0))
            self._cache[("tables", kexp)] = t
            self._top = max(self._top, kexp)
        t.grow(*reach)
        return t

    def legendre(self, a: int) -> int:
        return self._cached(("leg", a), lambda: _euler_criterion(a, self.p))

    def rep(self, d: int):
        return self._cached(("rep", d), lambda: represent(self.p, d))

    # --- the term engine --------------------------------------------------

    def central(self, kexp: int) -> tuple[list[int], list[int]]:
        """Valuations and units mod p^kexp of C(2k,k) for k < p."""

        def build():
            p = self.p
            t = self.tables(kexp, 2 * p - 2, 2 * p - 2, p - 1)
            pk, inv = t.pk, t.inv_unit
            return (
                [a - 2 * b for a, b in zip(t.val[: 2 * p : 2], t.val[:p])],
                [u * i * i % pk for u, i in zip(t.unit[: 2 * p : 2], inv[:p])],
            )

        return self._at(("central",), kexp, build)

    def central_power(self, central: int, base: int, kexp: int) -> tuple[list[int], list[int]]:
        """Valuations and units mod p^kexp of C(2k,k)^central / base^k for k < p, central > 0.

        Cached: the summands that share a power and a base (``_SHARED_POWERS``)
        share one pass, which reads base^-k for every k < p (``base_powers``).
        """

        def build():
            pk, (cval, cunit) = self.pk(kexp), self.central(kexp)
            scale = [self.base_powers(base, kexp, self.p)] if base != 1 else []
            return [central * v for v in cval], _product([cunit] * central + scale, None, pk)

        return self._at(("cpow", central, base), kexp, build)

    def base_powers(self, base: int, kexp: int, stop: int) -> list[int]:
        """base^-k mod p^kexp for k < stop at least (negative and residue bases are
        fine): one list per base and exponent, grown in place to its readers'
        furthest stop."""
        pk, powers = self.pk(kexp), self._cached(("powers", base, kexp), lambda: [1])
        if len(powers) < stop:
            binv, s = mod_inverse(base % pk, pk), powers[-1]
            powers += [(s := s * binv % pk) for _ in range(stop - len(powers))]
        return powers

    def summand(self, kexp: int, s: Sum) -> list[int]:
        """Residues mod p^kexp of the summand of ``s`` (its weight left out), one per k."""
        return self._at(("summand", s.key), kexp, lambda: self._kernel(kexp, s), s)

    def _kernel(self, kexp: int, s: Sum) -> list[int]:
        """The residues of the summand of ``s`` for k = lo..``Sum.cutoff``, valuations first.

        Its factors are columns: C(2k,k) c times and base^-k (or their power from
        ``central_power``, where summands share it) and each merged (a k + b)!^e
        |e| times, valuations over the whole range and units up to the cutoff.
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

        def span(col: list[int], stop: int) -> list[int]:  # cached lists hold every k < p
            return col if lo == 0 and stop == p - 1 else col[lo : stop + 1]

        shared = s.central and (s.base, s.central) in _SHARED_POWERS
        if s.central:
            val, unit = self.central_power(s.central, s.base, kexp) if shared else self.central(kexp)
            factor(span(val, hi), span(unit, cut), add, 1 if shared else s.central)
        if s.base != 1 and not shared:
            cols.append(span(self.base_powers(s.base, kexp, cut + 1), cut))
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
        s = _CENTRAL if d == 0 else Sum(1, 0, factors=_shifted(d), lo=d)
        return self._at(("column", d), kexp, lambda: self._kernel(kexp, s), s)

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
# CL3_2's b_i = C(2i,i)^2/base^i for each part: 8^i, (-16)^i
_CL3_2 = (Sum(8, 2), Sum(-16, 2))
# C4_1's two series: C(2k,k)^3 and C(2k,k)^2 C(4k,2k) = C(2k,k)^2 (4k)! / (2k)!^2
_C4_1 = (Sum(1, 3), Sum(1, 2, factors=((4, 0, 1), (2, 0, -2))))


def _cl3_2(ctx: PrimeContext, kexp: int, part: int) -> int:
    """sum_{i+j<p} b_i b_j (s(i+j) + 1), b_i = C(2i,i)^2/base^i.

    Part 1 has (base, s) = (8, 1), part 2 (-16, 2).  By the (i, j) symmetry
    the double sum is sum_i b_i (2si + 1) B(p-1-i), B the prefix sums of b,
    which stay at their last value past the cutoff where b ends.
    """
    b = ctx.summand(kexp, _CL3_2[part - 1])
    prefix = list(accumulate(b))
    prefix += prefix[-1:] * (ctx.p - len(prefix))
    weighted = map(mul, b, range(1, 2 * part * ctx.p, 2 * part))
    return sum(map(mul, weighted, reversed(prefix)))


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


def _qualifying_shifts(parity_of: Callable[[int], int]) -> Callable[[int], range]:
    """The shifts d < p with d = parity_of(p) (mod 2)."""
    return lambda p: range(parity_of(p) % 2, p, 2)


class _RowFields(NamedTuple):
    id: str
    modulus_exp: int | Callable[[int], int]
    description: str
    applies: Callable[[int], bool]
    statement: Statement | dict[int, Statement]
    param_name: str = ""
    param_values: Callable[[int], Sequence[int]] | None = None
    conjectural: Callable[[int, int | None], bool] = lambda p, v: False
    experimental: bool = False


class RowSpec(_RowFields):
    """Registry entry for one congruence family.

    ``modulus_exp`` is the exponent K of the modulus p^K, either a constant
    or a function of p for rows whose strength depends on the prime class.
    ``statement`` is a ``Statement`` or a map from each parameter value to its
    ``Statement``.
    The fields are a named tuple's; the derived properties are cached in ``__dict__``.
    """

    def exponent(self, p: int) -> int:
        return self.modulus_exp(p) if callable(self.modulus_exp) else self.modulus_exp

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
        return (self.param_values is not None and isinstance(st, Statement) and len(st.lhs) == 1
                and all(hasattr(t, "column") for t in (st.lhs[0], st.rhs)))


def _quarter_binomial(ctx: PrimeContext, kexp: int, _) -> int:
    """C((p-1)/2, (p-1)/4) mod p^kexp."""
    return ctx.tables(kexp).binomial(ctx.n, ctx.n // 2)


_REGISTRY: tuple[RowSpec, ...] = (
    RowSpec(
        "C1_1", 2,
        "sum of cubed central binomials vs the x^2+7y^2 form",
        lambda p: p >= 5 and p != 7,
        Statement((Sum(1, 3),), Closed(x2=4, p=-2, d=7)),
        conjectural=lambda p, v: p % 7 in (1, 2, 4),
    ),
    RowSpec(
        "C1_2", 2,
        "C(n+k,2k) vs C(2k,k)/(-16)^k at n = (p-1)/2",
        lambda p: p >= 5,
        Statement((Terms(_C1_2[0]),), Terms(_C1_2[1])),
        param_name="k",
        param_values=lambda p: range((p - 1) // 2 + 1),
    ),
    RowSpec(
        "C1_5", 2,
        "shifted squared-central sums over 64^k vanish at alternating shifts",
        lambda p: p >= 5,
        Statement((Shift(64),), ZERO),
        param_name="d",
        param_values=_qualifying_shifts(lambda p: (p + 1) // 2),
    ),
    RowSpec(
        "C1_6", 2,
        "shift-one squared-central sum over 64^k for p = 3 (mod 4)",
        lambda p: p % 4 == 3,
        Statement((Shift(64, 1),), lambda ctx, K, _: (2 * ctx.p + 2 - pow(2, ctx.p - 1, ctx.pk(K)))
                  * ctx.tables(K).binomial(ctx.n, (ctx.p + 1) // 4) ** 2),
    ),
    RowSpec(
        "C1_7a", 2,
        "(k+1)-weighted squared-central sum over 8^k vs x",
        lambda p: p % 4 == 1,
        Statement((Sum(8, 2, (1, 1), half=True),), Closed(x=1, sign=QUARTER)),
    ),
    RowSpec(
        "C1_7b", 2,
        "(2k+1)-weighted squared-central sum over (-16)^k vs x",
        lambda p: p % 4 == 1,
        Statement((Sum(-16, 2, (1, 2), half=True),), Closed(x=1, sign=QUARTER)),
    ),
    RowSpec(
        "C1_8", 2,
        "central-times-Catalan sum over 8^k chain vs 2x - p/x",
        lambda p: p % 4 == 1,
        Statement((Sum(8, 2, factors=_CATALAN, half=True), Sum(8, 2, (0, -2))),
                  Closed(x=2, p_x=-1, sign=QUARTER)),
    ),
    RowSpec(
        "C1_9", 2,
        "central-times-Catalan sum over (-16)^k chain vs 2(2x - p/x)",
        lambda p: p % 4 == 1,
        Statement((_SCHRODER, Sum(-16, 2, factors=_CATALAN, half=True),
                   Sum(-16, 2, (0, -8), half=True)), Closed(x=4, p_x=-2, sign=QUARTER)),
    ),
    RowSpec(
        "C1_10", 2,
        "k^2-weighted squared-central sum over 8^k vs x - 3p/4x",
        lambda p: p % 4 == 1,
        Statement((Sum(8, 2, (0, 0, 1), half=True),),
                  Closed(x=1, p_x=Fraction(-3, 4), sign=QUARTER)),
    ),
    RowSpec(
        "C1_11", 2,
        "k^2-weighted squared-central sum over (-16)^k vs -p/16x",
        lambda p: p % 4 == 1,
        Statement((Sum(-16, 2, (0, 0, 1), half=True),), Closed(p_x=Fraction(-1, 16), sign=QUARTER)),
    ),
    RowSpec(
        "C1_12", 2,
        "squared-central shift-one sum over (-8)^k vs 2p - 2x^2",
        lambda p: p % 4 == 1,
        Statement((Sum(-8, 3, factors=_SHIFT1, lo=1),), Closed(x2=-2, p=2)),
    ),
    RowSpec(
        "C1_13", 2,
        "central times squared shift-one sum over (-8)^k vs -2p",
        lambda p: p % 4 == 1,
        Statement((Sum(-8, 3, factors=_SHIFT1 * 2, lo=1),), Closed(p=-2)),
    ),
    RowSpec(
        "CR1_1", lambda p: 3 if p % 4 == 1 else 2,
        "combined (k+1)/8^k and (2k+1)/(-16)^k squared-central sums",
        lambda p: p >= 5,
        Statement(((Sum(8, 2, (1, 1)), Sum(-16, 2, (1, 2), half=True)),), Closed(x=2, sign=2)),
        conjectural=lambda p, v: True,
        experimental=True,
    ),
    RowSpec(
        "C1_14b", 2,
        "C(2k,k)^2 C(3k,k)/108^k sum vs weight-3 eta-product coefficient",
        lambda p: p >= 5,
        Statement((Shift(108, 0),), Closed(x2=4, p=-2, d=3)),
    ),
    RowSpec(
        "C1_14c", 2,
        "C(2k,k)^2 C(4k,2k)/256^k sum vs weight-3 eta-product coefficient",
        lambda p: p >= 5,
        Statement((Shift(256, 0),), Closed(x2=4, p=-2, d=2)),
    ),
    RowSpec(
        "C1_15", 2,
        "C(2k,k) C(3k,k) C(6k,3k)/1728^k sum vs eta-product coefficient",
        lambda p: p >= 5,
        Statement((Shift(1728, 0),), Closed(x2=4, p=-2, sign=-3)),  # (p|3) = (-3|p)
    ),
    RowSpec(
        "C1_19", 2,
        "shifted 108-family sums vanish at alternating shifts",
        lambda p: p >= 5,
        Statement((Shift(108),), ZERO),
        param_name="d",
        param_values=_qualifying_shifts(lambda p: p % 3 == 1),
    ),
    RowSpec(
        "C1_20", 2,
        "shifted 256-family sums vanish at alternating shifts",
        lambda p: p >= 5,
        Statement((Shift(256),), ZERO),
        param_name="d",
        param_values=_qualifying_shifts(lambda p: p % 8 in (1, 3)),
    ),
    RowSpec(
        "C1_21", 2,
        "shifted 1728-family sums vanish at alternating shifts",
        lambda p: p >= 5,
        Statement((Shift(1728),), ZERO),
        param_name="d",
        param_values=_qualifying_shifts(lambda p: p % 4 == 1),
    ),
    RowSpec(
        "C1_22", 2,
        "256-family sum at shift 0 vs the x^2+2y^2 form for p = 3 (mod 8)",
        lambda p: p % 8 == 3,
        Statement((Shift(256, 0),), Closed(x2=4, p=-2, d=2)),
    ),
    RowSpec(
        "C1_23", 2,
        "1728-family sum at shift 0 vs the x^2+y^2 form for p = 5 (mod 12)",
        lambda p: p % 12 == 5,
        Statement((Shift(1728, 0),), Closed(x2=-4, p=2)),
    ),
    RowSpec(
        "C1_24", 2,
        "C(2k,k)^2 C(3k,k+1)/108^k sum vanishes for p = 1 (mod 3)",
        lambda p: p % 3 == 1,
        # C(3k,k+1) = (3k)! / ((k+1)! (2k-1)!), zero at k = 0
        Statement((Sum(108, 2, factors=((3, 0, 1), (1, 1, -1), (2, -1, -1)), lo=1),), ZERO),
    ),
    RowSpec(
        "C1_25", 2,
        "256-family sum at shift 1 vanishes for p = 1,3 (mod 8)",
        lambda p: p % 8 in (1, 3),
        Statement((Shift(256, 1),), ZERO),
    ),
    RowSpec(
        "C1_26", 2,
        "1728-family sum at shift 1 vanishes for p = 1 (mod 4)",
        lambda p: p % 4 == 1,
        Statement((Shift(1728, 1),), ZERO),
    ),
    RowSpec(
        "CL3_2", 3,
        "double convolution sums of squared central binomials mod p^3",
        lambda p: p >= 5,
        Statement((_cl3_2,), Closed(p=1, sign=-1)),
        param_name="part",
        param_values=lambda p: (1, 2),
    ),
    RowSpec(
        "CL3_3", 3,
        "weighted half-range squared-central sums mod p^3",
        lambda p: p >= 5,
        {
            1: Statement(((Sum(8, 2, (0, 2), half=True), Sum(8, 2, factors=_CATALAN, half=True)),),
                         Closed(p2=2, sign=2)),
            2: Statement(((Sum(-16, 2, (0, 8), half=True),
                           Sum(-16, 2, factors=_CATALAN, half=True)),), Closed(p2=2, sign=-1)),
            3: Statement((Sum(8, 2, (1, 4, 2), half=True),), Closed(p2=1, sign=2)),
            4: Statement((Sum(-16, 2, (1, 4, 8), half=True),), Closed(p2=1, sign=-1)),
        },
        param_name="part",
        param_values=lambda p: (1, 2, 3, 4),
    ),
    RowSpec(
        "CGZ", 3,
        "(3k+1) C(2k,k)^3/(-8)^k sum vs p(-1|p) mod p^3",
        lambda p: p >= 5,
        Statement((Sum(-8, 3, (1, 3)),), Closed(p=1, sign=-1)),
    ),
    RowSpec(
        "CGZ_P4", 4,
        "(3k+1) C(2k,k)^3/(-8)^k sum with Euler-number correction mod p^4",
        lambda p: p >= 5,
        Statement((Sum(-8, 3, (1, 3)),), lambda ctx, K, _: ctx.p * ctx.legendre(-1)
                  + ctx.p**3 * euler_number_mod_p(ctx.p - 3, ctx.p)),
        conjectural=lambda p, v: True,
        experimental=True,
    ),
    RowSpec(
        "C3_2", 2,
        "C(n,(p-1)/4) vs (2^(p-1)+1)/2 (2x - p/2x) for p = 1 (mod 4)",
        lambda p: p % 4 == 1,
        Statement((_quarter_binomial,), lambda ctx, K, _: (pow(2, ctx.p - 1, ctx.pk(K)) + 1)
                  * Closed(x=1, p_x=Fraction(-1, 4))(ctx, K, _)),
    ),
    RowSpec(
        "C3_3", 2,
        "squared-central sums over 8^k and (-16)^k chain vs 2x - p/2x",
        lambda p: p % 4 == 1,
        Statement((Sum(8, 2, half=True), Sum(-16, 2, half=True)),
                  Closed(x=2, p_x=Fraction(-1, 2), sign=QUARTER)),
    ),
    RowSpec(
        "C3_4", 2,
        "central Delannoy number at (p-1)/2 vs 2x - p/2x",
        lambda p: p % 4 == 1,
        Statement((_DELANNOY,), Closed(x=2, p_x=Fraction(-1, 2), sign=QUARTER)),
    ),
    RowSpec(
        "CR3_1", 1,
        "central Delannoy number at (p-1)/2 vanishes for p = 3 (mod 4)",
        lambda p: p % 4 == 3,
        Statement((_DELANNOY,), ZERO),
    ),
    RowSpec(
        "C3_5", 2,
        "cubed central binomials over (-8)^k vs the x^2+y^2 form",
        lambda p: p >= 5,
        Statement((Sum(-8, 3),), Closed(x2=4, p=-2)),
    ),
    RowSpec(
        "C4_1", 1,
        "cubic-sum vs 256-family transformation at scaled arguments",
        lambda p: p >= 5,
        Statement((lambda ctx, K, x: _series(ctx, K, _C4_1[0], -x, 64),), lambda ctx, K, x:
                  ctx.legendre(x + 1) * _series(ctx, K, _C4_1[1], x, 64 * (x + 1) * (x + 1))),
        param_name="x",
        param_values=lambda p: (1, 2, 3, -2),
    ),
    RowSpec(
        "CG", 1,
        "C(n,(p-1)/4) vs 2x for p = x^2 + y^2, x = 1 (mod 4)",
        lambda p: p % 4 == 1,
        Statement((_quarter_binomial,), Closed(x=2)),
    ),
    RowSpec(
        "CM", 1,
        "C(n,(p-1)/4) vs 12(-432)^m C(2m,m) for p = 12m + 5",
        lambda p: p % 12 == 5,
        Statement((_quarter_binomial,), lambda ctx, K, _: 12 * pow(-432, ctx.p // 12, ctx.pk(K))
                  * ctx.tables(K).binomial(ctx.p // 6, ctx.p // 12)),
    ),
    RowSpec(
        "C_AHL", 1,
        "alternating Apery-style sum vs the x^2+2y^2 form",
        lambda p: p >= 5,
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
# ``_kernel`` reads these from ``central_power``'s cache and multiplies any other
# into the summand's own pass
_READERS = Counter(key[:2] for key in _SUMMANDS if key[1])
_SHARED_POWERS = frozenset(pair for pair, n in _READERS.items() if n > 1)


def _check_table_rows() -> None:
    """``_row_block`` gives a table row's statuses pass or fail, so none may be conjectural."""
    for row in _REGISTRY:
        if row.table and row.conjectural is not RowSpec._field_defaults["conjectural"]:
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


# "name=v" for v = 0, 1, ... per parameter name, grown as larger primes need more;
# the strings never change, so every prime's table-row reports share them
_PARAMS: dict[str, list[str]] = {}


def _table_params(name: str, values: range) -> list[str]:
    """``name=v`` for each v of ``values``, a range of integers >= 0 (a table row's
    shifts or indices), as one slice of ``_PARAMS[name]``."""
    strs = _PARAMS.setdefault(name, [])
    strs.extend(f"{name}={v}" for v in range(len(strs), values.stop))
    return strs[values.start:values.stop:values.step]


def _status(row: RowSpec, p: int, value: int | None, ok: bool) -> str:
    if row.conjectural(p, value):
        return XPASS if ok else XFAIL
    return PASS if ok else FAIL


def _outcome(row: RowSpec, p: int, value, members, rhs) -> tuple[int, int, str]:
    """(lhs, rhs, status) of a report: on failure the chain's first differing pair."""
    seq = (*members, rhs)
    for a, b in zip(seq, seq[1:]):
        if a != b:
            return a, b, _status(row, p, value, False)
    return members[0], rhs, _status(row, p, value, True)


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
    TypeError.  An exception raised while the row is evaluated names the row and prime.
    """
    p = _integer("p", p)
    param = None if param is None else _integer("param", param)
    mod_exp = None if mod_exp is None else _integer("mod_exp", mod_exp)
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
    head = (row.id, p, _format_params(row, param), p**kexp)
    if not row.applies(p) or (row.param_values is not None and param not in row.param_values(p)):
        return CongruenceReport(*head, None, None, SKIPPED)
    ctx = _TermwiseContext(p)
    try:
        members, rhs = _evaluate(row, ctx, kexp, param)
    except Exception as exc:
        raise _located(exc, row.id, p) from exc
    return CongruenceReport(*head, *_outcome(row, p, param, members, rhs))


def _row_block(ctx: PrimeContext, row: RowSpec, kexp: int, timings: bool) -> tuple:
    """The column block of ``row`` at ``ctx.p`` mod p^kexp, in parameter order."""
    p, pkv = ctx.p, ctx.pk(kexp)
    if not row.applies(p):
        return row.id, p, [""], pkv, None, None, SKIPPED, 0
    values = (None,) if row.param_values is None else row.param_values(p)
    if row.table:  # never conjectural (see _check_table_rows): its columns as they come
        (term,), rhs = row.statement
        lhs, rhs = term.column(ctx, kexp, values), rhs.column(ctx, kexp, values)
        if not len(lhs) == len(rhs) == len(values):  # raise rather than drop or invent reports
            raise ValueError(f"a column is shorter or longer than the {len(values)} values")
        status = PASS if lhs == rhs else list(map((FAIL, PASS).__getitem__, map(eq, lhs, rhs)))
        return row.id, p, _table_params(row.param_name, values), pkv, lhs, rhs, status, 0
    outcomes, micros = [], []
    for v in values:
        start = timings and time.perf_counter_ns()
        members, rhs = _evaluate(row, ctx, kexp, v)
        if timings:
            micros.append((time.perf_counter_ns() - start) // 1000)
        outcomes.append(_outcome(row, p, v, members, rhs))
    lhs, rhs, status = map(list, zip(*outcomes))
    params = [_format_params(row, v) for v in values]
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
    reduced from a higher one: the prime's factorial table is built once, at
    the top exponent, and each list of each exponent's table grows to the
    reach its own readers ask for (``PrimeContext.tables``).  Within one
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
