"""Exact reference values that only the tests use.

Each oracle is computed from a definition, independently of the engine: the
named sequences from their defining sums, the secant Euler numbers from
their recurrence, and binomial valuations from Kummer's carry count.  The
encoders of ``verify`` output format one report at a time through
``csv.writer`` and ``json.dumps``, and ``TruncatedSeries`` expands an eta
product by multiplying its factors one term at a time.  ``Index`` is an
integer of a type other than int, as numpy's integers are.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from math import comb

from binomsums.sequences import delannoy_poly, schroder_poly

KINDS = ("central_binomial", "catalan", "delannoy", "schroder", "euler")


class Index:
    """An integer that is no int: ``operator.index`` reads it, as it reads numpy's."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Index({self.value})"


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


def as_tuple(rep) -> tuple[int, int]:
    """The (x, y) of a ``QuadraticRepresentation``."""
    return (rep.x, rep.y)


def factorial_tables(p: int, k: int, limit: int) -> tuple[list[int], list[int], list[int]]:
    """``val``, ``unit`` and ``inv_unit`` of ``FactorialTables(p, k, limit)``, one n at a time.

    val[n] is v_p(n!), unit[n] the p-free part of n! mod p^k and inv_unit[n]
    its inverse: every n is stripped of its factors p, then multiplied in
    upwards, and the inverses are multiplied in downwards from the top.
    """
    pk = p**k
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
    inv[limit] = pow(unit[limit], -1, pk)
    for n in range(limit, 1, -1):
        m = n
        while m % p == 0:
            m //= p
        inv[n - 1] = inv[n] * m % pk
    return val, unit, inv


def summand_residues(ctx, kexp: int, base: int, central: int, factors, lo: int, hi: int,
                     label: str = "term") -> list[int]:
    """Residues mod p^kexp of C(2k,k)^central prod (a k + b)!^e / base^k for lo <= k <= hi.

    The multi-pass term engine the package used before its one-pass kernel:
    the summand starts from ``ctx.central_power``, or from ``ctx.base_powers``
    with no C(2k,k); each distinct factorial, its exponents merged, costs one
    pass for its units and one for its valuations where they are not all 0; a
    last pass gives p^v * unit, 0 for v >= kexp.  It reads every factorial over
    the whole range lo..hi, so it asks the tables for all three lists that far.
    A negative valuation raises ArithmeticError naming ``label``, p and k.
    """
    def column(table, a, b):
        return [table[a * k + b] for k in range(lo, hi + 1)]

    p, pk = ctx.p, ctx.pk(kexp)
    vals, units = (ctx.central_power(central, base, kexp) if central
                   else ([0] * p, ctx.base_powers(base, kexp, p)))
    vals, units = vals[lo : hi + 1], units[lo : hi + 1]
    reach = max([a * k + b for a, b, _ in factors for k in (lo, hi)], default=0)
    t = ctx.tables(kexp, reach, reach, reach)
    merged: dict = {}
    for a, b, e in factors:
        merged[a, b] = merged.get((a, b), 0) + e
    for (a, b), e in merged.items():
        if not e:
            continue
        col = column(t.val, a, b)
        if any(col):
            vals = [v + e * x for v, x in zip(vals, col)]
        col = column(t.unit if e > 0 else t.inv_unit, a, b)
        units = [u * x ** abs(e) % pk for u, x in zip(units, col)]
    for i, v in enumerate(vals):
        if v < 0:
            raise ArithmeticError(f"{label}: valuation {v} < 0, not p-integral, "
                                  f"at p={p}, k={lo + i}")
    return [p**v * u % pk if v < kexp else 0 for v, u in zip(vals, units)]


def human_report(r) -> str:
    """One ``CongruenceReport`` as a line of ``verify``'s human format, newline left out."""
    head = f"{r.id} p={r.p}"
    if r.params:
        head += f" {r.params}"
    if r.status == "skipped":
        return f"{head}: skipped"
    text = f"{head} mod {r.modulus}: {r.status} lhs={r.lhs} rhs={r.rhs}"
    if r.micros:
        text += f" ({r.micros}us)"
    return text


def verify_block(fmt: str, log: bool, reports, ts: str = "") -> tuple[str, Counter, str]:
    """``verify``'s encoding of one prime's reports, report by report: (their
    rows in ``fmt``, their status counts, their ``--log`` records stamped
    ``ts``, or "" without ``log``)."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(reports)  # None is written as ""
        text = buf.getvalue()
    elif fmt == "jsonl":
        text = "".join(json.dumps(r._asdict(), sort_keys=True) + "\n" for r in reports)
    else:
        text = "".join(human_report(r) + "\n" for r in reports)
    records = "".join(json.dumps({"ts": ts, "record": r._asdict()}, sort_keys=True) + "\n"
                      for r in reports) if log else ""
    return text, Counter([r.status for r in reports]), records


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series truncated past q^order, multiplied term by term: the
    naive-product oracle of the eta-product expansions."""

    coeffs: tuple[int, ...]
    order: int

    @classmethod
    def from_coeffs(cls, coeffs, order: int) -> "TruncatedSeries":
        c = list(coeffs)[: order + 1]
        c += [0] * (order + 1 - len(c))
        return cls(tuple(c), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([1], order)

    def _check(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.order
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: self.order + 1 - i]):
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out), self.order)

    def shift(self, t: int) -> "TruncatedSeries":
        """Multiply by q^t (t >= 0)."""
        if t < 0:
            raise ValueError("shift must be >= 0")
        return TruncatedSeries(
            tuple([0] * t + list(self.coeffs[: self.order + 1 - t])), self.order
        )

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]
