"""The shift engine of the congruence checker.

It produces S(d) = sum_{k<p} w(k) C(2k, k+d)  (mod p^K) for the shifts d < p
of one parity in O(p), by stepping the creative-telescoping relations
d -> d+2 (``shift_chain``), or for one d from its binomial column, checked by
a direct sum (``shift_seed``), up to the weights' cutoff: every S(d) past
it is 0 mod p^K.  ``identities`` checks the relations exactly
only for small P, so each chain checks itself against direct sums; the test
suite pins both paths against the direct evaluators.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .arith import FactorialTables


class ShiftFamily(NamedTuple):
    """One weight family w(k) = C(a k, b k) C(c k, e k) / base^k.

    With c(x) = (step*x + r1)(step*x + r2), its shifted sums over k < P obey

        c(d) S(d) - c(d+1) S(d+2)
            = c(-P) (d+1) C(2P, P+d+1) / P * w(P-1),

    the step relation that ``identities.verify_shift_step_base64`` and
    ``verify_shift_step_threeproduct`` check over the rationals.
    """

    step: int
    offsets: tuple[int, int]
    binomials: tuple[tuple[int, int], tuple[int, int]]

    def coeff(self, x: int) -> int:
        """c(x) = (step*x + r1)(step*x + r2)."""
        r1, r2 = self.offsets
        return (self.step * x + r1) * (self.step * x + r2)


SHIFT_FAMILIES = {
    64: ShiftFamily(2, (1, 1), ((2, 1), (2, 1))),
    108: ShiftFamily(3, (1, 2), ((2, 1), (3, 1))),
    256: ShiftFamily(4, (1, 3), ((2, 1), (4, 2))),
    1728: ShiftFamily(6, (1, 5), ((3, 1), (6, 3))),
}


def direct_shift_sum(p: int, weights: list[int], d: int, tables: FactorialTables) -> int:
    """sum_{d<=k<n} weights[k] * C(2k, k+d) mod p^K, n = len(weights), one term at a time.

    C(2k, k+d) = p^v unit[2k] inv_unit[k+d] inv_unit[k-d] with
    v = val[2k] - val[k+d] - val[k-d]; a term with w(k) = 0 or v >= K is 0.
    """
    kexp, pk, n = tables.k, tables.pk, len(weights)
    val, unit, inv = tables.val, tables.unit, tables.inv_unit
    if d >= n:
        return 0
    pp = [p**i for i in range(kexp)]
    return sum(w * pp[v] * u % pk * a % pk * b
               for w, v2, u, va, a, vb, b in zip(
                   weights[d:], val[2 * d : 2 * n : 2], unit[2 * d : 2 * n : 2],
                   val[2 * d : n + d], inv[2 * d : n + d], val[: n - d], inv[: n - d])
               if w and (v := v2 - va - vb) < kexp) % pk


def column_shift_sum(weights: list[int], d: int, column: list[int], pk: int) -> int:
    """sum_{d<=k<n} weights[k] * column[k-d] mod pk, n = len(weights), where
    column[k-d] = C(2k, k+d)."""
    return sum(map(mul, weights[d:], column)) % pk


def _mismatch(p: int, base: int, d: int, kexp: int, what: str) -> ArithmeticError:
    return ArithmeticError(f"shift engine mismatch at p={p}, base={base}, d={d}, K={kexp}: {what}")


def shift_seed(p: int, base: int, weights: list[int], tables: FactorialTables,
               column: list[int], d: int) -> int:
    """S(d) read from ``column`` (C(2k, k+d) for d <= k < p) and checked against
    ``direct_shift_sum``: a seed read on its own has no chain to pin it."""
    seed = column_shift_sum(weights, d, column, tables.pk)
    direct = direct_shift_sum(p, weights, d, tables)
    if seed != direct:
        raise _mismatch(p, base, d, tables.k, f"its column gives {seed}, the direct sum {direct}")
    return seed


def shift_chain(p: int, base: int, weights: list[int], tables: FactorialTables,
                columns: dict[int, list[int]], parity: int) -> list[int]:
    """S(d) = sum_{k<p} w(k) * C(2k, k+d) mod p^K for the d < p of one parity, in
    order: entry d // 2 is S(d).  The steps never mix parities.

    ``weights`` are the residues of ``SHIFT_FAMILIES[base]`` for k <= c, their
    cutoff: w(k) = 0 mod p^K for c < k < p, so S(d) = 0 for d > c, where no
    step is taken.  ``tables`` must reach n! for n <= step*p.  ``columns`` maps
    d = ``parity``, and d = (p-1)/2 if that has the parity, to C(2k, k+d) for
    d <= k < p mod p^K, which every family shares.  The seed S(parity) is
    read from its column with ``column_shift_sum``; every further S(d+2) comes
    from the step relation, divided by c(d+1) through 1/m = inv_unit[m] *
    unit[m-1], except where p | c(d+1), that is where d+1 is a root x of c mod
    p: at most two re-seed points d = x-1, planned before stepping, so the
    steps between them test no divisibility.  Where S(d) = 0 and ``front``
    (the relation's right side) is 0, S(d+2) = 0 too and the step is passed
    through: a chain that vanishes, as one parity does mod p^2 for every
    family, costs one test per shift.  At a re-seed point S(d+2) is summed
    directly, and the relation at d must hold with it; c(d) is a unit there
    (save for base 1728 at p = 5), so this pins the stepped S(d).

    Of S(c), S(c-1), S((p-1)/2) and every S(x) with p | c(x) and x <= c
    (where a stepped error would be lost), those of the chain's parity are
    then checked: S((p-1)/2) against its column, the others against a direct
    sum from the tables, so a wrong seed or step cannot certify itself.  A
    mismatch raises ArithmeticError naming p, base, d and K.
    """
    fam = SHIFT_FAMILIES[base]
    kexp, pk = tables.k, tables.pk
    unit, inv = tables.unit, tables.inv_unit
    top = len(weights) - 1  # the cutoff c
    if top >= p or tables.limit < fam.step * p or parity not in (0, 1):
        raise ValueError("need at most p weights, tables up to step*p and a parity 0 or 1")
    step, (r1, r2) = fam.step, fam.offsets
    half = (p - 1) // 2
    # c(-p) * w(p-1): w(p-1) has valuation >= 2, so it is past the cutoff for K <= 2
    front = fam.coeff(-p) * weights[p - 1] % pk if top == p - 1 else 0

    def rhs(d: int) -> int:
        """The relation's right side at d mod p^K, 0 when ``front`` is; C(2p, p+d+1)/p
        is a unit for d <= p-2."""
        return front * (d + 1) * unit[2 * p] % pk * inv[p + d + 1] * inv[p - d - 1] % pk

    # the roots x of c(x) = 0 (mod p): S(x + 1) is re-seeded and S(x) checked
    roots = {-r * pow(step, -1, p) % p for r in (r1, r2)}
    out = [0] * ((p + 1 - parity) // 2)
    out[0] = column_shift_sum(weights, parity, columns[parity], pk)
    gap, lo = r2 - r1, parity
    for stop in sorted({x - 1 for x in roots if 1 <= x < top and x % 2 != parity} | {top - 1}):
        # no coefficient c(d + 1) = m1 * m2 with lo <= d < stop is divisible by p
        for d in range(lo, stop, 2):
            s = out[d >> 1]
            if s or front:  # else S(d + 2) = 0 as well
                m1 = step * d + step + r1
                m2 = m1 + gap
                acc = (m1 - step) * (m2 - step) * s
                if front:
                    acc -= rhs(d)
                out[(d >> 1) + 1] = acc * inv[m1] * unit[m1 - 1] % pk * inv[m2] * unit[m2 - 1] % pk
        if stop < top - 1:
            d, lo = stop, stop + 2
            out[(d >> 1) + 1] = direct_shift_sum(p, weights, d + 2, tables)
            if (fam.coeff(d) * out[d >> 1] - fam.coeff(d + 1) * out[(d >> 1) + 1] - rhs(d)) % pk:
                raise _mismatch(p, base, d, kexp, f"the relation fails with the direct S({d + 2})")
    checked = {top, top - 1, half} | roots
    for d in sorted((x for x in checked if 0 <= x <= top and x % 2 == parity), reverse=True):
        direct = (column_shift_sum(weights, d, columns[d], pk) if d == half
                  else direct_shift_sum(p, weights, d, tables))
        if direct != out[d >> 1]:
            what = f"step relation gives {out[d >> 1]}, direct sum gives {direct}"
            raise _mismatch(p, base, d, kexp, what)
    return out
