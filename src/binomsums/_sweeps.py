"""The shift engine of the congruence checker.

It produces, for every shift d < p at once, the weighted sums
S(d) = sum_{k<p} w(k) C(2k, k+d)  (mod p^K)  in O(p), by stepping the
creative-telescoping relations d -> d+2 that ``identities`` verifies exactly.
It is exact; the test suite pins it against the direct evaluators.
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
    """sum_{d<=k<p} weights[k] * C(2k, k+d) mod p^K, one term at a time.

    C(2k, k+d) = p^v unit[2k] inv_unit[k+d] inv_unit[k-d] with
    v = val[2k] - val[k+d] - val[k-d]; a term with w(k) = 0 or v >= K is 0.
    """
    kexp, pk = tables.k, tables.pk
    val, unit, inv = tables.val, tables.unit, tables.inv_unit
    pp = [p**i for i in range(kexp)]
    hi = p + d
    return sum(w * pp[v] * u % pk * a % pk * b
               for w, v2, u, va, a, vb, b in zip(
                   weights[d:], val[2 * d : 2 * p : 2], unit[2 * d : 2 * p : 2],
                   val[2 * d : hi], inv[2 * d : hi], val[: p - d], inv[: p - d])
               if w and (v := v2 - va - vb) < kexp) % pk


def column_shift_sum(weights: list[int], d: int, column: list[int], pk: int) -> int:
    """sum_{d<=k<p} weights[k] * column[k-d] mod pk, where column[k-d] = C(2k, k+d)."""
    return sum(map(mul, weights[d:], column)) % pk


def shift_sums(
    p: int, base: int, weights: list[int], tables: FactorialTables, columns: dict[int, list[int]]
) -> list[int]:
    """S(d) = sum_{k<p} weights[k] * C(2k, k+d) mod p^K for every d < p.

    ``weights`` are the residues of ``SHIFT_FAMILIES[base]`` at k < p and
    ``tables`` must reach n! for n <= step*p.  ``columns`` maps each d in
    {0, 1, (p-1)/2} to the residues of C(2k, k+d) for d <= k < p mod p^K;
    they do not depend on the family, so one set serves all four.  The seeds
    S(0) and S(1) are read from them with ``column_shift_sum``; every further
    S(d+2) comes from the step relation, divided by c(d+1) through
    1/m = inv_unit[m] * unit[m-1], except where p | c(d+1).  Those re-seed
    points are planned before stepping: c(d+1) = 0 (mod p) exactly when d+1
    is a root x of c mod p, so there are at most two, at d = x-1.  Between
    them the steps run with no divisibility test, and where S(d) = 0 and
    ``front`` (the relation's right side) is 0, S(d+2) = 0 too and the step
    is passed through without its product: a chain that vanishes, as one
    parity does mod p^2 for every family, costs one test per shift.  At a
    re-seed point S(d+2) is summed directly again, and the relation at d
    must hold with that direct value; c(d) is a unit there (save for base
    1728 at p = 5), so this pins the stepped S(d).  C(2p, p+d+1)/p is a
    unit for d <= p-2, read from the same tables.

    S((p-1)/2) is then read from its column, and S(p-1), S(p-2) and every
    S(x) whose coefficient c(x) is divisible by p (so a stepped error in it
    would be lost) are summed directly, term by term from the tables, so a
    wrong seed or step cannot certify itself.  A mismatch raises
    ArithmeticError naming p, base, d and K.
    """
    fam = SHIFT_FAMILIES[base]
    kexp, pk = tables.k, tables.pk
    unit, inv = tables.unit, tables.inv_unit
    if len(weights) != p or tables.limit < fam.step * p:
        raise ValueError("need one weight per k < p and tables up to step*p")
    step, (r1, r2) = fam.step, fam.offsets
    half = (p - 1) // 2
    # c(-p) * w(p-1); w(p-1) has valuation >= 2, so this is 0 for K <= 2
    front = fam.coeff(-p) * weights[p - 1] % pk

    def rhs(d: int) -> int:
        """The step relation's right side at d, mod p^K; 0 when ``front`` is."""
        return front * (d + 1) * unit[2 * p] % pk * inv[p + d + 1] * inv[p - d - 1] % pk

    def mismatch(d: int, what: str) -> ArithmeticError:
        where = f"p={p}, base={base}, d={d}, K={kexp}"
        return ArithmeticError(f"shift engine mismatch at {where}: {what}")

    # the roots x of c(x) = 0 (mod p): S(x + 1) is re-seeded and S(x) checked
    roots = {-r * pow(step, -1, p) % p for r in (r1, r2)}
    out = [0] * p
    out[0] = column_shift_sum(weights, 0, columns[0], pk)
    out[1] = column_shift_sum(weights, 1, columns[1], pk)
    gap, lo = r2 - r1, 0
    for stop in sorted({x - 1 for x in roots if 1 <= x <= p - 2} | {p - 2}):
        # no coefficient c(d + 1) = m1 * m2 with lo <= d < stop is divisible by p
        for d in range(lo, stop):
            s = out[d]
            if s or front:  # else S(d + 2) = 0 as well
                m1 = step * d + step + r1
                m2 = m1 + gap
                acc = (m1 - step) * (m2 - step) * s
                if front:
                    acc -= rhs(d)
                out[d + 2] = acc * inv[m1] * unit[m1 - 1] % pk * inv[m2] * unit[m2 - 1] % pk
        if stop < p - 2:
            d, lo = stop, stop + 1
            out[d + 2] = direct_shift_sum(p, weights, d + 2, tables)
            if (fam.coeff(d) * out[d] - fam.coeff(d + 1) * out[d + 2] - rhs(d)) % pk:
                raise mismatch(d, f"the relation fails with the direct S({d + 2})")
    checked = {p - 1, p - 2, half} | roots
    for d in sorted(checked, reverse=True):
        if d == half:
            direct = column_shift_sum(weights, d, columns[d], pk)
        else:
            direct = direct_shift_sum(p, weights, d, tables)
        if direct != out[d]:
            raise mismatch(d, f"step relation gives {out[d]}, direct sum gives {direct}")
    return out
