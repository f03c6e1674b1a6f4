"""The shift engine of the congruence checker.

It produces, for every shift d < p at once, the weighted sums
S(d) = sum_{k<p} w(k) C(2k, k+d)  (mod p^K)  in O(p), by stepping the
creative-telescoping relations d -> d+2 that ``identities`` verifies exactly.
It is exact; the test suite pins it against the direct evaluators.
"""

from __future__ import annotations

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
    """sum_{d<=k<p} weights[k] * C(2k, k+d) mod p^K, one term at a time."""
    kexp, pk = tables.k, tables.pk
    val, unit, inv = tables.val, tables.unit, tables.inv_unit
    pp = [p**i for i in range(kexp)]
    total = 0
    for k in range(d, p):
        w = weights[k]
        if w:
            v = val[2 * k] - val[k + d] - val[k - d]
            if v < kexp:
                total += w * pp[v] * unit[2 * k] % pk * inv[k + d] % pk * inv[k - d]
    return total % pk


def shift_sums(p: int, base: int, weights: list[int], tables: FactorialTables) -> list[int]:
    """S(d) = sum_{k<p} weights[k] * C(2k, k+d) mod p^K for every d < p.

    ``weights`` are the residues of ``SHIFT_FAMILIES[base]`` at k < p and
    ``tables`` must reach n! for n <= step*p.  S(0) and S(1) are summed
    directly; every further S(d+2) comes from the step relation, divided by
    c(d+1) through 1/m = inv_unit[m] * unit[m-1], except where p | c(d+1):
    there S(d+2) is summed directly again (at most twice per family), and the
    relation at d must hold with that direct value; c(d) is a unit there
    (save for base 1728 at p = 5), so this pins the stepped S(d).
    C(2p, p+d+1)/p is a unit for d <= p-2, read from the same tables.

    S(p-1), S(p-2), S((p-1)/2) and every S(x) whose coefficient c(x) is
    divisible by p (so a stepped error in it would be lost) are then summed
    directly as well, so a wrong seed or step cannot certify itself.  A
    mismatch raises ArithmeticError naming p, base, d and K.
    """
    fam = SHIFT_FAMILIES[base]
    kexp, pk = tables.k, tables.pk
    unit, inv = tables.unit, tables.inv_unit
    if len(weights) != p or tables.limit < fam.step * p:
        raise ValueError("need one weight per k < p and tables up to step*p")
    step, (r1, r2) = fam.step, fam.offsets
    # c(-p) * w(p-1); w(p-1) has valuation >= 2, so this is 0 for K <= 2
    front = fam.coeff(-p) * weights[p - 1] % pk

    def rhs(d: int) -> int:
        """The step relation's right side at d, mod p^K."""
        if not front:
            return 0
        return front * (d + 1) * unit[2 * p] % pk * inv[p + d + 1] * inv[p - d - 1] % pk

    def mismatch(d: int, what: str) -> ArithmeticError:
        where = f"p={p}, base={base}, d={d}, K={kexp}"
        return ArithmeticError(f"shift engine mismatch at {where}: {what}")

    out = [0] * p
    out[0] = direct_shift_sum(p, weights, 0, tables)
    out[1] = direct_shift_sum(p, weights, 1, tables)
    for d in range(p - 2):
        m1 = step * d + step + r1  # c(d+1) = m1 * m2
        m2 = m1 + r2 - r1
        if m1 % p == 0 or m2 % p == 0:
            out[d + 2] = direct_shift_sum(p, weights, d + 2, tables)
            if (fam.coeff(d) * out[d] - m1 * m2 * out[d + 2] - rhs(d)) % pk:
                raise mismatch(d, f"the relation fails with the direct S({d + 2})")
            continue
        acc = ((m1 - step) * (m2 - step) * out[d] - rhs(d)) % pk
        out[d + 2] = acc * inv[m1] % pk * unit[m1 - 1] % pk * inv[m2] % pk * unit[m2 - 1] % pk
    # x with p | c(x): step*x + r = 0 (mod p) for r in the offsets
    checked = {p - 1, p - 2, (p - 1) // 2}
    checked.update(-r * pow(step, -1, p) % p for r in (r1, r2))
    for d in sorted(checked, reverse=True):
        direct = direct_shift_sum(p, weights, d, tables)
        if direct != out[d]:
            raise mismatch(d, f"step relation gives {out[d]}, direct sum gives {direct}")
    return out
