"""Tour of the exact identities behind the congruence rows.

Everything here is checked in exact arithmetic (integers and rationals) — no
floating point, no modulus.  A polynomial identity is proved by evaluating
both sides at more points than their degree.  The suites feed the
congruence engine: each mod-p^k row reduces to one of these identities plus
a p-adic argument, so the gallery doubles as a map of the codebase.
"""

from fractions import Fraction
from math import comb

from binomsums import run_identity_suite
from binomsums.sequences import delannoy_poly, f_poly, schroder_poly


def main():
    x = 3
    print(f"square laws at x = {x}:")
    for n in range(6):
        d = delannoy_poly(n, x)
        f = f_poly(n, x * (x + 1))
        shifted = sum(
            comb(n + k, 2 * k) * comb(2 * k, k) * comb(2 * k, k + 1)
            * x ** (k - 1) * (x + 1) ** (k + 1)
            for k in range(1, n + 1)
        )
        s = schroder_poly(n, x)
        print(f"  n={n}: D_n^2={d * d:>12}  f_n(x(x+1))={f:>12}   "
              f"shifted sum={shifted:>13}  n(n+1)S_n^2={n * (n + 1) * s * s:>13}")
        assert f == d * d
        assert shifted == n * (n + 1) * s * s

    half = Fraction(-1, 2)
    print("\nhalf-point values D_n(-1/2), the bridge to sums over (-16)^k:")
    print("  ", [delannoy_poly(n, half) for n in range(8)])

    print("\nfull suite at default bounds:")
    for r in run_identity_suite():
        mark = "ok " if r.status == "pass" else "FAIL"
        print(f"  {mark} {r.name:<30} [{r.params}] {r.checks} checks")


if __name__ == "__main__":
    main()
