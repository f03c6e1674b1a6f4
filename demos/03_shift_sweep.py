"""Map which shifted central-binomial sums vanish mod p^2.

For a base m in {64, 108, 256, 1728} and shift d, consider

    S(d) = sum_{k<p} w_m(k) C(2k, k+d) / m^k   (mod p^2)

where w_m(k) is the matching product of central binomials.  The theorems
say S(d) = 0 exactly when d has one specific parity, and that parity is a
quadratic-residue datum of p (it differs from base to base).  The shift
engine behind ``PrimeContext.chain`` gets the shifts of one parity of a
base in O(p): it reads S(0) or S(1) from a binomial column that all four
bases share and steps the rest through the relation
c(d) S(d) - c(d+1) S(d+2) = R_d, e.g. c(d) = (2d+1)^2 for base 64.
Below, each column is a shift d and a '.' marks a vanishing sum.
"""

from binomsums import PrimeContext, legendre_symbol

PRIMES = (29, 31, 41, 43)
BASES = (64, 108, 256, 1728)


def expected_parity(base: int, p: int) -> int:
    if base == 64:
        return (p + 1) // 2 % 2
    if base == 108:
        return (1 + legendre_symbol(p, 3)) // 2
    if base == 256:
        return (1 + legendre_symbol(-2, p)) // 2
    return (1 + legendre_symbol(-1, p)) // 2


def main():
    for p in PRIMES:
        ctx = PrimeContext(p)
        table = {base: [ctx.chain(base, d % 2, 2)[d // 2] for d in range(p)] for base in BASES}
        print(f"p = {p}   (d runs 0..{p - 1}; '.' means the sum is 0 mod p^2)")
        for base in BASES:
            marks = "".join("." if s == 0 else "*" for s in table[base])
            parity = expected_parity(base, p)
            vanishes = all(
                s == 0 for d, s in enumerate(table[base]) if d % 2 == parity
            )
            other = any(
                s != 0 for d, s in enumerate(table[base]) if d % 2 != parity
            )
            print(f"  base {base:>4}: {marks}   vanishing parity "
                  f"{'even' if parity == 0 else 'odd '} "
                  f"{'ok' if vanishes and other else '??'}")
        print("  (the solid tail is where every summand is already 0 mod p^2)\n")


if __name__ == "__main__":
    main()
