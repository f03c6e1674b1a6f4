"""Exact verification of binomial-sum congruences modulo prime powers.

Subpackages:
    arith        residues mod p^k, factored factorials/binomials, Cornacchia
    sequences    Delannoy/Schroeder polynomials, Euler numbers, residue streams
    qseries      truncated eta-product expansions and their closed forms
    identities   exact polynomial/rational identity and recursion checks
    congruences  the congruence registry, checker and batch runner
    cli          command-line front end
"""

from .arith import (
    FactoredResidue,
    FactorialTables,
    PrimePowerResidue,
    QuadraticRepresentation,
    binomial_factored,
    factorial_factored,
    fermat_quotient_2,
    is_prime,
    legendre_symbol,
    mod_inverse,
    primes_in_range,
    represent,
    sqrt_mod,
)
from .congruences import (
    CongruenceReport,
    PrimeContext,
    all_ids,
    check,
    default_ids,
    iter_suite,
    registry,
    run_suite,
)
from .identities import IdentityRecord, run_identity_suite
from .qseries import coefficient_closed_form, coefficient_table

__version__ = "0.1.0"

__all__ = [
    "CongruenceReport",
    "FactoredResidue",
    "FactorialTables",
    "IdentityRecord",
    "PrimeContext",
    "PrimePowerResidue",
    "QuadraticRepresentation",
    "all_ids",
    "binomial_factored",
    "check",
    "coefficient_closed_form",
    "coefficient_table",
    "default_ids",
    "factorial_factored",
    "fermat_quotient_2",
    "is_prime",
    "iter_suite",
    "legendre_symbol",
    "mod_inverse",
    "primes_in_range",
    "registry",
    "represent",
    "run_identity_suite",
    "run_suite",
    "sqrt_mod",
    "__version__",
]
