"""Exact verification of binomial-sum congruences modulo prime powers.

Subpackages:
    arith        primes, per-prime factorial tables and binomials mod p^k, Cornacchia
    sequences    Delannoy/Schroeder polynomials, Euler numbers
    qseries      truncated eta-product expansions and their closed forms
    identities   exact polynomial/rational identity and recursion checks
    congruences  the congruence registry, checker and batch runner
    cli          command-line front end
"""

from .arith import (
    FactorialTables,
    QuadraticRepresentation,
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
    "FactorialTables",
    "IdentityRecord",
    "PrimeContext",
    "QuadraticRepresentation",
    "all_ids",
    "check",
    "coefficient_closed_form",
    "coefficient_table",
    "default_ids",
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
