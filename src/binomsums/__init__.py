"""Exact verification of binomial-sum congruences modulo prime powers.

Subpackages:
    arith        primes, per-prime factorial tables and binomials mod p^k, Cornacchia
    sequences    Delannoy/Schroeder polynomials, Euler numbers
    qseries      truncated eta-product expansions and their closed forms
    identities   exact polynomial/rational identity and recursion checks
    congruences  the congruence registry, checker and batch runner
    cli          command-line front end

``identities`` and ``qseries``, and ``IdentityRecord``, ``run_identity_suite``,
``coefficient_closed_form`` and ``coefficient_table`` from them, load on first access
(PEP 562): no ``verify`` run executes them, so ``import binomsums`` leaves them out.
"""

import importlib

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

__version__ = "0.1.0"

_LAZY = {"identities": "identities", "IdentityRecord": "identities",
         "run_identity_suite": "identities", "qseries": "qseries",
         "coefficient_closed_form": "qseries", "coefficient_table": "qseries"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


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
