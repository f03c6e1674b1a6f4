"""The package's public names are pinned, so an export change is deliberate."""

import binomsums

PUBLIC = [
    "CongruenceReport",
    "FactorialTables",
    "IdentityRecord",
    "PrimeContext",
    "QuadraticRepresentation",
    "__version__",
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
]


def test_public_api_is_pinned():
    assert sorted(binomsums.__all__) == PUBLIC
    missing = [name for name in binomsums.__all__ if not hasattr(binomsums, name)]
    assert missing == []
