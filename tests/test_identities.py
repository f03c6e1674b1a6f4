import re
from fractions import Fraction
from itertools import zip_longest
from math import comb

import pytest

from binomsums import identities, sequences
from binomsums._sweeps import SHIFT_FAMILIES
from binomsums.identities import (
    SUITES,
    _a_coeff,
    _b_coeff,
    _c_coeff,
    _convolve,
    _d_coeff,
    _recursion_poly,
    run_identity_suite,
    verify_alternating_catalan_sum,
    verify_central_sum_reflection,
    verify_delannoy_square,
    verify_macmahon_cubes,
    verify_schroder_delannoy_product,
    verify_schroder_square,
    verify_schroder_square_coefficients,
    verify_shift_step_base64,
    verify_shift_step_threeproduct,
    verify_small_identities,
    verify_weighted_central_square_sums,
)
from binomsums.sequences import delannoy_coeffs, horner
from oracles import Index


def test_horner_and_convolution_expand_binomial_powers():
    for a in range(6):
        for b in range(6):
            prod = _convolve([comb(a, i) for i in range(a + 1)], [comb(b, j) for j in range(b + 1)])
            assert prod == [comb(a + b, k) for k in range(a + b + 1)]
            for x in (0, 1, 3, -2, Fraction(1, 2)):
                assert horner(prod, x) == (1 + x) ** (a + b)
    assert horner([], 5) == 0


def test_delannoy_square_small():
    # n=1 by hand: f_1(x(x+1)) = 1+4x+4x^2 = (1+2x)^2
    rec = verify_delannoy_square(8)
    assert rec.status == "pass" and rec.witness is None and rec.checks == 9


def test_schroder_square_small():
    rec = verify_schroder_square(8)
    assert rec.status == "pass"


def test_coefficient_anchors():
    for n in range(1, 8):
        assert _a_coeff(0, n) == 1
        assert _b_coeff(0, n) == n * (n + 1)
        assert _a_coeff(1, n) == n * (n + 1)
        assert _b_coeff(1, n) == n * n * (n + 1) ** 2
    rec = verify_schroder_square_coefficients(6)
    assert rec.status == "pass"


def test_alternating_catalan_values():
    assert verify_alternating_catalan_sum(30).status == "pass"
    # spot values: n=1 -> 1/2, n=2 -> 0, n=3 -> -1/8
    s = lambda n: sum(
        Fraction(comb(n + k, 2 * k) * comb(2 * k, k) // (k + 1), 1) * Fraction(1, (-2) ** k)
        for k in range(n + 1)
    )
    assert s(1) == Fraction(1, 2)
    assert s(2) == 0
    assert s(3) == Fraction(-1, 8)


def test_central_sum_reflection():
    rec = verify_central_sum_reflection(25)
    assert rec.status == "pass"
    # the two sides at n=0,1 take the values 1 and 8
    assert sum(comb(2 * k, k) ** 2 * comb(2 * (1 - k), 1 - k) ** 2 for k in range(2)) == 8


def test_weighted_sums():
    rec = verify_weighted_central_square_sums(40)
    assert rec.status == "pass"
    # first family at n=1: 1 + (2 + 1/2)*4/8 = 9/4 = (2*1+1)^2 C(2,1)^2/((1+1)*8)
    assert 1 + Fraction(5, 2) * Fraction(4, 8) == Fraction(9, 4)


def test_recursion_poly_values():
    # the n^4 sign is pinned by these two values; +20n^4 gives -296 and -84
    assert _recursion_poly(0, 2) == -936
    assert _recursion_poly(0, 3) == -3324


def test_product_coefficient_anchors():
    assert [_d_coeff(m, 2) for m in range(3)] == [1, 10, 38]
    assert [_d_coeff(m, 3) for m in range(3)] == [1, 19, 136]
    assert [Fraction(_c_coeff(m, 2), 2) for m in range(3)] == [1, 10, 38]


def test_schroder_delannoy_product():
    assert verify_schroder_delannoy_product(6).status == "pass"


def test_macmahon():
    assert verify_macmahon_cubes(12).status == "pass"
    # n=2: coefficients 1, 8, 1
    assert [comb(2, k) ** 3 for k in range(3)] == [1, 8, 1]


def test_shift_step_base64():
    rec = verify_shift_step_base64(5)
    assert rec.status == "pass"


def test_shift_step_threeproduct():
    rec = verify_shift_step_threeproduct(4)
    assert rec.status == "pass"


def test_small_identities():
    rec = verify_small_identities(40)
    assert rec.status == "pass"
    assert comb(4, 2) * comb(6, 3) == 2 * comb(4, 3) * comb(6, 2) == 120


def test_suite_runner():
    recs = run_identity_suite(grid_n=6, grid_p=3)
    assert len(recs) == len(SUITES)
    assert all(r.status == "pass" for r in recs)
    names = [r.name for r in recs]
    assert names == list(SUITES)
    sub = run_identity_suite(names=["macmahon_cubes"], grid_n=5)
    assert len(sub) == 1 and sub[0].name == "macmahon_cubes"
    with pytest.raises(ValueError):
        run_identity_suite(names=["nope"])


# --- every suite can fail, and names the case that does ---------------------


def _comb_off_at(at, module=identities):
    """math.comb as ``module`` reads it, but one too large at the single argument pair ``at``:
    ``sequences`` builds the coefficient lists of D_n, S_n and f_n, ``identities`` the rest."""
    return module, "comb", lambda n, k: comb(n, k) + ((n, k) == at)


def _off_at(name, at):
    """The identities function ``name``, but one too large at the arguments ``at``."""
    right = getattr(identities, name)
    return identities, name, lambda *args: right(*args) + (args[: len(at)] == at)


def _negated(name):
    right = getattr(identities, name)
    return identities, name, lambda *args: -right(*args)


def _family(base, offsets):
    return SHIFT_FAMILIES, base, SHIFT_FAMILIES[base]._replace(offsets=offsets)


# (suite at its default bound, what is made wrong, witness, checks); checks is
# None where the failing check is a guard, which such a record may now count
_FAILURES = [
    ("delannoy_square", _comb_off_at((4, 2), sequences), (2,), 3),
    ("schroder_square", _comb_off_at((4, 2)), (2,), 2),
    ("schroder_square_coeffs", _comb_off_at((6, 3)), (3, 0, "b"), 24),
    ("schroder_square_coeffs", _comb_off_at((4, 2)), (2, "anchor"), None),
    ("alternating_catalan_sum", _comb_off_at((4, 2)), (3,), 3),
    ("central_sum_reflection", _comb_off_at((4, 2)), (2,), 3),
    ("central_sum_reflection", _comb_off_at((2, 1)), ("anchor",), None),
    ("weighted_central_square_sums", _comb_off_at((4, 2)), (2, 0), 9),
    ("schroder_delannoy_product", _comb_off_at((4, 2), sequences), (1, "poly"), 1),
    ("schroder_delannoy_product", _off_at("_c_coeff", (1, 2)), (2, 1, "c-extraction"), 16),
    ("schroder_delannoy_product", _negated("_recursion_poly"), (1, 0, "c"), 6),
    ("schroder_delannoy_product", _off_at("_d_coeff", (2, 2)), (2, 0, "d"), 27),
    ("macmahon_cubes", _comb_off_at((4, 2)), (3,), 4),
    ("shift_step_base64", _family(64, (1, 2)), (2, 0), 1),
    ("shift_step_threeproduct", _family(108, (1, 1)), (2, 0, "108"), 1),
    ("shift_step_threeproduct", _family(256, (1, 2)), (2, 0, "256"), 6),
    ("small_identities", _comb_off_at((4, 2)), ("i", 2), None),
    ("small_identities", _off_at("delannoy_poly", (6,)), ("iii", 3), 206),
    ("small_identities", _off_at("schroder_poly", (4,)), ("iv", 4), 307),
]


@pytest.mark.parametrize(
    "name, wrong, witness, checks", _FAILURES,
    ids=[f"{f[0]}-{'-'.join(map(str, f[2]))}" for f in _FAILURES],
)
def test_a_wrong_input_fails_its_suite_and_names_the_case(monkeypatch, name, wrong, witness,
                                                         checks):
    target, key, value = wrong
    if target is SHIFT_FAMILIES:
        monkeypatch.setitem(SHIFT_FAMILIES, key, value)
    else:
        monkeypatch.setattr(target, key, value)
    (rec,) = run_identity_suite(names=[name])
    assert (rec.name, rec.status, rec.witness) == (name, "fail", witness)
    if checks is not None:
        assert rec.checks == checks


def test_every_suite_has_a_failure_case():
    assert {f[0] for f in _FAILURES} == set(SUITES)


def test_the_default_suites_pass_with_their_counts():
    # the pass-path counts, which the golden csv of ``identities`` also pins
    assert [(r.name, r.params, r.checks, r.status, r.witness) for r in run_identity_suite()] == [
        ("delannoy_square", "n<=25", 26, "pass", None),
        ("schroder_square", "n<=25", 25, "pass", None),
        ("schroder_square_coeffs", "n<=10", 240, "pass", None),
        ("alternating_catalan_sum", "n<=100", 100, "pass", None),
        ("central_sum_reflection", "n<=60", 179, "pass", None),
        ("weighted_central_square_sums", "n<=100", 404, "pass", None),
        ("schroder_delannoy_product", "n<=15", 825, "pass", None),
        ("macmahon_cubes", "n<=25", 26, "pass", None),
        ("shift_step_base64", "P<=10", 117, "pass", None),
        ("shift_step_threeproduct", "P<=8", 231, "pass", None),
        ("small_identities", "k,n<=100", 403, "pass", None),
    ]
    small = run_identity_suite(grid_n=6, grid_p=3)
    assert [r.checks for r in small] == [7, 6, 96, 6, 17, 28, 168, 7, 12, 36, 27]
    # a bound other than the default, and the empty and one-term ranges
    assert [(r.params, r.checks) for r in (
        verify_schroder_square_coefficients(4),
        verify_shift_step_base64(4),
        verify_shift_step_threeproduct(3),
        verify_central_sum_reflection(0),
        verify_central_sum_reflection(1),
        verify_schroder_square(0),
        verify_small_identities(0),
    )] == [("n<=4", 48), ("P<=4", 21), ("P<=3", 36), ("n<=0", 1), ("n<=1", 2), ("n<=0", 0),
           ("k,n<=0", 3)]
    assert verify_shift_step_base64(p_max=4) == verify_shift_step_base64(4)
    assert verify_delannoy_square(n_max=3) == verify_delannoy_square(3)


def test_the_grid_follows_the_degree_of_the_coefficient_lists(monkeypatch):
    # D_n(x) + x(x-1)...(x-2n) agrees with D_n(x) at x = 0..2n, so a fixed grid of
    # 2n + 1 points would pass it; the grid read from the list lengths does not
    right = delannoy_coeffs

    def bent(n):
        falling = [1]
        for j in range(2 * n + 1):
            falling = _convolve(falling, [-j, 1])
        assert all(horner(falling, x) == 0 for x in range(2 * n + 1))
        return [u + v for u, v in zip_longest(right(n), falling, fillvalue=0)]

    monkeypatch.setattr(identities, "delannoy_coeffs", bent)
    rec = verify_delannoy_square(25)
    assert (rec.status, rec.witness, rec.checks) == ("fail", (0,), 1)


@pytest.mark.parametrize("kwargs, error, text", [
    ({"grid_n": -3, "grid_p": -1}, ValueError, "grid_n must be >= 1, got -3"),
    ({"grid_n": 0}, ValueError, "grid_n must be >= 1, got 0"),
    ({"grid_p": 1}, ValueError, "grid_p must be >= 2, got 1"),
    ({"grid_n": True}, TypeError, "grid_n must be an integer, got True"),
    ({"grid_n": 2.5}, TypeError, "grid_n must be an integer, got 2.5"),
    ({"grid_p": "3"}, TypeError, "grid_p must be an integer, got '3'"),
])
def test_the_runner_rejects_the_bounds_the_cli_refuses(kwargs, error, text):
    with pytest.raises(error, match=re.escape(text)):
        run_identity_suite(**kwargs)


@pytest.mark.parametrize("call, error, text", [
    (lambda: verify_delannoy_square(-1), ValueError, "n_max must be >= 0, got -1"),
    (lambda: verify_macmahon_cubes(Index(-1)), ValueError,
     "n_max must be >= 0, got -1"),
    (lambda: run_identity_suite(grid_n=Index(0)), ValueError,
     "grid_n must be >= 1, got 0"),
    (lambda: run_identity_suite(grid_n=3, grid_p=Index(1)), ValueError,
     "grid_p must be >= 2, got 1"),
    (lambda: verify_shift_step_base64(p_max=-2), ValueError, "p_max must be >= 0, got -2"),
    (lambda: verify_macmahon_cubes(2.0), TypeError, "n_max must be an integer, got 2.0"),
    (lambda: verify_small_identities(n_max=False), TypeError,
     "n_max must be an integer, got False"),
])
def test_a_verifier_rejects_a_negative_or_non_integer_bound(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()


def test_a_verifier_called_without_its_bound_raises_as_a_plain_call_would():
    with pytest.raises(TypeError, match=re.escape(
            "verify_delannoy_square() missing 1 required positional argument: 'n_max'")):
        verify_delannoy_square()
    for verify, _, _ in SUITES.values():
        with pytest.raises(TypeError) as plain:
            verify.__wrapped__()  # the generator of checks, undecorated
        with pytest.raises(TypeError, match=f"^{re.escape(str(plain.value))}$"):
            verify()


def test_a_bound_of_another_integer_type_is_taken_as_an_int():
    # the congruence API's rule: whatever ``operator.index`` takes, a bool aside
    assert verify_macmahon_cubes(Index(3)) == verify_macmahon_cubes(3)
    assert verify_shift_step_base64(p_max=Index(4)) == verify_shift_step_base64(4)
    assert (run_identity_suite(grid_n=Index(3), grid_p=Index(2))
            == run_identity_suite(grid_n=3, grid_p=2))


def test_a_suite_named_twice_runs_once():
    recs = run_identity_suite(names=["macmahon_cubes", "delannoy_square", "macmahon_cubes"],
                              grid_n=4)
    assert [r.name for r in recs] == ["macmahon_cubes", "delannoy_square"]
