from fractions import Fraction
from math import comb

import pytest

from binomsums import identities
from binomsums._sweeps import SHIFT_FAMILIES
from binomsums.identities import (
    SUITES,
    PolynomialZ,
    _a_coeff,
    _b_coeff,
    _c_coeff,
    _d_coeff,
    _recursion_poly,
    cross_check_polynomials,
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


def test_polynomial_ops():
    x = PolynomialZ.x()
    p = (x + PolynomialZ.const(1)) * (x + PolynomialZ.const(2))
    assert p.coeffs == (2, 3, 1)
    assert (p - p).coeffs == () and (p - p).degree == -1
    assert (2 * x).coeffs == (0, 2)
    assert (x**5).coeffs == (0, 0, 0, 0, 0, 1)
    assert p.evaluate(3) == 20
    assert p.evaluate(Fraction(1, 2)) == Fraction(15, 4)
    assert PolynomialZ((1, 2, 0, 0)).coeffs == (1, 2)
    with pytest.raises(ValueError):
        x**-1


def test_delannoy_square_small():
    # n=1 by hand: f_1(x(x+1)) = 1+4x+4x^2 = (1+2x)^2
    rec = verify_delannoy_square(8)
    assert rec.status == "pass" and rec.witness is None and rec.checks == 9


def test_schroder_square_small():
    rec = verify_schroder_square(8)
    assert rec.status == "pass"
    # n=1 both sides are 2(x+1)^2
    x1 = PolynomialZ((1, 1))
    assert (2 * (x1 * x1)).coeffs == (2, 4, 2)


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


def test_cross_module_agreement():
    assert cross_check_polynomials(10)


# --- every suite can fail, and names the case that does ---------------------


def _comb_off_at(at):
    """math.comb, but one too large at the single argument pair ``at``."""
    return lambda n, k: comb(n, k) + ((n, k) == at)


def _off_at(name, at):
    """The identities function ``name``, but one too large at the arguments ``at``."""
    right = getattr(identities, name)
    return name, lambda *args: right(*args) + (args[: len(at)] == at)


def _negated(name):
    right = getattr(identities, name)
    return name, lambda *args: -right(*args)


def _family(base, offsets):
    return base, SHIFT_FAMILIES[base]._replace(offsets=offsets)


# (suite at its default bound, what is made wrong, witness, checks); checks is
# None where the failing check is a guard, which such a record may now count
_FAILURES = [
    ("delannoy_square", ("comb", _comb_off_at((4, 2))), (2,), 3),
    ("schroder_square", ("comb", _comb_off_at((4, 2))), (2,), 2),
    ("schroder_square_coeffs", ("comb", _comb_off_at((6, 3))), (3, 0, "b"), 24),
    ("schroder_square_coeffs", ("comb", _comb_off_at((4, 2))), (2, "anchor"), None),
    ("alternating_catalan_sum", ("comb", _comb_off_at((4, 2))), (3,), 3),
    ("central_sum_reflection", ("comb", _comb_off_at((4, 2))), (2,), 3),
    ("central_sum_reflection", ("comb", _comb_off_at((2, 1))), ("anchor",), None),
    ("weighted_central_square_sums", ("comb", _comb_off_at((4, 2))), (2, 0), 9),
    ("schroder_delannoy_product", ("comb", _comb_off_at((4, 2))), (1, "poly"), 1),
    ("schroder_delannoy_product", _off_at("_c_coeff", (1, 2)), (2, 1, "c-extraction"), 16),
    ("schroder_delannoy_product", _negated("_recursion_poly"), (1, 0, "c"), 6),
    ("schroder_delannoy_product", _off_at("_d_coeff", (2, 2)), (2, 0, "d"), 27),
    ("macmahon_cubes", ("comb", _comb_off_at((4, 2))), (3,), 4),
    ("shift_step_base64", _family(64, (1, 2)), (2, 0), 1),
    ("shift_step_threeproduct", _family(108, (1, 1)), (2, 0, "108"), 1),
    ("shift_step_threeproduct", _family(256, (1, 2)), (2, 0, "256"), 6),
    ("small_identities", ("comb", _comb_off_at((4, 2))), ("i", 2), None),
    ("small_identities", _off_at("delannoy_poly", (6,)), ("iii", 3), 206),
    ("small_identities", _off_at("schroder_poly", (4,)), ("iv", 4), 307),
]


@pytest.mark.parametrize(
    "name, wrong, witness, checks", _FAILURES,
    ids=[f"{f[0]}-{'-'.join(map(str, f[2]))}" for f in _FAILURES],
)
def test_a_wrong_input_fails_its_suite_and_names_the_case(monkeypatch, name, wrong, witness,
                                                         checks):
    key, value = wrong
    if isinstance(key, int):
        monkeypatch.setitem(SHIFT_FAMILIES, key, value)
    else:
        monkeypatch.setattr(identities, key, value)
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
    # the optional second bounds, and the empty and one-term ranges
    assert [(r.params, r.checks) for r in (
        verify_schroder_square_coefficients(4, m_max=3),
        verify_shift_step_base64(4, d_max=2),
        verify_shift_step_threeproduct(3, 1),
        verify_central_sum_reflection(0),
        verify_central_sum_reflection(1),
        verify_schroder_square(0),
        verify_small_identities(0),
    )] == [("n<=4", 32), ("P<=4", 9), ("P<=3", 12), ("n<=0", 1), ("n<=1", 2), ("n<=0", 0),
           ("k,n<=0", 3)]
    assert verify_shift_step_base64(p_max=4, d_max=2) == verify_shift_step_base64(4, 2)
    assert verify_delannoy_square(n_max=3) == verify_delannoy_square(3)
