from math import comb

import pytest

from binomsums import qseries
from binomsums.arith import primes_in_range
from binomsums.qseries import (
    ETA_PRODUCTS,
    EtaProductSpec,
    coefficient_closed_form,
    coefficient_table,
    eta_quotient,
)
from oracles import TruncatedSeries


def naive_product_coeffs(spec: EtaProductSpec, order: int) -> list[int]:
    # oracle: same product expanded with full series multiplications only
    acc = TruncatedSeries.one(order)
    for m, r in spec.factors:
        assert r > 0
        for n in range(1, order // m + 1):
            fac = TruncatedSeries.from_coeffs([1] + [0] * (m * n - 1) + [-1], order)
            for _ in range(r):
                acc = acc * fac
    return list(acc.shift(spec.leading_power).coeffs)


def test_leading_powers():
    assert [ETA_PRODUCTS[k].leading_power for k in "abc"] == [1, 1, 1]


def test_spec_validation():
    with pytest.raises(ValueError):
        EtaProductSpec("x", ((4, 5),))  # 20 not a multiple of 24
    with pytest.raises(ValueError):
        EtaProductSpec("x", ((1, -24),))  # negative leading power
    with pytest.raises(ValueError):
        EtaProductSpec("x", ((0, 24), (24, 1)))


def test_quotient_matches_naive_oracle():
    for name, spec in ETA_PRODUCTS.items():
        assert eta_quotient(spec, 120) == naive_product_coeffs(spec, 120), name


def test_table_anchors():
    a = coefficient_table("a", 30)
    assert a[0] == 0 and a[1] == 1
    assert (a[5], a[9], a[13], a[17], a[25]) == (-6, 9, 10, -30, 11)
    assert all(a[n] == 0 for n in range(30) if n % 4 != 1)

    b = coefficient_table("b", 15)
    assert b[1] == 1 and (b[3], b[7], b[13]) == (-3, 2, -22)
    assert all(b[n] == 0 for n in range(0, 15, 2))

    c = coefficient_table("c", 12)
    assert (c[1], c[2], c[3], c[4], c[9]) == (1, -2, -2, 4, -5)


def test_closed_form_examples():
    assert coefficient_closed_form("a", 5) == -6
    assert coefficient_closed_form("a", 7) == 0
    assert coefficient_closed_form("b", 7) == 2
    assert coefficient_closed_form("b", 5) == 0
    assert coefficient_closed_form("c", 3) == -2
    assert coefficient_closed_form("c", 5) == 0
    assert coefficient_closed_form("a", 2) is None
    assert coefficient_closed_form("b", 3) is None
    assert coefficient_closed_form("c", 2) is None
    with pytest.raises(ValueError):
        coefficient_closed_form("a", 15)
    with pytest.raises(ValueError):
        coefficient_closed_form("d", 5)


@pytest.fixture(scope="module")
def tables():
    """The three products to q^19999, one pass of each."""
    return {name: coefficient_table(name, 19999) for name in "abc"}


def _disagreements(tables):
    """The (name, p), p < 20000, where the closed form is defined and is not the coefficient."""
    return [(name, p) for p in primes_in_range(2, 19999) for name in "abc"
            if (cf := coefficient_closed_form(name, p)) is not None and tables[name][p] != cf]


def test_closed_form_matches_table(tables):
    # the eta rows' right side 4x^2 - 2p, before any reduction, at every prime below 20000
    assert _disagreements(tables) == []


def test_a_bent_representation_fails_at_its_prime(monkeypatch, tables):
    # 19993 = 1 (mod 24) is x^2 + d y^2 for d = 1, 2 and 3
    right = qseries.represent

    def bent(p, d):
        rep = right(p, d)
        return rep._replace(x=rep.x + 1) if p == 19993 else rep

    monkeypatch.setattr(qseries, "represent", bent)
    assert _disagreements(tables) == [("a", 19993), ("b", 19993), ("c", 19993)]


def test_series_ops():
    s = TruncatedSeries.from_coeffs([1, 2, 3], 4)
    t = TruncatedSeries.from_coeffs([0, 1], 4)
    assert (s + t).coeffs == (1, 3, 3, 0, 0)
    assert (s - t).coeffs == (1, 1, 3, 0, 0)
    assert (s * t).coeffs == (0, 1, 2, 3, 0)
    assert s.shift(2).coeffs == (0, 0, 1, 2, 3)
    assert s.coefficient(1) == 2
    with pytest.raises(IndexError):
        s.coefficient(5)
    with pytest.raises(ValueError):
        s + TruncatedSeries.one(3)
    with pytest.raises(ValueError):
        s.shift(-1)


def test_quotient_negative_exponent_path():
    # q prod (1-q^2n)^24 / prod(1-q^n)^24  times  prod(1-q^n)^24
    # equals q prod (1-q^2n)^24
    order = 60
    quo = eta_quotient(EtaProductSpec("q", ((2, 24), (1, -24))), order)
    p24 = TruncatedSeries.one(order)
    for n in range(1, order + 1):
        fac = TruncatedSeries.from_coeffs([1] + [0] * (n - 1) + [-1], order)
        for _ in range(24):
            p24 = p24 * fac
    prod = [0] * (order + 1)
    for i, x in enumerate(quo):
        for j, y in enumerate(p24.coeffs[: order + 1 - i]):
            prod[i + j] += x * y
    full = eta_quotient(EtaProductSpec("f", ((2, 24),)), order + 1)
    assert prod == full[1:]


def test_quotient_rejects_bad_order():
    with pytest.raises(ValueError):
        eta_quotient(ETA_PRODUCTS["a"], -1)
    with pytest.raises(ValueError):
        coefficient_table("z", 10)
