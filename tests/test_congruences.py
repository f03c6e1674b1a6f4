"""Congruence registry checks against independent brute-force evaluation.

Every row family is recomputed here from literal binomial sums (exact
Fraction arithmetic, math.comb), then compared with the engine's residues.
The batched suite path is additionally pinned against the reference path.
"""

import multiprocessing
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from binomsums import _sweeps, congruences
from binomsums.arith import legendre_symbol, mod_inverse, primes_in_range
from binomsums.congruences import (
    CongruenceReport,
    PrimeContext,
    _reference_shift_sum,
    _REGISTRY,
    _ROW_INDEX,
    all_ids,
    check,
    default_ids,
    iter_suite,
    registry,
    run_suite,
)


def fm(fr, m):
    """A rational with p-coprime denominator reduced mod m."""
    fr = Fraction(fr)
    return fr.numerator * mod_inverse(fr.denominator % m, m) % m


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def assert_row(id_, p, param, brute, mod):
    r = check(id_, p, param)
    assert r.modulus == mod
    assert r.status in ("pass", "experimental-pass"), (id_, p, param, r)
    assert r.lhs == fm(brute, mod), (id_, p, param)


def test_cubed_central_sum_rows():
    for p in (5, 11, 13, 29):
        s = sum(Fraction(comb(2 * k, k) ** 3) for k in range(p))
        assert_row("C1_1", p, None, s, p * p)
    for p in (5, 7, 11, 13, 17):
        s = sum(Fraction(comb(2 * k, k) ** 3, (-8) ** k) for k in range(p))
        assert_row("C3_5", p, None, s, p * p)
    for p in (5, 7, 11, 13):
        s = sum(Fraction((3 * k + 1) * comb(2 * k, k) ** 3, (-8) ** k) for k in range(p))
        assert_row("CGZ", p, None, s, p**3)
        assert_row("CGZ_P4", p, None, s, p**4)


def test_transformation_row_both_sides():
    for p in (5, 7, 11, 13, 23):
        for x in (1, 2, 3, -2):
            r = check("C4_1", p, x)
            lhs = sum(Fraction(comb(2 * k, k) ** 3 * (-x) ** k, 64**k) for k in range(p))
            rhs = legendre_symbol(x + 1, p) * sum(
                Fraction(comb(2 * k, k) ** 2 * comb(4 * k, 2 * k))
                * Fraction(x, 64 * (x + 1) ** 2) ** k
                for k in range(p)
            )
            assert r.status == "pass"
            assert r.lhs == fm(lhs, p) and r.rhs == fm(rhs, p)


def test_half_range_weighted_rows():
    for p in (5, 13, 17, 29):
        n = (p - 1) // 2
        c2 = lambda k: comb(2 * k, k) ** 2
        assert_row("C1_7a", p, None,
                   sum(Fraction((k + 1) * c2(k), 8**k) for k in range(n + 1)), p * p)
        assert_row("C1_7b", p, None,
                   sum(Fraction((2 * k + 1) * c2(k), (-16) ** k) for k in range(n + 1)), p * p)
        assert_row("C1_8", p, None,
                   sum(Fraction(comb(2 * k, k) * catalan(k), 8**k) for k in range(n + 1)), p * p)
        assert_row("C1_10", p, None,
                   sum(Fraction(k * k * c2(k), 8**k) for k in range(n + 1)), p * p)
        assert_row("C1_11", p, None,
                   sum(Fraction(k * k * c2(k), (-16) ** k) for k in range(n + 1)), p * p)
        assert_row("C3_3", p, None,
                   sum(Fraction(c2(k), 8**k) for k in range(n + 1)), p * p)
        assert check("C1_9", p).status == "pass"


def test_anchor_values_at_smallest_prime():
    # mod 25 residues recomputed by hand from the defining sums
    assert check("C1_7a", 5).lhs == 24
    assert check("C1_12", 5).lhs == 8
    assert check("C1_13", 5).lhs == 15
    assert check("C1_8", 5).lhs == 3
    assert check("C1_8", 5).rhs == 3


def test_shifted_family_rows_bruteforce():
    terms = {
        "C1_5": (64, lambda k, d: comb(2 * k, k) ** 2 * comb(2 * k, k + d)),
        "C1_19": (108, lambda k, d: comb(2 * k, k) * comb(3 * k, k) * comb(2 * k, k + d)),
        "C1_20": (256, lambda k, d: comb(2 * k, k) * comb(4 * k, 2 * k) * comb(2 * k, k + d)),
        "C1_21": (1728, lambda k, d: comb(3 * k, k) * comb(6 * k, 3 * k) * comb(2 * k, k + d)),
    }
    parity = {
        "C1_5": lambda p: (p + 1) // 2,
        "C1_19": lambda p: (1 + legendre_symbol(p, 3)) // 2,
        "C1_20": lambda p: (1 + legendre_symbol(-2, p)) // 2,
        "C1_21": lambda p: (1 + legendre_symbol(-1, p)) // 2,
    }
    for p in (11, 13):
        for id_, (base, term) in terms.items():
            for d in range(parity[id_](p) % 2, p, 2):
                s = sum(Fraction(term(k, d), base**k) for k in range(p))
                assert_row(id_, p, d, s, p * p)


def test_fixed_shift_rows_bruteforce():
    c2 = lambda k: comb(2 * k, k)
    for p in (7, 11, 19):
        assert_row("C1_6", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(2 * k, k + 1), 64**k) for k in range(p)), p * p)
    for p in (5, 13, 17):
        assert_row("C1_12", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(2 * k, k + 1), (-8) ** k) for k in range(p)), p * p)
        assert_row("C1_13", p, None,
                   sum(Fraction(c2(k) * comb(2 * k, k + 1) ** 2, (-8) ** k) for k in range(p)), p * p)
    for p in (5, 7, 11, 13):
        assert_row("C1_14b", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(3 * k, k), 108**k) for k in range(p)), p * p)
        assert_row("C1_14c", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(4 * k, 2 * k), 256**k) for k in range(p)), p * p)
        assert_row("C1_15", p, None,
                   sum(Fraction(c2(k) * comb(3 * k, k) * comb(6 * k, 3 * k), 1728**k) for k in range(p)), p * p)
    for p in (11, 19, 43):
        assert_row("C1_22", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(4 * k, 2 * k), 256**k) for k in range(p)), p * p)
    for p in (5, 17, 29):
        assert_row("C1_23", p, None,
                   sum(Fraction(c2(k) * comb(3 * k, k) * comb(6 * k, 3 * k), 1728**k) for k in range(p)), p * p)
    for p in (7, 13, 31):
        assert_row("C1_24", p, None,
                   sum(Fraction(c2(k) ** 2 * comb(3 * k, k + 1), 108**k) for k in range(p)), p * p)
    for p in (11, 17, 41):
        assert_row("C1_25", p, None,
                   sum(Fraction(c2(k) * comb(4 * k, 2 * k) * comb(2 * k, k + 1), 256**k) for k in range(p)), p * p)
    for p in (5, 13, 29):
        assert_row("C1_26", p, None,
                   sum(Fraction(comb(3 * k, k) * comb(6 * k, 3 * k) * comb(2 * k, k + 1), 1728**k) for k in range(p)), p * p)


def test_double_sum_rows_bruteforce():
    for p in (5, 7, 11):
        inner = lambda m: sum(
            comb(2 * k, k) ** 2 * comb(2 * (m - k), m - k) ** 2 for k in range(m + 1)
        )
        s1 = sum(Fraction((m + 1) * inner(m), 8**m) for m in range(p))
        s2 = sum(Fraction((2 * m + 1) * inner(m), (-16) ** m) for m in range(p))
        assert_row("CL3_2", p, 1, s1, p**3)
        assert_row("CL3_2", p, 2, s2, p**3)
    for p in (5, 7, 11, 13):
        n = (p - 1) // 2
        c2 = lambda k: comb(2 * k, k) ** 2
        p1 = 2 * sum(Fraction(k * c2(k), 8**k) for k in range(n + 1)) + sum(
            Fraction(comb(2 * k, k) * catalan(k), 8**k) for k in range(n + 1))
        p2 = 8 * sum(Fraction(k * c2(k), (-16) ** k) for k in range(n + 1)) + sum(
            Fraction(comb(2 * k, k) * catalan(k), (-16) ** k) for k in range(n + 1))
        p3 = sum(Fraction((2 * k * k + 4 * k + 1) * c2(k), 8**k) for k in range(n + 1))
        p4 = sum(Fraction((8 * k * k + 4 * k + 1) * c2(k), (-16) ** k) for k in range(n + 1))
        for part, s in ((1, p1), (2, p2), (3, p3), (4, p4)):
            assert_row("CL3_3", p, part, s, p**3)
    # the two weighted forms at p = 5 collapse to 3 p^2 and 2 p^2 mod p^3
    assert check("CL3_3", 5, 1).lhs == 75
    assert check("CL3_3", 5, 2).lhs == 50


def test_double_sum_prefix_rewrite_bruteforce():
    # CL3_2 reads the double sum as sum_i b_i (2si+1) B(p-1-i); pin its lhs to
    # the literal double sum over i + j < p at every modulus exponent 1..4
    for p in primes_in_range(5, 59):
        c2 = [comb(2 * k, k) ** 2 for k in range(p)]
        for part, base, s in ((1, 8, 1), (2, -16, 2)):
            total = sum(
                Fraction((s * (i + j) + 1) * c2[i] * c2[j], base ** (i + j))
                for i in range(p) for j in range(p - i)
            )
            for kexp in (1, 2, 3, 4):
                r = check("CL3_2", p, part, mod_exp=kexp)
                assert r.lhs == fm(total, p**kexp), (p, part, kexp)


def test_combined_experimental_row():
    for p in (5, 13, 7, 11):
        n = (p - 1) // 2
        s = sum(Fraction((k + 1) * comb(2 * k, k) ** 2, 8**k) for k in range(p)) + sum(
            Fraction((2 * k + 1) * comb(2 * k, k) ** 2, (-16) ** k) for k in range(n + 1)
        )
        mod = p**3 if p % 4 == 1 else p * p
        r = check("CR1_1", p)
        assert r.modulus == mod
        assert r.status == "experimental-pass"
        assert r.lhs == fm(s, mod)


def test_euler_correction_term():
    # p = 5: rhs = 5*(-1|5) + 125*(E_2 mod 5) = 5 + 125*4 = 505 mod 625
    r = check("CGZ_P4", 5)
    assert r.rhs == 505
    assert r.status == "experimental-pass"


def test_binomial_value_rows():
    for p in (13, 17):
        n = (p - 1) // 2
        for k in range(n + 1):
            assert_row("C1_2", p, k, Fraction(comb(n + k, 2 * k)), p * p)
    for p in (5, 13, 17, 29):
        assert_row("C3_2", p, None, Fraction(comb((p - 1) // 2, (p - 1) // 4)), p * p)
        assert_row("CG", p, None, Fraction(comb((p - 1) // 2, (p - 1) // 4)), p)
    assert check("CG", 13).lhs == 7  # x normalized to -3 for 13 = 9 + 4
    assert check("CM", 17).lhs == 2
    for p in (5, 17, 29, 41):
        assert_row("CM", p, None, Fraction(comb((p - 1) // 2, (p - 1) // 4)), p)
    for p in (5, 7, 11, 13, 17, 19):
        n = (p - 1) // 2
        s = legendre_symbol(-1, p) * sum(
            comb(n, k) ** 2 * comb(n + k, k) * (-1) ** k for k in range(n + 1)
        )
        assert_row("C_AHL", p, None, Fraction(s), p)


def test_delannoy_rows():
    for p in (5, 13, 17, 29):
        assert check("C3_4", p).status == "pass"
    for p in (7, 11, 19, 23):
        r = check("CR3_1", p)
        assert r.status == "pass" and r.modulus == p
    # cross-check: sum of C(2k,k)^3/(-8)^k matches the square of the central
    # Delannoy number at (p-1)/2 mod p^2
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        ctx = PrimeContext(p)
        dn = ctx.delannoy_menu(2)["Dn"]
        assert ctx.central_cube_menu(-8, 2)["A3"] == dn * dn % (p * p)


def test_suite_matches_reference_path():
    reports = run_suite([29, 31, 37, 41, 43], all_ids())
    assert reports and all(
        r.status in ("pass", "experimental-pass", "skipped") for r in reports
    )
    for r in reports:
        if r.status == "skipped":
            continue
        param = int(r.params.split("=")[1]) if r.params else None
        ref = check(r.id, r.p, param)
        assert (ref.lhs, ref.rhs, ref.status, ref.modulus) == (
            r.lhs, r.rhs, r.status, r.modulus,
        ), (r.id, r.p, r.params)


def test_sweep_matches_reference_all_shifts():
    # every residue class mod 24 and every reseed point of the step relations
    for p in primes_in_range(5, 99):
        for kexp in (1, 2, 3, 4):
            ctx = PrimeContext(p)
            tables = ctx.sweep((64, 108, 256, 1728), kexp)
            for base in (64, 108, 256, 1728):
                for d in range(p):
                    assert tables[base][d] == _reference_shift_sum(ctx, kexp, base, d), (
                        p, kexp, base, d,
                    )


def test_shift_engine_spot_check_catches_bad_seed(monkeypatch):
    direct = _sweeps.direct_shift_sum
    bad = {"seed": 0}

    def corrupt_seed(p, weights, d, tables):
        s = direct(p, weights, d, tables)
        return (s + 1) % tables.pk if d == bad["seed"] else s

    monkeypatch.setattr(_sweeps, "direct_shift_sum", corrupt_seed)
    # the even chain from S(0) reaches S((p-1)/2) = S(6) before any reseed
    with pytest.raises(ArithmeticError, match=r"p=13, base=64, d=6, K=2"):
        PrimeContext(13).sweep((64,), 2)
    # a wrong S(0) or S(1) is caught whether its chain is re-summed at a
    # reseed, or multiplied by a coefficient c(x) divisible by p, first
    for seed in (0, 1):
        bad["seed"] = seed
        for p in (13, 17, 29, 31, 37):
            for kexp in (1, 2, 3):
                for base in (64, 108, 256, 1728):
                    with pytest.raises(
                        ArithmeticError, match=rf"p={p}, base={base}, d=\d+, K={kexp}"
                    ):
                        PrimeContext(p).sweep((base,), kexp)


def test_tail_invariants_raise_with_stream_p_and_k(monkeypatch):
    # a C(2k,k) table whose every entry is a unit breaks v_p(C(2k,k)^2) >= 2
    # at the first tail index k = (p+1)/2 in every stream built on it
    def unit_central(self, kexp):
        return [0] * self.p, [1] * self.p

    monkeypatch.setattr(PrimeContext, "central", unit_central)
    p = 13
    cases = [
        ("central_square_menu", lambda c: c.central_square_menu(8, 2, full=True)),
        ("central_cube_menu", lambda c: c.central_cube_menu(-8, 2)),
        ("_reference_shift_sum", lambda c: _reference_shift_sum(c, 2, 64, 1)),
        ("_sum_square_shift1", lambda c: check("C1_12", p)),
        ("C1_24", lambda c: check("C1_24", p)),
    ]
    for stream, call in cases:
        with pytest.raises(ArithmeticError, match=rf"{stream}.*p={p}, k=7"):
            call(PrimeContext(p))


def test_tail_invariants_survive_optimize_flag():
    code = (
        "from binomsums.congruences import PrimeContext\n"
        "PrimeContext.central = lambda self, K: ([0] * self.p, [1] * self.p)\n"
        "try:\n"
        "    PrimeContext(13).central_cube_menu(-8, 2)\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "central_cube_menu" in r.stdout and "p=13, k=7" in r.stdout


def test_import_does_not_load_numpy():
    code = "import sys, binomsums, binomsums.cli; print('numpy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_parallel_matches_serial():
    ps = primes_in_range(5, 60)
    ids = ["C1_5", "C1_7a", "CL3_3", "CGZ", "C4_1", "CM"]
    serial = run_suite(ps, ids)
    parallel = run_suite(ps, ids, jobs=3)
    assert serial == parallel


def test_iter_suite_streams_one_prime_at_a_time(monkeypatch):
    calls = []
    inner = congruences._suite_for_prime

    def counting(p, *args):
        calls.append(p)
        return inner(p, *args)

    monkeypatch.setattr(congruences, "_suite_for_prime", counting)
    stream = iter_suite(primes_in_range(5, 60), ["C1_5", "CGZ"])
    assert calls == []
    first = next(stream)
    assert calls == [5] and first.p == 5
    rest = list(stream)
    assert calls == primes_in_range(5, 60) and len(rest) > 1


def test_run_suite_is_the_listed_stream():
    ps = primes_in_range(5, 60)
    ids = ["C1_5", "C1_7a", "CL3_2", "CGZ", "C4_1"]
    serial = run_suite(ps, ids)
    assert serial == list(iter_suite(ps, ids))
    assert run_suite(ps, ids, jobs=2) == list(iter_suite(ps, ids, jobs=2)) == serial


def test_iter_suite_rejects_bad_arguments_at_the_call():
    for kwargs in ({"ids": ["nope"]}, {"jobs": 0}, {"mod_exp": {"CGZ": 0}},
                   {"mod_exp": {"nope": 2}}):
        with pytest.raises(ValueError):
            iter_suite([13], **kwargs)  # raised before any next()


@pytest.mark.parametrize("jobs", [1, 2])
def test_row_errors_name_their_row_and_prime(monkeypatch, jobs):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched row only when forked")

    def broken(ctx, kexp, _):
        if ctx.p == 17:
            raise ZeroDivisionError("broken row")
        return (0,), 0

    monkeypatch.setitem(congruences._EVAL, "CGZ", broken)
    stream = iter_suite(primes_in_range(5, 30), ["C1_7a", "CGZ"], jobs=jobs)
    seen = []
    with pytest.raises(ZeroDivisionError, match=r"^broken row \(row=CGZ, p=17\)$") as err:
        for r in stream:
            seen.append(r.p)
    assert seen == [5, 5, 7, 7, 11, 11, 13, 13]  # the primes before the defect
    if jobs == 1:
        assert isinstance(err.value.__cause__, ZeroDivisionError)
        assert str(err.value.__cause__) == "broken row"


def test_shift_engine_errors_name_their_row(monkeypatch):
    direct = _sweeps.direct_shift_sum

    def corrupt_seed(p, weights, d, tables):
        s = direct(p, weights, d, tables)
        return (s + 1) % tables.pk if d == 0 else s

    monkeypatch.setattr(_sweeps, "direct_shift_sum", corrupt_seed)
    with pytest.raises(ArithmeticError, match=r"p=13, base=64, d=6, K=2.*\(row=C1_5, p=13\)"):
        run_suite([13], ["C1_5"])


def test_report_is_an_immutable_named_tuple():
    r = check("CGZ", 13)
    assert isinstance(r, tuple) and CongruenceReport._fields == (
        "id", "p", "params", "modulus", "lhs", "rhs", "status", "micros")
    assert repr(r) == (
        "CongruenceReport(id='CGZ', p=13, params='', modulus=2197, "
        f"lhs={r.lhs}, rhs={r.rhs}, status='pass', micros=0)"
    )
    assert hash(r) == hash(check("CGZ", 13)) and not r.failed
    with pytest.raises(AttributeError):
        r.status = "fail"
    assert r._replace(status="fail").failed


def test_report_order_is_prime_then_registry_then_param():
    reports = run_suite([13, 11], ["C3_5", "C1_5", "C1_1"])
    assert [r.p for r in reports] == sorted(r.p for r in reports)
    for a, b in zip(reports, reports[1:]):
        if a.p == b.p:
            assert _ROW_INDEX[a.id] <= _ROW_INDEX[b.id]


def test_skip_semantics():
    assert check("C1_6", 13).status == "skipped"  # needs p = 3 (mod 4)
    assert check("CM", 13).status == "skipped"  # needs p = 5 (mod 12)
    assert check("C1_5", 13, 0).status == "skipped"  # wrong shift parity
    assert check("C1_1", 7).status == "skipped"
    r = check("CR3_1", 13)
    assert r.status == "skipped" and r.lhs is None and r.rhs is None
    # skipped rows appear in suite output too
    reports = run_suite([13], ["CR3_1"])
    assert len(reports) == 1 and reports[0].status == "skipped"


def test_status_classification():
    assert check("C1_1", 11).status == "experimental-pass"  # 11 is a square mod 7
    assert check("C1_1", 5).status == "pass"  # 5 is not, proven zero case
    assert check("CGZ", 11).status == "pass"
    assert check("CGZ_P4", 11).status == "experimental-pass"
    assert "CR1_1" not in default_ids()
    assert "CGZ_P4" not in default_ids()
    assert default_ids() == [r.id for r in registry() if not r.experimental]


def test_input_validation():
    with pytest.raises(ValueError):
        check("nope", 13)
    with pytest.raises(ValueError):
        check("C1_5", 12, 0)
    with pytest.raises(ValueError):
        check("C1_5", 3, 0)
    with pytest.raises(ValueError):
        check("C1_5", 13)  # missing shift parameter
    with pytest.raises(ValueError):
        check("CGZ", 13, 1)  # parameterless row
    with pytest.raises(ValueError):
        run_suite([13], ["nope"])
    with pytest.raises(ValueError):
        run_suite([13], jobs=0)
    assert run_suite([9, 25, 4]) == []  # composites are dropped


def test_mod_exp_override():
    r = check("CGZ", 13, mod_exp=2)
    assert r.modulus == 169 and r.status == "pass"
    rs = run_suite([13], ["CGZ"], mod_exp={"CGZ": 1})
    assert rs[0].modulus == 13 and rs[0].status == "pass"
    with pytest.raises(ValueError):
        run_suite([13], ["CGZ"], mod_exp={"CGZ": 0})
    with pytest.raises(ValueError):
        run_suite([13], mod_exp={"nope": 2})


def test_large_shift_sums_vanish_termwise():
    # for d >= (p+1)/2 every term of the 64-family sum is divisible by p^2:
    # either the shifted binomial vanishes (k < d) or the squared central
    # binomial contributes valuation two (k >= d > (p-1)/2)
    p = 13
    for d in range(7, p, 2):
        for k in range(p):
            t = comb(2 * k, k) ** 2 * comb(2 * k, k + d)
            assert t * pow(mod_inverse(64, p * p), k, p * p) % (p * p) == 0
        assert check("C1_5", p, d).lhs == 0


def test_timings_flag():
    quiet = run_suite([13], ["CGZ"])
    assert quiet[0].micros == 0
    timed = run_suite([13], ["CGZ"], timings=True)
    assert timed[0].micros >= 0  # may round to zero for tiny rows
    assert quiet[0].lhs == timed[0].lhs
