"""Level steps, quatuor generation, sets, and serialization."""

import json
import random
from fractions import Fraction

import pytest

from kolberg import (
    QQ, QY, QYT,
    AdHocFunction, DomainError, InfertileError, PoleError, Quatuor,
    RatFunc, UniPoly, VerificationError,
    diese_generator, diese_quatuor, exceptional_set, g_coeffs,
    generate_range, h_coeffs, kolberg_h_closed, kolberg_quatuor,
    kolbergize, linear_combine, parse_qs, parse_qy, parse_qyt, pole_set,
    quatuor_from_json, quatuor_to_json, sharp_un_closed, shift,
    step_down, step_up, substitute_y, taylor_series,
)


def F(text: str) -> AdHocFunction:
    return AdHocFunction(parse_qyt(text))


def random_adhoc(rng: random.Random) -> AdHocFunction:
    while True:
        try:
            def qy_elem():
                num = UniPoly(QQ, "y", [Fraction(rng.randint(-6, 6))
                                        for _ in range(rng.randint(1, 3))])
                den = UniPoly(QQ, "y", [Fraction(rng.randint(-6, 6))
                                        for _ in range(rng.randint(1, 2))])
                return RatFunc(num, den)
            num = UniPoly(QY, "t", [qy_elem() for _ in range(rng.randint(1, 3))])
            den = UniPoly(QY, "t", [qy_elem() for _ in range(rng.randint(1, 2))])
            R = RatFunc(num, den)
            if R.is_zero:
                continue
            return AdHocFunction(R)
        except ZeroDivisionError:
            continue


class TestSteps:
    def test_step_down_formula(self):
        # (y R + t R')/(1 - t) for R = 1: gives y/(1-t)
        assert step_down(F("1")).R == parse_qyt("y/(1 - t)")

    def test_step_down_diese(self):
        got = step_down(diese_generator()).R
        expect = parse_qyt("(y + 2 + (y + 2)*t^2)/(1 - t)")
        assert got == expect

    def test_step_up_diese_coefficients(self):
        up = step_up(diese_generator()).R
        s0 = parse_qy("(y + 2)/y^2")
        s1 = parse_qy("-(y + 2)/(y*(y + 1))")
        s2 = parse_qy("1/(y + 2)")
        s3 = parse_qy("-1/(y + 3)")
        expect = (QYT.coerce(s0) + QYT.coerce(s1) * QYT.gen
                  + QYT.coerce(s2) * QYT.gen ** 2
                  + QYT.coerce(s3) * QYT.gen ** 3)
        assert up == expect

    def test_up_then_down_is_identity_when_fertile(self):
        rng = random.Random(21)
        fertile = 0
        for _ in range(25):
            R = random_adhoc(rng)
            try:
                up = step_up(R)
            except InfertileError:
                continue
            fertile += 1
            assert step_down(up).R == R.R
        assert fertile >= 5  # the s-coefficient ansatz usually succeeds

    def test_down_then_up_is_identity(self):
        # integrating a differentiated level always succeeds: the
        # original is a solution and the solution is unique
        rng = random.Random(22)
        for _ in range(25):
            R = random_adhoc(rng)
            assert step_up(step_down(R)).R == R.R

    def test_infertile_witness(self):
        with pytest.raises(InfertileError):
            step_up(F("1/(t - 2)"))

    def test_witness_is_lowest_unmatched_coefficient(self):
        # these systems leave two unmatched coefficients; the witness is
        # the lower one, as the row-echelon solve reported it
        cases = {
            "1/((t - 2)*(t - 3))": "(307/1296*y + 37/144)/(y^2 + 7*y + 12)",
            "t^2/(t - 3)^2": "(4/27*y + 10/27)/(y^2 + 11*y + 30)",
        }
        for text, residual in cases.items():
            with pytest.raises(InfertileError) as info:
                step_up(F(text))
            assert info.value.witness == (
                "the linear system for the up-step is inconsistent; "
                "unmatched right-hand side " + residual)


class TestGeneration:
    def test_fertile_report(self):
        q, report = generate_range(diese_generator(), 0, -2, 3)
        assert report.fertile
        assert (q.k_min, q.k_max) == (-2, 3)

    def test_infertile_report_names_level(self):
        q, report = generate_range("1/(t-2)", 0, 0, 1)
        assert not report.fertile
        assert report.failure_level == 1
        assert report.achieved == (0, 0)
        assert "inconsistent" in report.failure_witness

    def test_level_access(self):
        q = diese_quatuor(-1, 1)
        assert q.level(0).R == diese_generator().R
        with pytest.raises(KeyError):
            q.level(5)

    def test_neighbor_relation_enforced(self):
        good = diese_quatuor(-1, 0)
        with pytest.raises(VerificationError):
            Quatuor(good.k_min, (good.functions[0], F("t")), 0)

    def test_shift(self):
        q = diese_quatuor(-1, 1)
        s = shift(q, 2)  # level k of s = level k+2 of q
        assert s.k_min == -3
        assert s.level(-2).R == q.level(0).R

    def test_linear_combine(self):
        q = diese_quatuor(-1, 1)
        s = shift(q, 1)
        combo = linear_combine([(Fraction(2), q), (Fraction(-1), s)])
        assert combo.k_min == max(q.k_min, s.k_min)
        k = combo.k_min
        assert combo.level(k).R == 2 * q.level(k).R - s.level(k).R

    def test_combine_empty_range(self):
        q = diese_quatuor(-1, 1)
        with pytest.raises(DomainError):
            linear_combine([(1, q), (1, shift(q, 5))])


class TestCoefficients:
    def test_taylor_series_geometric(self):
        # 1/(1-t) has all coefficients 1; with mu=0 nothing changes
        R = substitute_y(parse_qyt("1/(1 - t)"), Fraction(1))
        assert taylor_series(R, 6, Fraction(0)) == [Fraction(1)] * 7

    def test_taylor_series_pole_at_zero(self):
        R = substitute_y(parse_qyt("1/t"), Fraction(1))
        with pytest.raises(PoleError):
            taylor_series(R, 3, Fraction(0))

    def test_negative_order(self):
        R = substitute_y(parse_qyt("1/(1 - t)"), Fraction(1))
        with pytest.raises(ValueError, match="must be nonnegative"):
            taylor_series(R, -1, Fraction(0))
        for coeffs in (g_coeffs, h_coeffs):
            with pytest.raises(ValueError, match="must be nonnegative"):
                coeffs(diese_generator(), -1)

    def test_g_coeffs_diese_closed_form(self):
        # v_n = (y^2 + 2y + n(n-1)) y^(n-2)
        v = g_coeffs(diese_generator(), 8)
        y = parse_qy("y")
        for n in range(9):
            expect = (y * y + 2 * y + n * (n - 1)) * y ** (n - 2)
            assert v.values[n] == expect, n

    def test_h_coeffs_diese_closed_form(self):
        u = h_coeffs(diese_generator(), 10)
        for n in range(11):
            assert u.values[n] == QY.coerce(sharp_un_closed(n)), n

    def test_factored_u4_and_u7_rows(self):
        u = h_coeffs(diese_generator(), 7)
        assert u.values[4] == parse_qy("(y+2)*(y^2 + 8*y + 28)*(y+4)")
        assert u.values[7] == parse_qy("(y+2)*(y^2 + 14*y + 91)*(y+7)^4")

    def test_kolberg_closed_form(self):
        q = kolberg_quatuor(-2, 2)
        for k in range(-2, 3):
            u = h_coeffs(q.level(k), 6)
            for n in range(7):
                assert u.values[n] == QY.coerce(kolberg_h_closed(k, n)), (k, n)

    def test_level_relation(self):
        # u^(k)_n = (y+n) u^(k+1)_n
        q = diese_quatuor(-2, 2)
        y = parse_qy("y")
        for k in range(-2, 2):
            lo = h_coeffs(q.level(k), 8)
            hi = h_coeffs(q.level(k + 1), 8)
            for n in range(9):
                assert lo.values[n] == (y + n) * hi.values[n], (k, n)


class TestSets:
    def test_pole_set_diese(self):
        q = diese_quatuor(-2, 3)
        ps = pole_set(q, [0, 1])
        assert ps.rational_poles == frozenset(
            {Fraction(0), Fraction(-1), Fraction(-2), Fraction(-3)})

    def test_pole_set_polynomial_level(self):
        q = diese_quatuor(-2, 0)
        assert pole_set(q, [-1]).rational_poles == frozenset()

    def test_exceptional_triple(self):
        assert exceptional_set(parse_qs("s^3")) == {-3}
        assert exceptional_set(parse_qs("1 + s")) == set()
        assert exceptional_set(parse_qs("7")) == {0}

    def test_exceptional_monomial_quotient(self):
        assert exceptional_set(parse_qs("2/s^2")) == {2}

    def test_kolbergize_single_level(self):
        q = diese_quatuor(-2, 3)
        res = kolbergize(q, {1: Fraction(1)}, Fraction(1, 2))
        # R_1 at y = 1/2 stays a rational function of t; exponent is r
        assert res.exponent == Fraction(1, 2)
        assert res.g == substitute_y(q.level(1).R, Fraction(1, 2))

    def test_kolbergize_pole_rejected(self):
        q = diese_quatuor(-2, 3)
        with pytest.raises(PoleError):
            kolbergize(q, {1: Fraction(1)}, Fraction(0))

    def test_kolbergize_combination(self):
        q = kolberg_quatuor(-2, 2)
        res = kolbergize(q, {0: Fraction(1), 1: Fraction(-1)}, Fraction(1, 2))
        expect = substitute_y(q.level(0).R, Fraction(1, 2)) \
            - substitute_y(q.level(1).R, Fraction(1, 2))
        assert res.g == expect


class TestJson:
    def test_roundtrip(self):
        q = diese_quatuor(-2, 3)
        assert quatuor_from_json(quatuor_to_json(q)) == q

    def test_tamper_generator(self):
        q = diese_quatuor(-1, 1)
        obj = json.loads(quatuor_to_json(q))
        obj["levels"]["0"] = "1 + 2/y + t^3"
        with pytest.raises(VerificationError):
            quatuor_from_json(json.dumps(obj))

    def test_tamper_non_generator_level(self):
        q = diese_quatuor(-1, 1)
        obj = json.loads(quatuor_to_json(q))
        obj["levels"]["-1"] = "t + y"
        with pytest.raises(VerificationError) as err:
            quatuor_from_json(json.dumps(obj))
        assert "neighbor relation" in str(err.value)

    def test_gap_in_levels(self):
        q = diese_quatuor(-1, 1)
        obj = json.loads(quatuor_to_json(q))
        del obj["levels"]["0"]
        with pytest.raises(VerificationError):
            quatuor_from_json(json.dumps(obj))

    def test_generator_level_out_of_range(self):
        q = diese_quatuor(0, 1)
        obj = json.loads(quatuor_to_json(q))
        obj["generator_level"] = 9
        with pytest.raises(VerificationError):
            quatuor_from_json(json.dumps(obj))
