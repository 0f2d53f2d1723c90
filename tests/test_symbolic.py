"""Exact arithmetic in Q, Q(y) and Q(y)(t)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kolberg import (
    QQ, QT, QY, QYT,
    DomainError, PoleError, RatFunc, UniPoly,
    parse_qt, parse_qy, parse_qyt,
    poly_gcd, print_canonical, rational_roots, substitute_y,
)
from kolberg import rational


def P(coeffs, field=QQ, var="t"):
    return UniPoly(field, var, [Fraction(c) for c in coeffs])


class TestUniPoly:
    def test_trailing_zeros_stripped(self):
        assert P([1, 2, 0, 0]).coeffs == (1, 2)
        assert P([0]).is_zero
        assert P([0]).degree == -1

    def test_immutable(self):
        p = P([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_product(self):
        assert P([1, 1]) * P([-1, 1]) == P([-1, 0, 1])

    def test_divmod(self):
        a = P([-1, 0, 0, 1])          # t^3 - 1
        b = P([-1, 1])                # t - 1
        q, r = divmod(a, b)
        assert r.is_zero
        assert q == P([1, 1, 1])

    def test_eval_matches_expansion(self):
        p = P([3, -2, 5])
        x = Fraction(7, 3)
        assert p.eval(x) == 3 - 2 * x + 5 * x * x

    def test_diff_product_rule(self):
        a, b = P([1, 2, 3]), P([-4, 0, 1, 2])
        assert (a * b).diff() == a.diff() * b + a * b.diff()

    def test_pow(self):
        assert P([1, 1]) ** 3 == P([1, 3, 3, 1])
        assert P([2]) ** 0 == P([1])

    def test_gcd_monic_and_divides(self):
        common = P([-1, 0, 1])
        a = common * P([2, 1])
        b = common * P([-3, 0, 0, 1])
        g = poly_gcd(a, b)
        assert g == common  # already monic
        assert divmod(a, g)[1].is_zero and divmod(b, g)[1].is_zero


class TestRatFunc:
    def test_reduction(self):
        f = RatFunc(P([-1, 0, 1]), P([-1, 1]))   # (t^2-1)/(t-1)
        assert f == RatFunc(P([1, 1]), P([1]))

    def test_monic_denominator(self):
        f = RatFunc(P([1]), P([2, -2]))          # 1/(2t... ) -> -(1/2)/(t-1)
        assert f.den.coeffs[-1] == 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(P([1]), P([0]))

    def test_negative_power(self):
        f = parse_qt("t + 1")
        assert f ** -2 == 1 / (f * f)

    def test_eval_pole(self):
        f = parse_qt("1/(t - 2)")
        with pytest.raises(PoleError):
            f.eval(Fraction(2))
        assert f.eval(Fraction(3)) == 1

    def test_diff_quotient_rule(self):
        f = parse_qt("(t^2 + 1)/(t - 3)")
        g = parse_qt("(t^2 - 6*t - 1)/(t^2 - 6*t + 9)")
        assert f.diff() == g


@st.composite
def qy_elements(draw):
    def coeffs():
        return draw(st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=9),
            min_size=1, max_size=4))
    num = UniPoly(QQ, "y", coeffs())
    den = UniPoly(QQ, "y", coeffs())
    if den.is_zero:
        den = UniPoly(QQ, "y", [Fraction(1)])
    return RatFunc(num, den)


class TestFieldLaws:
    @settings(max_examples=60, deadline=None)
    @given(qy_elements(), qy_elements(), qy_elements())
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == QY.zero

    @settings(max_examples=60, deadline=None)
    @given(qy_elements())
    def test_inverse(self, a):
        if not a.is_zero:
            assert a / a == QY.one
            assert a * a ** -1 == QY.one


class TestTower:
    def test_mixed_arithmetic(self):
        z = parse_qyt("t*y/(y + 1)")
        w = parse_qyt("(t^2 + y)/(t - 1)")
        combo = z * w - w / 2 + 3
        # cross-check by evaluating both layers at rational points
        t0, y0 = Fraction(1, 3), Fraction(2, 5)
        def num_at(R):
            inner = R.eval(QY.coerce(t0))
            return inner.eval(y0)
        expect = (t0 * y0 / (y0 + 1)) * ((t0 * t0 + y0) / (t0 - 1)) \
            - ((t0 * t0 + y0) / (t0 - 1)) / 2 + 3
        assert num_at(combo) == expect

    def test_substitute_y(self):
        R = parse_qyt("(t + y)/(y*(1 - t))")
        S = substitute_y(R, Fraction(2))
        assert S == parse_qt("(t + 2)/(2 - 2*t)")

    def test_substitute_y_pole(self):
        R = parse_qyt("1/(y - 3) + t")
        with pytest.raises(PoleError) as err:
            substitute_y(R, Fraction(3))
        assert "y - 3" in str(err.value) or "3" in str(err.value)

    def test_pow_equals_repeated_product(self):
        rng = random.Random(42)

        def small_qy():
            return RatFunc(P([rng.randint(-4, 4), rng.randint(1, 3)], var="y"),
                           P([rng.randint(1, 4)], var="y"))

        for _ in range(3):
            R = RatFunc(UniPoly(QY, "t", [small_qy(), small_qy()]),
                        UniPoly(QY, "t", [small_qy(), QY.one]))
            product, num_product = QYT.one, UniPoly(QY, "t", [QY.one])
            for k in range(7):
                assert R ** k == product, k
                assert R.num ** k == num_product, k
                if 1 <= k <= 3:
                    assert R ** -k == 1 / product, -k
                product = product * R
                num_product = num_product * R.num

    def test_pow_equals_repeated_product_t_degree_2(self):
        # powers build num^k / den^k without a gcd; the products reduce
        rng = random.Random(7)

        def small_qy():
            return RatFunc(P([rng.randint(-3, 3), rng.randint(1, 2)], var="y"),
                           P([rng.randint(1, 3), rng.randint(0, 1)], var="y"))

        for _ in range(3):
            R = RatFunc(UniPoly(QY, "t", [small_qy() for _ in range(3)]),
                        UniPoly(QY, "t", [small_qy() for _ in range(3)]))
            product = QYT.one
            for k in range(4):
                assert R ** k == product, k
                if k:
                    assert R ** -k == 1 / product, -k
                if k < 3:
                    product = product * R

    @pytest.mark.parametrize("t_degree", [4, 6])
    def test_pow_equals_repeated_product_high_t_degree(self, t_degree):
        rng = random.Random(t_degree)

        def small_qy():
            return RatFunc(P([rng.randint(-3, 3), rng.randint(1, 2)], var="y"),
                           P([rng.randint(1, 3), rng.randint(0, 1)], var="y"))

        def side():
            return UniPoly(QY, "t", [small_qy() for _ in range(t_degree + 1)])

        R = RatFunc(side(), side())
        product = QYT.one
        for k in range(4):
            assert R ** k == product, k
            if k:
                assert R ** -k == 1 / product, -k
            if k < 3:
                product = product * R

    def test_substitute_commutes_with_product(self):
        A = parse_qyt("(t + y)/(y + 1)")
        B = parse_qyt("(t^2 - y)/(t - 2)")
        r = Fraction(1, 2)
        assert substitute_y(A * B, r) == substitute_y(A, r) * substitute_y(B, r)


class TestRationalRoots:
    def test_known_roots(self):
        # 6t^3 + t^2 - t = t(3t - 1)(2t + 1)
        p = P([0, -1, 1, 6])
        assert rational_roots(p) == {Fraction(0), Fraction(1, 3),
                                     Fraction(-1, 2)}

    def test_irrational_poly(self):
        assert rational_roots(P([-2, 0, 1])) == set()

    def test_constant(self):
        assert rational_roots(P([5])) == set()

    def test_random_products(self):
        rng = random.Random(11)
        for _ in range(30):
            roots = {Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 3))}
            p = P([1])
            for rho in roots:
                p = p * P([-rho, 1])
            p = p * P([1, 0, 1])  # irrational factor
            assert rational_roots(p) == roots


    def test_search_limit(self, monkeypatch):
        # refused before any divisor is tried once the square root of the
        # lowest or leading cleared coefficient passes the limit
        monkeypatch.setattr(rational, "MAX_ROOT_SEARCH", 100)
        assert rational_roots(P([-10000, 100])) == {Fraction(100)}
        assert rational_roots(P([-1, 0, 10000])) == {Fraction(1, 100),
                                                     Fraction(-1, 100)}
        for coeffs in ([-10001, 1], [-1, 10001], [Fraction(-1, 10001), 1]):
            with pytest.raises(DomainError, match="root search"):
                rational_roots(P(coeffs))


class TestPrinter:
    def test_bivariate_cleared(self):
        assert print_canonical(parse_qyt("1 + 2/y + t^2")) \
            == "(t^2*y + y + 2)/y"

    def test_monic_denominator_form(self):
        assert print_canonical(parse_qyt("y/(1 - t)")) == "-y/(t - 1)"

    def test_leading_negative_power(self):
        # '-t^2' would reparse as (-t)^2, so the printer spells out -1*
        s = print_canonical(-parse_qyt("t^2*y + 1"))
        assert s.startswith("-1*t^2")
        assert parse_qyt(s) == -parse_qyt("t^2*y + 1")

    def test_fraction(self):
        assert print_canonical(Fraction(-3, 7)) == "-3/7"
        assert print_canonical(Fraction(4)) == "4"

    def test_integer_polynomial(self):
        assert print_canonical(P([30, 27, 8, 1], var="y")) \
            == "y^3 + 8*y^2 + 27*y + 30"
