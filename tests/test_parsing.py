"""Grammar, lowering errors, and print/parse roundtrips."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kolberg import (
    QQ, QS, QT, QY, QYT,
    ParseError, RatFunc, UniPoly,
    parse_expr, parse_poly, parse_qt, parse_qy, parse_qyt, parse_to,
    print_canonical,
)
from kolberg.parsing import Bin, Neg, Num, Pow, Var


class TestGrammar:
    def test_rational_literal_is_division(self):
        assert parse_qt("1/2") == parse_qt("5/10")
        assert parse_qt("1/2/2") == parse_qt("1/4")  # '/' left-associative

    def test_unary_minus_binds_before_power(self):
        # base := '-' base, then factor applies '^': -t^2 means (-t)^2
        assert parse_qt("-t^2") == parse_qt("t^2")
        assert parse_qt("-(t^2)") == -parse_qt("t^2")

    def test_negative_exponent(self):
        assert parse_qt("t^-2") == 1 / parse_qt("t^2")
        assert parse_qt("(t + 1)^-1") == 1 / parse_qt("t + 1")

    def test_chained_power_needs_parens(self):
        with pytest.raises(ParseError):
            parse_qt("t^2^3")
        assert parse_qt("(t^2)^3") == parse_qt("t^6")

    def test_whitespace_insensitive(self):
        assert parse_qyt(" 1+2/y+t ^ 2 ") == parse_qyt("1 + 2/y + t^2")

    def test_precedence(self):
        assert parse_qt("1 + 2*t^2") == parse_qt("1 + (2*(t^2))")
        assert parse_qt("2 - 3 - 4") == parse_qt("-5")

    @pytest.mark.parametrize("text", [
        "t +", "(t", "z", "1//2", "t^y", "t^", "", "t t", "3..",
        "y ** 2",
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_qyt(text)

    def test_variable_scope(self):
        with pytest.raises(ParseError):
            parse_qt("y + t")       # y has no meaning in Q(t)
        with pytest.raises(ParseError):
            parse_qy("s")
        parse_qyt("y*t")            # both live in Q(y)(t)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_qt("t + @")
        assert err.value.position == 4

    def test_division_by_zero_polynomial(self):
        with pytest.raises(ParseError):
            parse_qt("1/(t - t)")
        with pytest.raises(ParseError):
            parse_qt("(t - t)^-1")

    def test_zero_to_zero_power_is_one(self):
        assert parse_qt("(t - t)^0") == parse_qt("1")


class TestPowerLimit:
    """|exponent| times degree plus coefficient bits stays <= 100000."""

    @pytest.mark.parametrize("base, field, accepted", [
        ("2^98", QQ, True), ("2^99", QQ, False),
        ("s^97", QS, True), ("s^98", QS, False),
        ("t^96", QYT, True), ("t^97", QYT, False),
        ("y^96", QYT, True), ("y^97", QYT, False),
    ])
    def test_boundary(self, base, field, accepted):
        text = f"({base})^1000"
        if accepted:
            assert parse_to(text, field) == parse_to(base, field) ** 1000
        else:
            with pytest.raises(ParseError, match="power too large"):
                parse_to(text, field)


FIELD_VARIABLES = {
    QQ: {},
    QS: {"s": QS.gen},
    QY: {"y": QY.gen},
    QYT: {"y": QYT.coerce(QY.gen), "t": QYT.gen},
}

OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv}


def random_text(rng: random.Random, names: list, depth: int) -> str:
    """An expression with zeros, unary minus, negative powers and quotients."""
    if depth == 0 or rng.random() < 0.2:
        if names and rng.random() < 0.5:
            return rng.choice(names)
        return str(rng.choice([0, 0, 1, 2, 3, 7, 12]))
    kind = rng.choice("+-*//^~")
    if kind == "~":
        return f"-({random_text(rng, names, depth - 1)})"
    if kind == "^":
        return f"({random_text(rng, names, depth - 1)})^{rng.randint(-2, 3)}"
    return (f"({random_text(rng, names, depth - 1)}) {kind} "
            f"({random_text(rng, names, depth - 1)})")


def reference_value(node, field, variables: dict):
    """node evaluated with the field's own + - * / and powers."""
    if isinstance(node, Num):
        return field.coerce(node.value)
    if isinstance(node, Var):
        return variables[node.name]
    if isinstance(node, Neg):
        return -reference_value(node.child, field, variables)
    if isinstance(node, Pow):
        return reference_value(node.base, field, variables) ** node.exponent
    assert isinstance(node, Bin)
    return OPERATORS[node.op](reference_value(node.left, field, variables),
                              reference_value(node.right, field, variables))


class TestLoweringDifferential:
    @pytest.mark.parametrize("field", list(FIELD_VARIABLES),
                             ids=lambda f: f.name)
    def test_matches_field_arithmetic(self, field):
        rng = random.Random(4711)
        variables = FIELD_VARIABLES[field]
        names = sorted(variables)
        for _ in range(300):
            text = random_text(rng, names, 4)
            try:
                expected = reference_value(parse_expr(text), field, variables)
            except ZeroDivisionError:
                with pytest.raises(ParseError):
                    parse_to(text, field)
                continue
            assert parse_to(text, field) == expected, text


class TestParsePoly:
    def test_simple(self):
        p = parse_poly("n^2 + n/2 + 1")
        assert p.coeffs == (Fraction(1), Fraction(1, 2), Fraction(1))

    def test_scaled(self):
        assert parse_poly("(n + 1)/3") == parse_poly("n/3 + 1/3")

    def test_rejects_true_quotient(self):
        from kolberg import DomainError
        with pytest.raises(DomainError):
            parse_poly("1/(n + 1)")

    def test_other_variable(self):
        p = parse_poly("t^2 - 1", var="t")
        assert p.var == "t" and p.degree == 2


def random_qyt(rng: random.Random) -> RatFunc:
    def poly(field, var, max_deg):
        coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                  for _ in range(rng.randint(1, max_deg + 1))]
        return UniPoly(field, var, coeffs)

    def qy_elem():
        num = poly(QQ, "y", 2)
        den = poly(QQ, "y", 2)
        while den.is_zero:
            den = poly(QQ, "y", 2)
        return RatFunc(num, den)

    while True:
        try:
            num = UniPoly(QY, "t", [qy_elem() for _ in range(rng.randint(1, 4))])
            den = UniPoly(QY, "t", [qy_elem() for _ in range(rng.randint(1, 4))])
            return RatFunc(num, den)
        except ZeroDivisionError:
            continue


class TestRoundtrip:
    def test_seeded_random_qyt(self):
        rng = random.Random(20240817)
        for _ in range(400):
            R = random_qyt(rng)
            assert parse_qyt(print_canonical(R)) == R

    def test_seeded_random_qt(self):
        rng = random.Random(5)
        for _ in range(200):
            coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                      for _ in range(rng.randint(1, 6))]
            den = [Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                   for _ in range(rng.randint(1, 6))]
            if all(c == 0 for c in den):
                den = [Fraction(1)]
            R = RatFunc(UniPoly(QQ, "t", coeffs), UniPoly(QQ, "t", den))
            assert parse_qt(print_canonical(R)) == R

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.fractions(min_value=-30, max_value=30,
                                 max_denominator=12),
                    min_size=1, max_size=5))
    def test_hypothesis_qy_polys(self, coeffs):
        p = UniPoly(QQ, "y", coeffs)
        R = RatFunc(p, UniPoly(QQ, "y", [Fraction(1)]))
        assert parse_qy(print_canonical(R)) == R

    def test_canonical_is_fixed_point(self):
        rng = random.Random(99)
        for _ in range(100):
            R = random_qyt(rng)
            s = print_canonical(R)
            assert print_canonical(parse_qyt(s)) == s
