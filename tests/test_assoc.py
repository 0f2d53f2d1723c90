"""Associated-series coefficient transforms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kolberg import (
    QQ, QY,
    CoeffSeq, compose_oracle, from_associated, parse_qy,
    sequence_from_json, sequence_to_json, to_associated,
)


def useq(values, ring=QQ):
    return CoeffSeq("u", ring, tuple(values))


def vseq(values, ring=QQ):
    return CoeffSeq("v", ring, tuple(values))


def random_useq(rng: random.Random, order: int, ring=QQ) -> CoeffSeq:
    if ring is QQ:
        vals = [Fraction(rng.randint(-999, 999), rng.randint(1, 60))
                for _ in range(order + 1)]
    else:
        vals = [parse_qy(f"{rng.randint(-9, 9)} + {rng.randint(0, 9)}*y")
                for _ in range(order + 1)]
    return useq(vals, ring)


class TestBasics:
    def test_u0_equals_v0(self):
        u = useq([Fraction(5), Fraction(1)])
        assert to_associated(u).values[0] == Fraction(5)

    def test_kind_discipline(self):
        v = vseq([Fraction(1)])
        with pytest.raises(ValueError):
            to_associated(v)
        with pytest.raises(ValueError):
            from_associated(useq([Fraction(1)]))

    def test_negative_order(self):
        u, v = useq([Fraction(1), Fraction(2)]), vseq([Fraction(1)])
        for transform, seq in ((to_associated, u), (compose_oracle, u),
                               (from_associated, v)):
            with pytest.raises(ValueError, match="must be nonnegative"):
                transform(seq, -1)

    def test_truncation(self):
        u = useq([Fraction(n) for n in range(8)])
        assert len(to_associated(u, 3)) == 4

    def test_exponential_pin(self):
        # H(x) = e^x: u_n = 1, and the first associated coefficients are
        # hand-computed from G(t) = exp(t e^-t).
        u = useq([Fraction(1)] * 5)
        v = to_associated(u)
        assert v.values == (1, 1, -1, -2, 9)
        assert from_associated(v) == u

    def test_tree_function_pair(self):
        # H(x) = sum n^(n-1) x^n/n! is the tree branch itself, so the
        # associated series is G(t) = t: a single coefficient v_1 = 1.
        N = 12
        u = useq([Fraction(0)] + [Fraction(n ** (n - 1))
                                  for n in range(1, N + 1)])
        v = to_associated(u)
        assert v.values == tuple(
            Fraction(1) if n == 1 else Fraction(0) for n in range(N + 1))


class TestOracle:
    def test_matches_composition_oracle_qq(self):
        rng = random.Random(3)
        for _ in range(20):
            u = random_useq(rng, rng.randint(0, 25))
            assert to_associated(u) == compose_oracle(u)

    def test_matches_composition_oracle_qy(self):
        rng = random.Random(4)
        for _ in range(8):
            u = random_useq(rng, rng.randint(0, 12), ring=QY)
            assert to_associated(u) == compose_oracle(u)


class TestRoundtrip:
    def test_random_roundtrips(self):
        rng = random.Random(123)
        for _ in range(200):
            u = random_useq(rng, rng.randint(0, 60))
            v = to_associated(u)
            assert from_associated(v) == u

    def test_uncorrected_exponent_base_fails_small(self):
        # Regression pin: the forward map must use (-m)^(n-m), not
        # (-n)^(n-m); the broken variant fails roundtrip at order <= 4.
        def bad_forward(u: CoeffSeq) -> CoeffSeq:
            vals = [u.values[0]]
            for n in range(1, len(u)):
                acc = QQ.zero
                for m in range(1, n + 1):
                    acc = acc + (Fraction(math.comb(n, m))
                                 * Fraction((-n) ** (n - m)) * u.values[m])
                vals.append(acc)
            return CoeffSeq("v", QQ, tuple(vals))

        rng = random.Random(7)
        broken = 0
        for _ in range(20):
            u = random_useq(rng, 4)
            if from_associated(bad_forward(u)) != u:
                broken += 1
        assert broken == 20  # wrong for essentially every sequence

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=-50, max_value=50,
                                 max_denominator=20),
                    min_size=1, max_size=12))
    def test_hypothesis_roundtrip(self, vals):
        u = useq(vals)
        assert from_associated(to_associated(u)) == u

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=-20, max_value=20,
                                 max_denominator=10),
                    min_size=1, max_size=8),
           st.lists(st.fractions(min_value=-20, max_value=20,
                                 max_denominator=10),
                    min_size=1, max_size=8),
           st.fractions(min_value=-5, max_value=5, max_denominator=6))
    def test_linearity(self, a_vals, b_vals, lam):
        n = min(len(a_vals), len(b_vals))
        a = useq(a_vals[:n])
        b = useq(b_vals[:n])
        combo = useq([x + lam * y for x, y in zip(a.values, b.values)])
        va, vb, vc = to_associated(a), to_associated(b), to_associated(combo)
        for i in range(n):
            assert vc.values[i] == va.values[i] + lam * vb.values[i]


class TestJson:
    def test_roundtrip_qq(self):
        u = useq([Fraction(1, 3), Fraction(-2), Fraction(7, 5)])
        assert sequence_from_json(sequence_to_json(u)) == u

    def test_roundtrip_qy(self):
        u = useq([parse_qy("(y + 2)/y"), parse_qy("y + 2")], ring=QY)
        text = sequence_to_json(u)
        assert sequence_from_json(text) == u
        assert '"ring": "Q(y)"' in text

    def test_kind_preserved(self):
        v = vseq([Fraction(1)])
        assert sequence_from_json(sequence_to_json(v)).kind == "v"
