"""The fraction-free kernels against the per-term loops they replace.

The transforms, the Taylor series and the tail-order search each run on
numerators over one common denominator (or on integer mantissas); the
H series' former order search is kept as the reference for the one
search that now serves it, and the former radius search of the H tail
(a zeta test at every tau) for the one-radius rule.  The
loops below are the straightforward versions, which add and multiply
field elements term by term; they are kept here as references only.
The heuristic integer gcd, the library's only gcd, is checked against
the Euclidean algorithm over Q and the primitive remainder sequence over
Q[x][t], which live here as references: the reference runs swap them in
for the heuristic at every level.  The integer common denominator and the
one-gcd neighbor relation are checked against the Fraction and four-step
forms they replace.
"""

import collections
import math
import random
import time
from fractions import Fraction

import pytest

from kolberg import (
    QQ, QY, QYT,
    AdHocFunction, CoeffSeq, DomainError, PoleError, Quatuor, RatFunc,
    SeriesSpec, UniPoly, VerificationError, check_identity,
    diese_generator, diese_quatuor, eval_H_series, from_associated,
    g_coeffs, generate_range, h_coeffs, kolberg_quatuor, linear_combine,
    parse_qt, parse_qy, parse_qyt, poly_gcd, poly_lcm, print_canonical,
    quatuor_from_json, quatuor_to_json, rational_roots, shift,
    substitute_y, taylor_series, to_associated,
)
from kolberg import assoc, numeric, quatuor, rational
from kolberg.cli import run
from test_parsing import random_qyt


def _ipow(base, exp):
    return 1 if exp == 0 else base ** exp


def reference_to_associated(u: CoeffSeq) -> CoeffSeq:
    out = [u.values[0]]
    for n in range(1, u.order + 1):
        acc = u.ring.zero
        for m in range(1, n + 1):
            acc = acc + math.comb(n, m) * _ipow(-m, n - m) * u.values[m]
        out.append(acc)
    return CoeffSeq("v", u.ring, tuple(out))


def reference_from_associated(v: CoeffSeq) -> CoeffSeq:
    out = [v.values[0]]
    for n in range(1, v.order + 1):
        acc = v.ring.zero
        for m in range(1, n + 1):
            acc = acc + math.comb(n - 1, m - 1) * _ipow(n, n - m) * v.values[m]
        out.append(acc)
    return CoeffSeq("u", v.ring, tuple(out))


def reference_taylor_series(R: RatFunc, N: int, mu) -> list:
    ring = R.num.field
    num, den = R.num, R.den
    inv_d0 = ring.one / den.coeff(0)
    inv = [inv_d0]
    for k in range(1, N + 1):
        acc = ring.zero
        for i in range(1, min(k, den.degree) + 1):
            acc = acc + den.coeff(i) * inv[k - i]
        inv.append(-acc * inv_d0)
    r_ser = []
    for k in range(N + 1):
        acc = ring.zero
        for i in range(0, min(k, num.degree) + 1):
            acc = acc + num.coeff(i) * inv[k - i]
        r_ser.append(acc)
    mu = ring.coerce(mu)
    exp_ser = [ring.one]
    for j in range(1, N + 1):
        exp_ser.append(exp_ser[-1] * mu * Fraction(1, j))
    out = []
    for n in range(N + 1):
        acc = ring.zero
        for j in range(n + 1):
            acc = acc + r_ser[n - j] * exp_ser[j]
        out.append(acc)
    return out


def reference_series_order(n_start, K0, delta, q, bound_from, tol_half):
    """The tail-order search stepping q^(N+1) as exact Fractions, with an
    exact tail test at every N (no floating-point skip)."""
    q = numeric._dyadic_up(q)
    N = n_start - 1
    q_pow = numeric._dyadic_up(q ** n_start)
    while True:
        N += 1
        q_pow = numeric._dyadic_up(q_pow * q)
        if N >= bound_from and N >= 1:
            tail = numeric._tail_after(K0, delta, q, N, q_pow)
            if tail is not None and tail <= tol_half:
                return N, tail
        if N > numeric._TERM_CAP:
            raise DomainError(
                "series did not meet the tolerance within the term cap")


def reference_h_tail_after(M, E, zeta, N):
    return numeric._dyadic_up(M * E * zeta ** (N + 1) / (1 - zeta))


def reference_h_order(M, E, zeta, target):
    """The H series' former order search: gallop, then step back, with an
    exact zeta^(N+1) at every probe."""
    N = 1
    while reference_h_tail_after(M, E, zeta, N) > target:
        if N >= numeric._TERM_CAP:
            raise DomainError(
                "series did not meet the tolerance within the term cap")
        N += 1 + N // 8
    while N > 1 and reference_h_tail_after(M, E, zeta, N - 1) <= target:
        N -= 1
    return N


def reference_h_tail_params(R_t: RatFunc, r: Fraction, x: Fraction):
    """The former radius search: zeta and a pole-radius test at each of up
    to 300 tau, shrinking tau until all of lw > 0, zeta < 1 and the radius
    test pass."""
    den = R_t.den
    constraints = []
    work = den
    if den.degree > 0:
        for rho in sorted(rational_roots(den), key=abs):
            if rho == 0:
                raise PoleError("pole at t = 0")
            mult = 0
            factor = UniPoly(QQ, "t", [-rho, 1])
            while True:
                quot, rem = divmod(work, factor)
                if rem.is_zero:
                    work = quot
                    mult += 1
                else:
                    break
            constraints.append((abs(rho), mult))
    tau = Fraction(9, 10)
    for rad, _ in constraints:
        tau = min(tau, Fraction(7, 8) * rad)
    for _ in range(300):
        lw = abs(work.coeff(0)) - sum(
            abs(work.coeff(i)) * tau ** i for i in range(1, work.degree + 1))
        zeta = abs(x) * numeric.exp_ub(tau) / tau
        if lw > 0 and zeta < 1 and all(rad > tau for rad, _ in constraints):
            num_bound = sum(abs(c) * tau ** i
                            for i, c in enumerate(R_t.num.coeffs))
            den_lower = lw
            for rad, mult in constraints:
                den_lower *= (rad - tau) ** mult
            M = num_bound / den_lower
            E = numeric.exp_ub(abs(r) * tau)
            return (numeric._dyadic_up(M), numeric._dyadic_up(E),
                    numeric._dyadic_up(zeta))
        tau = tau * Fraction(3, 4)
    raise DomainError(
        "no certified radius for the tail bound; |x| may be too large "
        "for this level's pole structure")


def random_q(rng):
    return Fraction(rng.randint(-999, 999), rng.randint(1, 60))


def random_qy_poly(rng):
    return RatFunc(
        UniPoly(QQ, "y", [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(rng.randint(1, 3))]),
        UniPoly(QQ, "y", [Fraction(1)]))


def random_qy(rng):
    den = [Fraction(rng.randint(1, 5)), Fraction(rng.randint(-3, 3))]
    return random_qy_poly(rng) / RatFunc(UniPoly(QQ, "y", den),
                                         UniPoly(QQ, "y", [Fraction(1)]))


# Levels whose t-constant term depends on y: the Taylor denominators
# Q_0^k then grow in y, and so does the one denominator of h_coeffs' rows.
Y_LEVELS = (
    "(y*t + 2)/((y^2 + 3)*t^3 - t + y^3 - 2*y + 7)",
    "(t^2 + y)/((y + 1)*t^2 + (y - 2)*t + y^2 + 1)",
    "(y^2*t - 1)/((t - y)^2*(2*t + y + 1))",
    "(t + 1/y)/((t^2 + y/(y + 1))*(3*t - y))",
)


class TestTransforms:
    @pytest.mark.parametrize("order", [0, 1, 7, 60])
    def test_qq_matches_reference(self, order):
        rng = random.Random(order)
        values = tuple(random_q(rng) for _ in range(order + 1))
        u, v = CoeffSeq("u", QQ, values), CoeffSeq("v", QQ, values)
        assert to_associated(u) == reference_to_associated(u)
        assert from_associated(v) == reference_from_associated(v)

    def test_qy_polynomials_to_order_60(self):
        rng = random.Random(60)
        values = tuple(random_qy_poly(rng) for _ in range(61))
        u, v = CoeffSeq("u", QY, values), CoeffSeq("v", QY, values)
        assert to_associated(u) == reference_to_associated(u)
        assert from_associated(v) == reference_from_associated(v)

    def test_qy_rational_values(self):
        rng = random.Random(12)
        values = tuple(random_qy(rng) for _ in range(13))
        u, v = CoeffSeq("u", QY, values), CoeffSeq("v", QY, values)
        assert to_associated(u) == reference_to_associated(u)
        assert from_associated(v) == reference_from_associated(v)
        for text in Y_LEVELS:
            F = AdHocFunction(parse_qyt(text))
            v = g_coeffs(F, 16)
            u = reference_from_associated(v)
            assert h_coeffs(F, 16) == from_associated(v) == u, text
            assert to_associated(u) == reference_to_associated(u) == v, text

    def test_zero_entries(self):
        values = (QY.zero, parse_qy("1/y"), QY.zero, parse_qy("y/(y + 1)"))
        v = CoeffSeq("v", QY, values)
        assert from_associated(v) == reference_from_associated(v)


class TestTaylorSeries:
    @pytest.mark.parametrize("text, mu", [
        ("1/(1 - t)", "0"),                      # D(0) a unit
        ("(t^2 + 3*t - 1)/5", "-2/3"),           # constant in t
        ("(t + 1)/(6*t^2 - 4*t + 2)", "5/2"),    # D with content
        ("(3*t^3 - t)/((t - 2)^2*(t + 7))", "1/3"),
    ])
    def test_qq_to_order_60(self, text, mu):
        R = parse_qt(text)
        mu = Fraction(mu)
        assert taylor_series(R, 60, mu) == reference_taylor_series(R, 60, mu)

    @pytest.mark.parametrize("text, N", [
        ("1 + 2/y + t^2", 60),                   # constant in t, mu = y
        ("1/(t + y)", 30),                       # D(0) = y
        ("(-t*y + y + 1)/(y^3 + y^2)", 40),      # Kolberg level 2
        ("(t + y)/(y^2*(t^2 + 3*t + y))", 20),   # D(0) = y^3 after clearing
        ("(t*y - t - y)/(2*(t - 1)^3)", 30),     # D(0) a unit
        *((text, 20) for text in Y_LEVELS),
    ])
    def test_qy_mu_y(self, text, N):
        R = parse_qyt(text)
        assert taylor_series(R, N, QY.gen) \
            == reference_taylor_series(R, N, QY.gen)

    def test_qy_rational_mu(self):
        R = parse_qyt("t/(2*y + 1) + 1/(t - y)")
        mu = parse_qy("(y + 1)/(y - 3)")
        assert taylor_series(R, 15, mu) == reference_taylor_series(R, 15, mu)

    def test_specialized_levels(self):
        q, _ = generate_range("1 + 2/y + t^2", 0, -2, 2)
        for k in range(-2, 3):
            for r in (Fraction(1, 2), Fraction(-7, 3)):
                R = substitute_y(q.level(k).R, r)
                assert taylor_series(R, 40, r) \
                    == reference_taylor_series(R, 40, r)

    def test_pole_at_zero(self):
        with pytest.raises(PoleError):
            taylor_series(parse_qyt("1/(t^2 + t*y)"), 4, QY.gen)


class TestSeriesOrder:
    def test_matches_fraction_loop(self):
        rng = random.Random(314)
        cases = []
        for family in ("kolberg", "sharp", "example0"):
            for _ in range(4):
                x = Fraction(rng.randint(1, 36), 100) * rng.choice([1, -1])
                r = Fraction(rng.randint(0, 6), rng.randint(1, 3))
                cases.append(SeriesSpec(family, x, a=rng.randint(0, 3), r=r))
        for e in (-2, 0, 1):
            cases.append(SeriesSpec(
                "custom-H", Fraction(rng.randint(1, 30), 100),
                supplier=lambda n, e=e: Fraction(n) ** (n + e),
                bound_K=Fraction(1), bound_delta=e, bound_from=1))
        for spec in cases:
            _, n_start, K0, delta, q, bound_from = numeric._family_plan(spec)
            for tol in ("1e-20", "1e-100", "1e-400"):
                args = (n_start, K0, delta, q, bound_from,
                        numeric.tol_fraction(tol) / 2)
                assert numeric._series_order(*args) \
                    == reference_series_order(*args), (spec, tol)

    def test_term_cap(self):
        spec = SeriesSpec("kolberg", Fraction(1, 3))
        _, n_start, K0, delta, q, bound_from = numeric._family_plan(spec)
        args = (n_start, K0, delta, q, bound_from,
                numeric.tol_fraction("1e-5000") / 2)
        for search in (numeric._series_order, reference_series_order):
            with pytest.raises(DomainError, match="term cap"):
                search(*args)


    def test_h_series_matches_former_search(self):
        # |u_n x^n/n!| <= M E zeta^n is the dominance form K0 n^delta q^n
        # with K0 = M E, delta = 0, q = zeta; the targets are those of
        # eval_H_series (tol/2) and check_identity (tol/8)
        levels = [diese_quatuor(-2, 3).level(k) for k in (-2, 0, 3)] \
            + [kolberg_quatuor(-2, 2).level(k) for k in (-2, 1)]
        for F in levels:
            for r in (Fraction(1, 2), Fraction(-1, 3), Fraction(3)):
                R_t = substitute_y(F.R, r)
                for x in (Fraction(1, 10), Fraction(-1, 5), Fraction(1, 3)):
                    M, E, zeta = numeric._h_tail_params(R_t, r, x)
                    for tol in ("1e-10", "1e-30"):
                        for part in (2, 8):
                            target = numeric.tol_fraction(tol) / part
                            N, tail = numeric._series_order(
                                1, M * E, 0, zeta, 1, target)
                            ref_N = reference_h_order(M, E, zeta, target)
                            ref = reference_h_tail_after(M, E, zeta, ref_N)
                            assert N == ref_N, (F, r, x, tol, part)
                            assert ref <= tail <= ref * (1 + Fraction(
                                1, 10 ** 12)), (F, r, x, tol, part)

    def test_h_term_cap_before_u_values(self, monkeypatch):
        # a target whose smallest N is _TERM_CAP + 2, one past the last
        # order the search tries: both H paths stop before any u_n
        F = kolberg_quatuor(-2, 2).level(0)
        r, x = Fraction(1, 2), Fraction(1, 10)
        M, E, zeta = numeric._h_tail_params(substitute_y(F.R, r), r, x)
        cap, q = numeric._TERM_CAP, numeric._dyadic_up(zeta)
        qm, qe = numeric._mantissa_exponent(q)
        pm, pe = qm, qe
        for _ in range(cap + 2):    # q_pow >= q^(cap + 3), as in the search
            pm, pe = numeric._dyadic_up_step(pm * qm, pe + qe)
        target = numeric._tail_after(M * E, 0, q, cap + 2,
                                     Fraction(pm, 1 << pe))
        with monkeypatch.context() as m:
            m.setattr(numeric, "_TERM_CAP", cap + 1)
            assert numeric._series_order(1, M * E, 0, zeta, 1, target) \
                == (cap + 2, target)

        def no_u_values(*args):
            raise AssertionError("u-values built past the term cap")

        monkeypatch.setattr(numeric, "_h_u_values", no_u_values)
        with pytest.raises(DomainError, match="term cap"):
            eval_H_series(F, r, x, None, 256, 2 * target)
        with pytest.raises(DomainError, match="term cap"):
            check_identity(F, r, x, 8 * target)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc).__name__, str(exc)


class TestTailParams:
    """The one-radius rule of _h_tail_params against the former search."""

    def test_matches_former_search(self):
        levels = [diese_quatuor(-2, 2).level(k) for k in (-2, 0, 2)] \
            + [kolberg_quatuor(-1, 1).level(k) for k in (-1, 1)]
        cases = [(substitute_y(F.R, r), r, x)
                 for F in levels
                 for r in (Fraction(1, 2), Fraction(5, 2))
                 for x in (Fraction(1, 10), Fraction(-1, 5), Fraction(9, 25))]
        rng = random.Random(26)
        for _ in range(24):
            num = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 3))]
            den = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 4))]
            if all(c == 0 for c in den):
                continue
            R_t = RatFunc(UniPoly(QQ, "t", num), UniPoly(QQ, "t", den))
            cases.append((R_t, Fraction(rng.randint(-5, 5), 2),
                          Fraction(rng.choice((1, -1)), rng.randint(3, 10))))
        refusals = 0
        for R_t, r, x in cases:
            got = _outcome(numeric._h_tail_params, R_t, r, x)
            assert got == _outcome(reference_h_tail_params, R_t, r, x), \
                (R_t, r, x)
            refusals += isinstance(got[0], str)
        assert 0 < refusals < len(cases)

    @pytest.mark.parametrize("text", ["1/(t - 3)", "1/(t^3 - 3*t + 3)", "1"])
    def test_refusal_is_immediate(self, text):
        # zeta >= 1 at the first tau whose lower bound on the pole-free
        # factor is positive: refused without shrinking tau further
        start = time.perf_counter()
        with pytest.raises(DomainError, match="no certified radius"):
            numeric._h_tail_params(parse_qt(text), Fraction(1, 2),
                                   Fraction(367, 1000))
        assert time.perf_counter() - start < 0.1


def reference_h_u_values(R_t: RatFunc, r: Fraction, N: int) -> tuple:
    """u_0..u_N the former way: Taylor coefficients normalised by
    taylor_series, times n!, then from_associated over Q."""
    series = taylor_series(R_t, N, r)
    v = CoeffSeq("v", QQ, tuple(
        c * math.factorial(n) for n, c in enumerate(series)))
    return from_associated(v).values


def reference_h_terms(u, x: Fraction):
    """The former terms: each reduced u_n as its own pair."""
    return numeric._scaled_terms(
        lambda n: (u[n].numerator, u[n].denominator),
        x.numerator, x.denominator, 0, len(u) - 1)


def as_common_denominator(u) -> tuple:
    """Reduced u_n as (U, D), U[n] / D = u_n over D = lcm of denominators."""
    D = math.lcm(*(c.denominator for c in u))
    return tuple(c.numerator * (D // c.denominator) for c in u), D


def h_cases():
    """(label, R_t, r) on dièse and Kolberg levels -2..3, at four r."""
    for name, q in (("diese", diese_quatuor(-2, 3)),
                    ("kolberg", kolberg_quatuor(-2, 3))):
        for k in range(-2, 4):
            for r in (Fraction(1, 2), Fraction(2), Fraction(-1, 3),
                      Fraction(5, 2)):
                yield (name, k, r), substitute_y(q.level(k).R, r), r


def iv_endpoints(ball):
    return numeric._iv_lo(ball), numeric._iv_hi(ball)


class TestHKernel:
    """_h_u_values' integer rows and Horner sum, and _h_terms, against
    taylor_series + from_associated and the reduced terms."""

    def test_u_values_match_reference(self):
        cases = 0
        for label, R_t, r in h_cases():
            for N in (0, 1, 7, 150):
                U, D = numeric._h_u_values(R_t, r, N)
                assert D > 0 and len(U) == N + 1
                assert [Fraction(c, D) for c in U] \
                    == list(reference_h_u_values(R_t, r, N)), (label, N)
            cases += 1
        assert cases == 48

    def test_cache_key(self):
        info = numeric._h_u_values.cache_info
        assert numeric._h_u_values.cache_parameters()["maxsize"] == 256
        R_t = substitute_y(diese_generator().R, Fraction(1, 2))
        numeric._h_u_values(R_t, Fraction(1, 2), 12)
        hits = info().hits
        assert numeric._h_u_values(R_t, Fraction(1, 2), 12) \
            is numeric._h_u_values(R_t, Fraction(1, 2), 12)
        assert info().hits == hits + 2

    def test_ball_sum_identical(self):
        for label, R_t, r in h_cases():
            if label[1] not in (-2, 1, 3):
                continue
            for x in (Fraction(1, 10), Fraction(-1, 5), Fraction(1, 3)):
                for tol, N in (("1e-20", 40), ("1e-40", 120)):
                    tol = numeric.tol_fraction(tol)
                    u = reference_h_u_values(R_t, r, N)
                    with numeric._working(256):
                        new = numeric._ball_sum(numeric._h_terms(
                            numeric._h_u_values(R_t, r, N), x), N + 1, tol, 256)
                        ref = numeric._ball_sum(reference_h_terms(u, x),
                                                N + 1, tol, 256)
                        assert iv_endpoints(new) == iv_endpoints(ref), \
                            (label, x, N)

    @pytest.mark.parametrize("level, r, x, perturb", [
        (0, Fraction(1, 2), Fraction(1, 5), {3: "1e-6"}),
        (1, Fraction(-1, 3), Fraction(-1, 10), {0: Fraction(-2, 7),
                                                5: Fraction(1, 10 ** 20)}),
        (-2, Fraction(5, 2), Fraction(1, 5), {2: Fraction(3, 10 ** 31)}),
        (0, Fraction(1, 2), Fraction(1, 5), {10 ** 6: 1, -1: 1}),
    ], ids=["diese-0", "diese-1-two", "diese-m2-tiny", "out-of-range"])
    def test_perturbed_certificate(self, monkeypatch, level, r, x, perturb):
        # the reference adds delta to the reduced u_idx and certifies the
        # changed coefficients unperturbed
        F = diese_quatuor(-2, 3).level(level)
        got = check_identity(F, r, x, "1e-30", 256, perturb=perturb)

        def shifted(R_t, r, N):
            u = list(reference_h_u_values(R_t, r, N))
            for idx, delta in perturb.items():
                if 0 <= idx <= N:
                    u[idx] += Fraction(delta)
            return as_common_denominator(u)

        monkeypatch.setattr(numeric, "_h_u_values", shifted)
        assert got == check_identity(F, r, x, "1e-30", 256)

    def test_taylor_core_plain_ints(self):
        # the one recurrence on plain ints (Q) and on one-entry rows (the
        # Q(y) arithmetic) gives the same S_k; V / D are the k! c_k
        rng = random.Random(27)
        cases = [parse_qt(t) for t in (
            "1/(1 - t)", "(t + 1)/(6*t^2 - 4*t + 2)",
            "(3*t^3 - t)/((t - 2)^2*(t + 7))", "5/7")]
        cases += [R_t for _, R_t, _ in h_cases()][::7]
        for R in cases:
            mu = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            P, Q, m, q, a, b, arith = quatuor._taylor_parts(R, mu)
            assert arith is quatuor._INTS
            S = quatuor._taylor_numerators(P, Q, m, q, 40, arith)
            rows = quatuor._taylor_numerators(
                [[c] for c in P], [[c] for c in Q], [m], [q], 40,
                quatuor._ROWS)
            assert [[c] if c else [] for c in S] \
                == [row if any(row) else [] for row in rows]
            V, D = quatuor._taylor_v_integers(R, 40, mu)
            assert D > 0
            assert [Fraction(c, D) for c in V] == [
                c * math.factorial(k)
                for k, c in enumerate(taylor_series(R, 40, mu))]
            assert taylor_series(R, 40, mu) \
                == reference_taylor_series(R, 40, mu)

    def test_numeric_calls_no_transform(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("normalising path called")

        # numeric's own names too, where a module imports them directly
        for module in (numeric, quatuor):
            monkeypatch.setattr(module, "taylor_series", refuse,
                                raising=False)
            monkeypatch.setattr(module, "from_associated", refuse,
                                raising=False)
        monkeypatch.setattr(assoc, "from_associated", refuse)
        numeric._h_u_values.cache_clear()
        F = kolberg_quatuor(-2, 2).level(-1)
        assert check_identity(F, Fraction(1, 3), Fraction(1, 7)).passed
        eval_H_series(F, Fraction(1, 3), Fraction(1, 7))

    def test_coeffs_call_no_transform(self, monkeypatch):
        # g_coeffs normalises each v_n from the Taylor core and h_coeffs
        # runs the transform kernel on its integer rows
        def refuse(*args, **kwargs):
            raise AssertionError("normalising path called")

        F = diese_quatuor(-1, 1).level(1)
        expected = g_coeffs(F, 12), h_coeffs(F, 12)
        monkeypatch.setattr(quatuor, "taylor_series", refuse)
        monkeypatch.setattr(quatuor, "from_associated", refuse,
                            raising=False)
        monkeypatch.setattr(assoc, "from_associated", refuse)
        assert (g_coeffs(F, 12), h_coeffs(F, 12)) == expected

    def test_identity_at_one_third_time_bound(self):
        # N = 1553; through taylor_series + from_associated this took
        # 12.9 s on a 2-vCPU Xeon VM, the integer rows about 2 s
        numeric._h_u_values.cache_clear()
        start = time.perf_counter()
        cert = check_identity(diese_quatuor(0, 0).level(0), Fraction(1, 2),
                              Fraction(1, 3), "1e-60")
        assert time.perf_counter() - start < 6
        assert cert.passed and cert.terms_used == 1553


def reference_exp_ub(z: Fraction) -> Fraction:
    """The former exp_ub: the Taylor loop at every z."""
    K = max(2 * (int(z) + 1), 24)
    s, term = Fraction(0), Fraction(1)
    for k in range(K + 1):
        s += term
        term = term * z / (k + 1)
    return s + 2 * term


class TestExpUb:
    def test_loop_unchanged_up_to_64(self):
        rng = random.Random(64)
        zs = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(9, 10),
              Fraction(63), Fraction(64), Fraction(127, 2)]
        zs += [Fraction(rng.randint(0, 6400), rng.randint(1, 100))
               for _ in range(20)]
        for z in zs:
            if z <= 64:
                assert numeric.exp_ub(z) == reference_exp_ub(z), z

    def test_squaring_close_to_loop(self):
        # above 64 both are upper bounds on e^z; the loop's slack is below
        # a relative 1e-10 there, the squared one's near 1e-25
        for z in (Fraction(65), Fraction(1001, 10), Fraction(500)):
            new, ref = numeric.exp_ub(z), reference_exp_ub(z)
            assert abs(new - ref) < ref * Fraction(1, 10 ** 10), z

    def test_refused_above_limit(self):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="bound on e"):
            numeric.exp_ub(Fraction(numeric.MAX_EXP_ARG * 3 + 1, 3))
        with pytest.raises(DomainError, match="bound on e"):
            numeric.exp_ub(Fraction(10 ** 9 + 1, 2))
        assert time.perf_counter() - start < 0.1
        assert numeric.exp_ub(numeric.MAX_EXP_ARG) > 0


def q_poly(rng, deg, var="y"):
    """A polynomial over Q of degree deg, either sign of leading term."""
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
    lead = Fraction(rng.randint(1, 9), rng.randint(1, 6))
    return UniPoly(QQ, var, cs + [rng.choice([lead, -lead])])


def qy_coeff(rng):
    return RatFunc(q_poly(rng, rng.randint(0, 2)),
                   q_poly(rng, rng.randint(0, 1)))


def qyt_poly(rng, deg):
    return UniPoly(QY, "t", [qy_coeff(rng) for _ in range(deg + 1)])


def primitive_scale(p: UniPoly) -> UniPoly:
    """p over Q times a unit: integer coefficients with content 1."""
    if p.is_zero:
        return p
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = math.gcd(*ints)
    return p._same([Fraction(x, g) for x in ints])


def reference_euclid(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q by the Euclidean algorithm on Fractions.

    Each remainder is rescaled to primitive integer coefficients, which
    keeps the remainder sequence small; units never change the monic gcd.
    """
    a, b = primitive_scale(a), primitive_scale(b)
    while not b.is_zero:
        a, b = b, primitive_scale(divmod(a, b)[1])
    return a.monic()


def primitive_rows(cs: list) -> list:
    """A coefficient list over Q[x] divided by its content in Q[x] and Q."""
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    if not cs:
        return []
    g = cs[-1]
    for c in cs:
        if not c.is_zero and g.degree > 0:
            g = reference_euclid(g, c)
    cs = [c.exact_div(g) for c in cs]
    qs = [q for c in cs for q in c.coeffs]
    den = math.lcm(*(q.denominator for q in qs))
    scale = Fraction(den, math.gcd(*(q.numerator * (den // q.denominator)
                                      for q in qs)))
    return [c * scale for c in cs]


def pseudo_rem(u: list, v: list) -> list:
    """Pseudo-remainder of coefficient lists over Q[x] (no divisions)."""
    lv = v[-1]
    r = list(u)
    while len(r) >= len(v):
        rl = r[-1]
        shift = len(r) - len(v)
        r = [lv * c for c in r[:-1]]
        for j in range(len(v) - 1):
            r[shift + j] = r[shift + j] - rl * v[j]
        while r and r[-1].is_zero:
            r.pop()
    return r


def reference_prs(u: list, v: list) -> list:
    """The gcd over Q(x)[t] by the primitive remainder sequence.

    u and v are coefficient lists over Q[x]; each pseudo-remainder is
    stripped of its content, so every step is polynomial arithmetic in
    Q[x][t] and the result is primitive in Z[x][t].
    """
    u, v = primitive_rows(u), primitive_rows(v)
    if len(u) < len(v):
        u, v = v, u
    while v:
        u, v = v, primitive_rows(pseudo_rem(u, v))
    return u


# calls of reference_row_gcd per field name, since the last reference()
REFERENCE_CALLS = collections.Counter()


def reference_row_gcd(field, f: list, g: list):
    """rational._row_gcd's integer data (h, f/h, g/h) from the reference
    gcds: h is the primitive gcd (times the common integer content over
    Q), and f/h, g/h are exact quotients."""
    REFERENCE_CALLS[field.name] += 1
    if field is QQ:
        h = primitive_scale(reference_euclid(UniPoly(QQ, "x", f),
                                             UniPoly(QQ, "x", g)))
        content = math.gcd(math.gcd(*f), math.gcd(*g))
        h, divide = [content * int(c) for c in h.coeffs], rational._zz_div
    else:
        def polys(rows):
            return [UniPoly(QQ, field.var, row) for row in rows]
        h = [[int(c) for c in p.coeffs]
             for p in reference_prs(polys(f), polys(g))]
        divide = rational._zzy_div
    return h, divide(f, h), divide(g, h)


def reference(monkeypatch, fn, *args):
    """fn(*args) with every gcd, at every level, by the reference gcds;
    REFERENCE_CALLS then counts the gcds per field."""
    REFERENCE_CALLS.clear()
    with monkeypatch.context() as m:
        m.setattr(rational, "_row_gcd", reference_row_gcd)
        return fn(*args)


class TestGcdKernel:
    def test_zz_cofactors(self):
        # content, sign and constant operands: h f' = f and h g' = g exactly
        cases = [
            ([-12, 6, 6], [4, 4]),             # 6(x - 1)(x + 2), 4(x + 1)
            ([-12, 6, 6], [8, -8]),            # common factor 2(x - 1)
            ([6, 0, -6], [-3, 0, 3]),          # -1 times each other
            ([7], [14, 21]),                   # constant operand
            ([0, 0, 5], [-10]),
            ([2**70 + 1, 3], [2**70 + 1, 3]),  # equal, large coefficients
        ]
        gcds = []
        for f, g in cases:
            h, a, b = rational._zz_gcd(f, g)
            assert rational._int_product(h, a) == f
            assert rational._int_product(h, b) == g
            gcds.append(h if h[-1] > 0 else [-x for x in h])
        assert gcds == [[2], [-2, 2], [-3, 0, 3], [7], [5], [2**70 + 1, 3]]

    def test_qq_against_euclid(self, monkeypatch):
        rng = random.Random(41)
        pairs = []
        for _ in range(60):
            h = q_poly(rng, rng.randint(0, 3))
            pairs.append((h * q_poly(rng, rng.randint(0, 4)),
                          h * q_poly(rng, rng.randint(0, 4))))     # planted
            pairs.append((q_poly(rng, rng.randint(1, 5)),
                          q_poly(rng, rng.randint(1, 5))))         # coprime
        for f, g in pairs:
            assert rational._row_gcd(
                f.field, *rational._lower(f, g)) is not None
            got = (poly_gcd(f, g), poly_lcm(f, g), RatFunc(f, g))
            assert got == (reference(monkeypatch, poly_gcd, f, g),
                           reference(monkeypatch, poly_lcm, f, g),
                           reference(monkeypatch, RatFunc, f, g))

    @pytest.mark.parametrize("dh, da, db", [
        (0, 3, 2), (1, 1, 1), (2, 3, 3), (3, 2, 4), (5, 2, 1), (8, 1, 0),
    ])
    def test_qyt_planted_factor(self, monkeypatch, dh, da, db):
        rng = random.Random(100 * dh + 10 * da + db)
        h, a, b = qyt_poly(rng, dh), qyt_poly(rng, da), qyt_poly(rng, db)
        f, g = h * a, h * b
        assert rational._row_gcd(
            f.field, *rational._lower(f, g)) is not None
        got = poly_gcd(f, g)
        assert got == reference(monkeypatch, poly_gcd, f, g)
        if reference(monkeypatch, poly_gcd, a, b).degree == 0:
            assert got == h.monic()
        assert RatFunc(f, g) == reference(monkeypatch, RatFunc, f, g)

    def test_qyt_coprime_and_constant(self, monkeypatch):
        rng = random.Random(8)
        for da, db in ((1, 1), (2, 3), (4, 4), (0, 3), (3, 0)):
            f, g = qyt_poly(rng, da), qyt_poly(rng, db)
            assert poly_gcd(f, g) == reference(monkeypatch, poly_gcd, f, g)
            assert RatFunc(f, g) == reference(monkeypatch, RatFunc, f, g)

    def test_content_in_y(self):
        # y-content and integer content are units over Q(y)
        y2 = RatFunc(UniPoly(QQ, "y", [0, 0, 6]), UniPoly(QQ, "y", [1]))
        f = parse_qyt("(t + y)*(t - 2)").num
        g = parse_qyt("(t + y)*(3*t + 1)").num
        g = g._same([c * y2 for c in g.coeffs])
        assert poly_gcd(f, g) == parse_qyt("t + y").num

    @staticmethod
    def xi_points(norm, lead, count):
        xis = [rational._xi_start(norm, lead, norm, lead)]
        while len(xis) < count:
            xis.append(rational._xi_next(xis[-1]))
        return xis

    def test_zz_grows_xi_until_confirmed(self):
        # at each of the first seven points x^2 + 1 divides C, so the
        # values share the cofactor gcd x^2 + 1 and no candidate divides
        G = [3, -2, 1]
        f = rational._int_product(G, [1, 0, 1])
        C = math.prod(xi * xi + 1 for xi in self.xi_points(
            max(map(abs, f)), f[-1], 7))
        g = rational._int_product(G, [1 + C, 0, 1])
        h, a, b = rational._zz_gcd(f, g)
        assert rational._int_product(h, a) == f
        assert rational._int_product(h, b) == g
        assert h in (G, [-x for x in G])

    def test_zzy_grows_xi_until_confirmed(self):
        # at y = xi for the first seven points the cofactors share the
        # integer y^2 + 1, so each lifted candidate carries that factor
        G = [[1, 0, 1], [-2], [0, 1]]               # y t^2 - 2t + y^2 + 1
        g = rational._zzy_product(G, [[1, 0, 1], [], [1, 0, 1]])
        C = math.prod(xi * xi + 1 for xi in self.xi_points(
            max(x for row in g for x in map(abs, row)), g[-1][-1], 7))
        f = rational._zzy_product(G, [[1 + C, 0, 1], [1, 0, 1]])
        h, a, b = rational._zzy_gcd(f, g)
        assert rational._zzy_product(h, a) == f
        assert rational._zzy_product(h, b) == g
        assert h in (G, rational._zzy_negate(G))

    def test_other_coefficient_field_raises(self):
        F = rational.FractionField(QYT, "s")
        p = UniPoly(F, "z", [F.gen, F.one])
        with pytest.raises(TypeError):
            poly_gcd(p, p * p)

    def test_forced_fallback_same_canonical_strings(self, monkeypatch):
        rng = random.Random(2024)
        ops = []
        for _ in range(4):
            A = RatFunc(qyt_poly(rng, 2), qyt_poly(rng, 1))
            B = RatFunc(qyt_poly(rng, 1), qyt_poly(rng, 1))
            ops.append((A, B))

        def canonical():
            return [print_canonical(x) for A, B in ops
                    for x in (A * B, A + B, A / B, A.diff())]

        fast = canonical()
        assert fast == reference(monkeypatch, canonical)
        # the t-level gcds and the per-coefficient ones in Q[y] both ran
        assert REFERENCE_CALLS["Q(y)"] > 0 and REFERENCE_CALLS["Q"] > 0

    def test_parser_normalises_its_own_arrays(self, monkeypatch):
        # the parser hands its integer arrays straight to the normaliser,
        # without lowering field elements back to integer rows
        def refuse(*args, **kwargs):
            raise AssertionError("lowering path called")

        R = diese_quatuor(-2, 2).level(-2).R
        c = parse_qy("(y^2 + 1/3)/((y+1)^3*(3*y^2+1))")
        texts = print_canonical(R), print_canonical(c)
        monkeypatch.setattr(rational, "_integer_numerators", refuse)
        monkeypatch.setattr(rational, "_clear", refuse)
        assert (parse_qyt(texts[0]), parse_qy(texts[1])) == (R, c)


class TestByteStable:
    WITNESS = ("the linear system for the up-step is inconsistent; "
               "unmatched right-hand side -1/8/(y + 3)")

    def test_infertile_witness(self):
        _, report = generate_range("1/(t-2)", 0, 0, 1)
        assert report.failure_witness == self.WITNESS

    def test_infertile_cli_message(self, capsys):
        assert run(["quatuor", "gen", "--r0", "1/(t-2)", "--level", "0",
                    "--range", "0:1"]) == 3
        assert capsys.readouterr().err == (
            "fertile on [0, 0]; infertile at level 1: " + self.WITNESS + "\n")


def reference_level_below(R: RatFunc) -> RatFunc:
    """The neighbor relation in four normalised steps."""
    Y, T = QYT.coerce(QY.gen), QYT.gen
    return (Y * R + T * R.diff()) / (1 - T)


def reference_common_denominator(values):
    """Numerators in Q[y] over the monic lcm, by Fraction long division."""
    den = UniPoly(QQ, "y", [1])
    for v in values:
        if v.den.degree > 0:
            den = v.den if den.degree == 0 else poly_lcm(den, v.den)
    return [v.num * den.exact_div(v.den) for v in values], den


def tower_levels():
    for gen, level in ((diese_generator(), 0), (parse_qyt("1/y"), 1)):
        q, report = generate_range(gen, level, -8, 8)
        assert report.fertile
        yield from (f.R for f in q.functions)


class TestTowerOnce:
    def check_numerators(self, values):
        rows, den = rational._integer_numerators(QY, values)
        lead = den[-1]
        nums, ref_den = reference_common_denominator(values)
        assert UniPoly(QQ, "y", [Fraction(c, lead) for c in den]) == ref_den
        assert [UniPoly(QQ, "y", [Fraction(c, lead) for c in row])
                for row in rows] == nums

    def test_random(self):
        rng = random.Random(15)
        for _ in range(40):
            R = random_qyt(rng)
            self.check_numerators(list(R.num.coeffs + R.den.coeffs))
            if not R.is_zero:
                assert quatuor._level_below(R) == reference_level_below(R)

    def test_integer_numerators_shared_factors(self):
        # repeated and shared factors, a non-monic cleared lcm, zero entries
        values = [parse_qy(e) for e in (
            "1/(y+1)^2", "3/((y+1)*(2*y-3))", "(y-1)/(2*y-3)^3", "5/7",
            "y^2/3", "0", "(y^2 + 1/3)/((y+1)^3*(3*y^2+1))", "1/(6*y-9)")]
        self.check_numerators(values)
        self.check_numerators(values[::-1])

    def test_levels(self):
        for R in tower_levels():
            assert quatuor._level_below(R) == reference_level_below(R)
            self.check_numerators(list(R.num.coeffs + R.den.coeffs))

    def test_relation_evaluated_once_per_pair(self, monkeypatch):
        calls = []
        level_below = quatuor._level_below
        monkeypatch.setattr(quatuor, "_level_below",
                            lambda R: calls.append(R) or level_below(R))
        q, _ = generate_range(diese_generator(), 0, -3, 3)
        assert len(calls) == 6      # 3 step_down, 3 step_up back-checks
        calls.clear()
        shift(q, 2)
        assert calls == []

    def test_untrusted_pairs_still_checked(self):
        good = diese_quatuor(-1, 1)
        bad = (good.functions[0], good.functions[2], good.functions[1])
        with pytest.raises(VerificationError):
            Quatuor(-1, bad, 0)
        with pytest.raises(VerificationError):
            linear_combine([(1, Quatuor._checked(-1, bad, 0))])
        text = quatuor_to_json(Quatuor._checked(-1, bad, 0))
        with pytest.raises(VerificationError):
            quatuor_from_json(text)
