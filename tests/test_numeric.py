"""Certified evaluation: enclosure soundness, oracles, certificates."""

import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv, mp

from kolberg import (
    QQ, CoeffSeq, DomainError, SeriesSpec,
    check_identity, diese_quatuor, enclose_fraction, eval_F_closed,
    eval_H_series, eval_theorem_series, exp_ub, E_UB, from_associated,
    invert_xt, invert_xt_certified, kolberg_quatuor, parse_poly,
    require_x_domain, taylor_series, tol_fraction, tree_t_interval,
)
from kolberg import numeric
from kolberg.numeric import _iv_hi, _iv_lo, _iv_mid, _working


def mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def mpf_x(fr: Fraction):
    return mp.mpf(fr.numerator) / fr.denominator


class TestEnclosures:
    def test_enclose_fraction_contains_value(self):
        rng = random.Random(17)
        with _working(128):
            for _ in range(300):
                fr = Fraction(rng.getrandbits(300) - (1 << 299),
                              rng.getrandbits(280) + 1)
                e = enclose_fraction(fr)
                assert mpf_to_fraction(_iv_lo(e)) <= fr
                assert fr <= mpf_to_fraction(_iv_hi(e))

    def test_exp_ub_is_upper_bound(self):
        mp.prec = 300
        for z in [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(7, 2),
                  Fraction(5)]:
            ub = exp_ub(z)
            assert mpf_x(Fraction(ub)) >= mp.exp(mpf_x(z))
            # and reasonably tight
            assert mpf_x(Fraction(ub)) <= mp.exp(mpf_x(z)) * (1 + mp.mpf(1e-9))

    @pytest.mark.parametrize("z", [Fraction(100), Fraction(3000),
                                   Fraction(200001, 3)])
    def test_exp_ub_squared_is_upper_bound(self, z):
        # above 64 the bound comes from repeated squaring; compare it, as
        # an interval, with an interval enclosure of e^z
        ub = exp_ub(z)
        with _working(512):
            ub_iv = iv.mpf(ub.numerator) / iv.mpf(ub.denominator)
            e_iv = iv.exp(iv.mpf(z.numerator) / iv.mpf(z.denominator))
            assert _iv_lo(ub_iv) >= _iv_hi(e_iv)
            assert _iv_hi(ub_iv) <= _iv_lo(e_iv) * (1 + mp.mpf(10) ** -20)

    def test_e_ub_brackets_e(self):
        assert Fraction(27182, 10000) < E_UB < Fraction(27183, 10000)

    def test_domain_gate(self):
        # 1/e = 0.36787944...
        for good in [Fraction(36, 100), Fraction(-36, 100),
                     Fraction(3678, 10000), Fraction(-3678, 10000)]:
            assert require_x_domain(good) == good
        for bad in [Fraction(0), Fraction(37, 100), Fraction(1, 2),
                    Fraction(-2), Fraction(3679, 10000),
                    Fraction(-3679, 10000)]:
            with pytest.raises(DomainError):
                require_x_domain(bad)

    def test_tol_fraction(self):
        assert tol_fraction("1e-30") == Fraction(1, 10 ** 30)
        assert tol_fraction(Fraction(1, 7)) == Fraction(1, 7)
        with pytest.raises(ValueError):
            tol_fraction("0")

    def test_tol_fraction_limits(self):
        # digits and exponent are bounded before a power of ten is built
        assert tol_fraction("1e-100000") == Fraction(1, 10 ** 100000)
        assert tol_fraction("9" * 4300) == 10 ** 4300 - 1
        for bad in ("1e-100001", "1e100001", "1e-10000000", "1" * 4301):
            with pytest.raises(ValueError, match="exceeds"):
                tol_fraction(bad)


class TestTreeFunction:
    def test_against_lambertw(self):
        mp.prec = 350
        for xs in ["1/10", "1/5", "-1/5", "1/3", "-9/25"]:
            x = Fraction(xs)
            t = invert_xt(x, 256)
            w = -mpmath.lambertw(-mpf_x(x))
            assert abs(t - w) < mpmath.ldexp(1, -250)

    def test_interval_brackets_root(self):
        mp.prec = 350
        for xs in ["1/10", "-1/5"]:
            x = Fraction(xs)
            box = tree_t_interval(x, 192)
            w = -mpmath.lambertw(-mpf_x(x))
            assert _iv_lo(box) <= w <= _iv_hi(box)

    def test_residual_certificate(self):
        _, resid = invert_xt_certified(Fraction(1, 7), 256)
        assert resid < mpmath.ldexp(1, -248)

    def test_zero(self):
        assert invert_xt(Fraction(0), 128) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            invert_xt(Fraction(1, 2), 128)

    def test_defining_equation(self):
        mp.prec = 320
        x = Fraction(3, 10)
        t = invert_xt(x, 256)
        assert abs(t * mp.exp(-t) - mpf_x(x)) < mpmath.ldexp(1, -240)


def brute_sum(term, n_start, count):
    S = Fraction(0)
    for n in range(n_start, n_start + count):
        S += term(n)
    return S


def family_term(spec: SeriesSpec):
    a, r, P, x = spec.a, spec.r, spec.P, spec.x

    def pw(base, e):
        if base == 0:
            return Fraction(1) if e == 0 else Fraction(0)
        return base ** e

    if spec.family == "kolberg":
        return lambda n: (pw(n + r, n - a) * P.eval(Fraction(n)) * x ** n
                          / math.factorial(n)), 1
    if spec.family == "sharp":
        return lambda n: ((r * r + 2 * n * r + 2 * n * n - n)
                          * pw(n + r, n - a) * P.eval(Fraction(n)) * x ** n
                          / math.factorial(n)), 0
    return lambda n: ((n - 1) * pw(Fraction(n), n + a)
                      * P.eval(Fraction(1, n)) * x ** n
                      / math.factorial(n)), 2


class TestTheoremSeries:
    def test_tree_function_identity(self):
        res = eval_theorem_series(
            SeriesSpec("kolberg", Fraction(1, 10), a=1), 256, "1e-40")
        t = invert_xt(Fraction(1, 10), 320)
        with _working(256):
            assert abs(res.value - t) < mpmath.mpf("1e-40")

    def test_geometric_identity(self):
        # a=0, r=0: sum n^n x^n / n! = t/(1-t)
        x = Fraction(-1, 5)
        res = eval_theorem_series(SeriesSpec("kolberg", x, a=0), 256, "1e-38")
        t = invert_xt(x, 320)
        with _working(256):
            assert abs(res.value - t / (1 - t)) < mpmath.mpf("1e-37")

    def test_error_bound_sound_random(self):
        # the certified bound must cover the gap to a much longer sum
        rng = random.Random(31)
        mp.prec = 700
        for _ in range(40):
            family = rng.choice(["kolberg", "sharp", "example0"])
            a = rng.randint(-2, 3)
            r = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 5]))
            if family == "kolberg" and r.denominator == 1 \
                    and a >= 2 and -(a - 1) <= r <= -1:
                r += Fraction(1, 2)
            P = parse_poly(f"{rng.randint(-3, 3)}*n^2 + {rng.randint(-3, 3)}")
            x = Fraction(rng.randint(1, 30), 100) * rng.choice([1, -1])
            spec = SeriesSpec(family, x, a=a, r=r, P=P)
            try:
                res = eval_theorem_series(spec, 256, "1e-25")
            except DomainError:
                continue  # term at n + r = 0 with negative exponent
            term, n_start = family_term(spec)
            far = brute_sum(term, n_start, res.terms_used + 150)
            gap = abs(mpf_x(far) - mpmath.mpf(res.value))
            assert gap <= mpmath.mpf(res.error_bound) * (1 + mp.mpf(1e-6)) \
                + mpmath.ldexp(1, -600), (family, a, str(r), str(x))

    def test_sharp_term_zero_power(self):
        # n = 0 with r = 0: base 0, exponent -a
        res = eval_theorem_series(
            SeriesSpec("sharp", Fraction(1, 10), a=0, r=Fraction(0)),
            128, "1e-20")
        assert res.terms_used >= 1

    def test_sharp_negative_power_of_zero_rejected(self):
        with pytest.raises(DomainError):
            eval_theorem_series(
                SeriesSpec("sharp", Fraction(1, 10), a=2, r=Fraction(0)),
                128, "1e-20")

    def test_excluded_r(self):
        with pytest.raises(DomainError):
            eval_theorem_series(
                SeriesSpec("kolberg", Fraction(1, 10), a=3, r=Fraction(-2)),
                128)

    def test_custom_h_matches_builtin(self):
        spec = SeriesSpec(
            "custom-H", Fraction(1, 10),
            supplier=lambda n: Fraction(n) ** (n - 1),
            bound_K=Fraction(1), bound_delta=-1, bound_from=1)
        res = eval_theorem_series(spec, 256, "1e-35")
        ref = eval_theorem_series(
            SeriesSpec("kolberg", Fraction(1, 10), a=1), 256, "1e-35")
        with _working(256):
            assert abs(res.value - ref.value) \
                <= res.error_bound + ref.error_bound

    def test_custom_h_needs_model(self):
        with pytest.raises(ValueError):
            SeriesSpec("custom-H", Fraction(1, 10),
                       supplier=lambda n: Fraction(1))

    def test_determinism(self):
        spec = SeriesSpec("kolberg", Fraction(1, 7), a=1, r=Fraction(1, 3))
        a = eval_theorem_series(spec, 256, "1e-30")
        b = eval_theorem_series(spec, 256, "1e-30")
        assert mpmath.nstr(a.value, 70) == mpmath.nstr(b.value, 70)
        assert a.terms_used == b.terms_used

    def test_precision_consistency(self):
        spec = SeriesSpec("kolberg", Fraction(1, 7), a=1, r=Fraction(1, 3))
        lo = eval_theorem_series(spec, 128, "1e-25")
        hi = eval_theorem_series(spec, 512, "1e-25")
        with _working(512):
            assert abs(mpmath.mpf(lo.value) - hi.value) \
                <= mpmath.mpf(lo.error_bound) + mpmath.mpf(hi.error_bound)

    def test_tolerance_unreachable_at_low_precision(self):
        with pytest.raises(DomainError):
            eval_theorem_series(
                SeriesSpec("kolberg", Fraction(1, 10), a=0), 64, "1e-40")

    def test_near_domain_edge(self):
        # x = 9/25 = 0.36 sits close to 1/e; the ratio is ~0.98 so the
        # sum is long but must still terminate with a sound bound
        x = Fraction(9, 25)
        res = eval_theorem_series(SeriesSpec("kolberg", x, a=1), 256,
                                  "1e-10")
        t = invert_xt(x, 320)
        with _working(256):
            assert abs(res.value - t) < mpmath.mpf("1e-10")
        assert res.terms_used > 400


class TestFixedPointSum:
    """The floored fixed-point sum encloses the exact partial sum."""

    def enclosure(self, spec, N, precision, tol):
        terms, n_start, *_ = numeric._family_plan(spec)
        with _working(precision):
            return numeric._ball_sum(terms(N), N - n_start + 1,
                                     tol_fraction(tol), precision)

    def assert_encloses(self, enc, exact):
        assert mpf_to_fraction(_iv_lo(enc)) <= exact \
            <= mpf_to_fraction(_iv_hi(enc))

    def test_seeded_specs_all_families(self):
        rng = random.Random(2021)
        seen = set()
        for _ in range(40):
            family = rng.choice(["kolberg", "sharp", "example0", "custom-H"])
            x = Fraction(rng.randint(1, 30), 100) * rng.choice([1, -1])
            if family == "custom-H":
                e = rng.randint(-2, 1)
                def supplier(n, e=e):
                    return Fraction(n) ** (n + e)

                spec = SeriesSpec(family, x, supplier=supplier,
                                  bound_K=Fraction(1), bound_delta=e,
                                  bound_from=1)
                term = (lambda n, s=supplier, x=x: s(n) * x ** n
                        / math.factorial(n))
                n_start = 1
            else:
                a = rng.randint(-2, 4)
                r = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3]))
                P = parse_poly(
                    f"{rng.randint(-3, 3)}*n + {rng.randint(-3, 3)}")
                spec = SeriesSpec(family, x, a=a, r=r, P=P)
                term, n_start = family_term(spec)
            precision = rng.choice([64, 128, 256])
            tol = rng.choice(["1e-12", "1e-25"])
            try:
                res = eval_theorem_series(spec, precision, tol)
            except DomainError:
                continue
            N = res.terms_used
            enc = self.enclosure(spec, N, precision, tol)
            self.assert_encloses(
                enc, brute_sum(term, n_start, N - n_start + 1))
            with _working(precision):
                assert res.value == _iv_mid(enc)
            seen.add(family)
            if family in ("kolberg", "sharp") and spec.a > n_start:
                seen.add("negative exponent")
            if x < 0:
                seen.add("negative x")
        assert seen == {"kolberg", "sharp", "example0", "custom-H",
                        "negative exponent", "negative x"}

    def test_tiny_sum_width_set_by_tolerance(self):
        # |S| ~ 1e-40: a width of precision + guard bits alone would give
        # a fixed-point radius far above the tolerance
        spec = SeriesSpec("kolberg", Fraction(1, 10 ** 40), a=1)
        res = eval_theorem_series(spec, 64, "1e-60")
        N = res.terms_used
        assert numeric._fixed_bits(N, tol_fraction("1e-60"), 64) \
            > 64 + numeric.GUARD_BITS + N.bit_length()
        term, n_start = family_term(spec)
        enc = self.enclosure(spec, N, 64, "1e-60")
        self.assert_encloses(enc, brute_sum(term, n_start, N))
        assert res.error_bound < mpmath.mpf("1e-60")

    def test_h_series_sum(self):
        q = kolberg_quatuor(-2, 2)
        r, x = Fraction(1, 3), Fraction(-1, 5)
        res = eval_H_series(q.level(-1), r, x, None, 256, "1e-30")
        R_t = numeric.substitute_y(q.level(-1).R, r)
        series = taylor_series(R_t, res.terms_used, r)
        u = from_associated(CoeffSeq("v", QQ, tuple(
            c * math.factorial(n) for n, c in enumerate(series)))).values
        exact = sum(c * x ** n / math.factorial(n) for n, c in enumerate(u))
        terms = numeric._h_terms(
            numeric._h_u_values(R_t, r, res.terms_used), x)
        with _working(256):
            enc = numeric._ball_sum(terms, len(u), tol_fraction("1e-30"), 256)
            assert res.value == _iv_mid(enc)
        self.assert_encloses(enc, exact)


def within(v, exact, rho) -> bool:
    """v <= exact <= v (1 + rho) for positive integer pairs v and exact."""
    (vn, vd), (en, ed), rho = v, exact, Fraction(rho)
    return (vn * ed <= en * vd and en * vd * rho.denominator
            <= vn * ed * (rho.denominator + rho.numerator))


def dyadic_pair(m: int, x: int) -> tuple:
    return (m << x, 1) if x >= 0 else (m, 1 << -x)


def family_pairs(spec: SeriesSpec, n_start: int, N: int):
    """The family terms n_start..N as unreduced integer pairs (num, den),
    den > 0, straight from the definitions in SeriesSpec."""
    a, r, P, x = spec.a, spec.r, spec.P, spec.x
    xn, xd = x.numerator ** n_start, x.denominator ** n_start
    fact = math.factorial(n_start)
    for n in range(n_start, N + 1):
        if n > n_start:
            xn, xd, fact = xn * x.numerator, xd * x.denominator, fact * n
        if spec.family == "example0":
            p, base, e = (n - 1) * P.eval(Fraction(1, n)), Fraction(n), n + a
        else:
            p, base, e = P.eval(Fraction(n)), n + r, n - a
            if spec.family == "sharp":
                p *= r * r + 2 * n * r + 2 * n * n - n
        bn, bd = (base.numerator, base.denominator) if e >= 0 \
            else (base.denominator, base.numerator)
        num = p.numerator * bn ** abs(e) * xn
        den = p.denominator * bd ** abs(e) * xd * fact
        yield (-num, -den) if den < 0 else (num, den)


class TestTermKernel:
    """Each floored factor of the fixed-point kernel, and each term, lies
    within a factor 1 + rho above its value; rho = 0 must not suffice."""

    def test_power_floor(self):
        rng = random.Random(41)
        checks = []
        for _ in range(60):
            b = rng.randint(1, 1 << 17)
            e = rng.choice([rng.randint(0, 40), rng.randint(41, 7000)])
            G = rng.choice([64, 200, 700])
            m, x, f = numeric._power_floor(b, e, G)
            assert f <= 2 * e
            rho = Fraction(1, 1 << numeric._rho_bits(f, G))
            checks.append((dyadic_pair(m, x), (b ** e, 1), rho))
        assert all(within(*c) for c in checks)
        # fault: the floors' error dropped
        assert not all(within(v, exact, 0) for v, exact, _ in checks)

    def test_running_product(self):
        # coeff(n) = 1 leaves the running product w^n / n! as the term;
        # the first 100 terms and every 37th are checked.  With w = 300
        # the terms pass 2^400, where the term width G meets the running
        # product's, so its n floors show.
        for w in (Fraction(1, 3), Fraction(-2, 7), Fraction(300)):
            source = numeric._kernel_terms(lambda n: (1, 1, 1, 0),
                                           w.numerator, w.denominator, 0,
                                           7000)
            checks = []
            wn, dn = 1, 1
            for n, (num, den, rho) in enumerate(source(400)):
                if n:
                    wn, dn = wn * w.numerator, dn * w.denominator * n
                assert (num < 0) == (wn < 0)
                if n < 100 or n % 37 == 0:
                    checks.append(((abs(num), den), (abs(wn), dn), rho))
            assert all(within(*c) for c in checks)
            assert not all(within(v, exact, 0) for v, exact, _ in checks)

    def test_ball_sum_widens_by_rho(self):
        # 1 within [1, 3/2] and -1/3 within [-5/12, -1/3]: the sum can be
        # anywhere in [7/12, 7/6], so both ends must be in the ball
        def terms(W):
            return iter([(1, 1, Fraction(1, 2)), (-1, 3, Fraction(1, 4))])

        with _working(64):
            enc = numeric._ball_sum(terms, 2, Fraction(1, 10 ** 6), 64)
        assert mpf_to_fraction(_iv_lo(enc)) <= Fraction(7, 12)
        assert Fraction(7, 6) <= mpf_to_fraction(_iv_hi(enc))

    def test_families_enclose_exact_sums(self):
        # x = 1/3, tol 1e-100: 2200-2900 terms with powers of up to 30k
        # bits.  The exact sum is bracketed by the sums of the floors and
        # ceilings of the exact terms at 2^-(W + 64).
        P = parse_poly("2*n^2 - 3*n + 1/2")
        tol = tol_fraction("1e-100")
        for family, a, r in (("kolberg", -1, Fraction(-7, 2)),
                             ("sharp", -2, Fraction(5, 3)),
                             ("example0", -3, Fraction(0))):
            spec = SeriesSpec(family, Fraction(1, 3), a=a, r=r, P=P)
            res = eval_theorem_series(spec, 384, "1e-100")
            terms, n_start, *_ = numeric._family_plan(spec)
            N, count = res.terms_used, res.terms_used - n_start + 1
            with _working(384):
                enc = numeric._ball_sum(terms(N), count, tol, 384)
                assert res.value == _iv_mid(enc)
            K = numeric._fixed_bits(count, tol, 384) + 64
            lo = hi = 0
            for num, den in family_pairs(spec, n_start, N):
                floor, rem = divmod(num << K, den)
                lo, hi = lo + floor, hi + floor + (rem != 0)
            assert mpf_to_fraction(_iv_lo(enc)) <= Fraction(lo, 1 << K)
            assert Fraction(hi, 1 << K) <= mpf_to_fraction(_iv_hi(enc))


class TestHSeries:
    def test_matches_closed_form_sum(self):
        mp.prec = 500
        q = diese_quatuor(-2, 3)
        r = Fraction(1, 2)
        rr = mpf_x(r)
        for lvl, xs in [(-2, "1/5"), (0, "-1/5"), (3, "1/10")]:
            x = Fraction(xs)
            res = eval_H_series(q.level(lvl), r, x, None, 256, "1e-34")
            brute = mp.mpf(0)
            for n in range(0, 250):
                u0 = (rr + 2) * (rr * rr + 2 * n * rr + 2 * n * n - n) \
                    * (rr + n) ** (n - 3)
                brute += u0 * (rr + n) ** (-lvl) * mpf_x(x) ** n \
                    / mp.factorial(n)
            assert abs(res.value - brute) < mpmath.mpf("1e-30"), (lvl, xs)

    def test_explicit_order_tail_still_sound(self):
        mp.prec = 500
        q = kolberg_quatuor(-2, 2)
        x = Fraction(1, 5)
        res = eval_H_series(q.level(0), Fraction(1, 3), x, N=25,
                            precision=256)
        ref = eval_H_series(q.level(0), Fraction(1, 3), x, None, 256,
                            "1e-45")
        assert abs(res.value - ref.value) \
            <= mpmath.mpf(res.error_bound) + mpmath.mpf(ref.error_bound)

    def test_pole_at_zero(self):
        from kolberg import AdHocFunction, parse_qyt, PoleError
        F = AdHocFunction(parse_qyt("1/t"))
        with pytest.raises(PoleError):
            eval_H_series(F, Fraction(1, 2), Fraction(1, 10))

    def test_precision_cannot_meet_tolerance(self):
        # 64 bits leave a conversion radius near 1e-30 on a sum of order
        # one; the certified sums and the certificate refuse it rather
        # than widen the bound
        F = kolberg_quatuor(-2, 2).level(-2)
        spec = SeriesSpec("kolberg", Fraction(1, 10), a=1, r=Fraction(1, 2))
        calls = [
            lambda: eval_H_series(F, Fraction(1, 2), Fraction(1, 10), None,
                                  64, "1e-60"),
            lambda: eval_theorem_series(spec, 64, "1e-60"),
            lambda: check_identity(F, Fraction(1, 2), Fraction(1, 10),
                                   "1e-60", 64),
        ]
        for call in calls:
            with pytest.raises(DomainError,
                               match="precision 64 cannot meet tolerance"):
                call()

    def test_precision_range_refused_before_work(self, monkeypatch):
        def no_plan(*args, **kwargs):
            raise AssertionError("planned past the precision check")

        monkeypatch.setattr(numeric, "_h_plan", no_plan)
        monkeypatch.setattr(numeric, "_family_plan", no_plan)
        F = kolberg_quatuor(-2, 2).level(-2)
        spec = SeriesSpec("kolberg", Fraction(1, 10), a=1, r=Fraction(1, 2))
        for bits, match in ((numeric.MAX_PRECISION + 1, "at most"),
                            (numeric.MIN_PRECISION - 1, "at least")):
            for call in (
                    lambda: eval_H_series(F, Fraction(1, 2), Fraction(1, 10),
                                          None, bits),
                    lambda: eval_theorem_series(spec, bits),
                    lambda: check_identity(F, Fraction(1, 2),
                                           Fraction(1, 10), "1e-30", bits)):
                with pytest.raises(ValueError, match=match):
                    call()


class TestIdentityCertificate:
    def test_pass_grid(self):
        q = diese_quatuor(-2, 3)
        for lvl in (-2, 1, 3):
            for xs in ("1/10", "-1/5"):
                cert = check_identity(q.level(lvl), Fraction(1, 2),
                                      Fraction(xs), "1e-30", 256)
                assert cert.passed, (lvl, xs, str(cert))

    def test_forms(self):
        q = diese_quatuor(-2, 3)
        assert check_identity(q.level(0), Fraction(1, 2),
                              Fraction(1, 5)).form == "K"
        assert check_identity(q.level(0), Fraction(1, 2),
                              Fraction(-1, 5)).form == "G"
        assert check_identity(q.level(0), Fraction(2),
                              Fraction(-1, 5)).form == "K"

    def test_fault_injection_fails(self):
        q = diese_quatuor(-2, 3)
        cert = check_identity(q.level(0), Fraction(1, 2), Fraction(1, 5),
                              "1e-30", 256, perturb={3: Fraction(1, 10 ** 6)})
        assert not cert.passed
        assert cert.residual > mpmath.mpf("1e-12")

    def test_tiny_injection_below_tol_passes(self):
        q = diese_quatuor(-2, 3)
        cert = check_identity(q.level(0), Fraction(1, 2), Fraction(1, 5),
                              "1e-10", 256, perturb={3: Fraction(1, 10 ** 14)})
        assert cert.passed

    def test_wrong_function_fails(self):
        from kolberg import AdHocFunction, parse_qyt
        F = AdHocFunction(parse_qyt("1 + 2/y + t^2 + t^3"))
        cert = check_identity(F, Fraction(1, 2), Fraction(1, 5),
                              "1e-30", 256)
        # still an identity by construction of the series from F itself,
        # so this must PASS: the certificate checks internal consistency
        assert cert.passed

    def test_certificate_repr(self):
        q = diese_quatuor(0, 0)
        cert = check_identity(q.level(0), Fraction(1, 3), Fraction(1, 10))
        assert "PASS" in str(cert) and "residual" in str(cert)


class TestHWork:
    """numeric.MAX_H_WORK refuses an H series before any u_n is built."""

    def test_refused_at_once(self, monkeypatch):
        # N = 7026 at r = 10^5: it ran for more than 55 minutes unrefused
        def fail(*args):
            raise AssertionError("u_n built")

        monkeypatch.setattr(numeric, "_h_u_values", fail)
        F = kolberg_quatuor(-2, 2).level(1)
        r, x = Fraction(10 ** 5), Fraction(1, 10 ** 6)
        for call in (lambda: check_identity(F, r, x, "1e-10"),
                     lambda: eval_H_series(F, r, x, target_tol="1e-10"),
                     lambda: eval_H_series(F, r, x, 7026)):
            start = time.perf_counter()
            with pytest.raises(DomainError, match="estimated work"):
                call()
            assert time.perf_counter() - start < 1

    def test_limit_is_inclusive(self, monkeypatch):
        F, r, x = diese_quatuor(0, 0).level(0), Fraction(1, 2), Fraction(1, 5)
        N = check_identity(F, r, x).terms_used
        work = numeric._h_work(N, r, x)
        assert work <= numeric.MAX_H_WORK
        monkeypatch.setattr(numeric, "MAX_H_WORK", work)
        assert check_identity(F, r, x).passed
        monkeypatch.setattr(numeric, "MAX_H_WORK", work - 1)
        with pytest.raises(DomainError, match="estimated work"):
            check_identity(F, r, x)


class TestClosedEval:
    def test_polynomial_point(self):
        from kolberg import parse_qyt
        mp.prec = 300
        t = mp.mpf(1) / 4
        val = eval_F_closed(parse_qyt("1 + 2/y + t^2"), Fraction(2), t, 256)
        expect = t ** 2 * (1 + mp.mpf(1) + t * t)  # y=2: 1 + 1 + t^2, times t^2
        assert abs(val - expect) < mpmath.ldexp(1, -240)

    def test_negative_t_fractional_power_rejected(self):
        from kolberg import parse_qyt
        with pytest.raises(DomainError):
            eval_F_closed(parse_qyt("1 + t"), Fraction(1, 2),
                          mp.mpf(-0.25), 128)

    def test_pole_straddle(self):
        from kolberg import parse_qyt, PoleError
        with pytest.raises(PoleError):
            eval_F_closed(parse_qyt("1/(1 - t)"), Fraction(1),
                          mp.mpf(1.0), 128)


class TestThreads:
    def test_concurrent_series_match_serial(self):
        # _working sets the process-wide mpmath precision; four threads at
        # 64 and 512 bits must see the results of serial calls, and leave
        # both precisions as they found them
        calls = [
            (SeriesSpec("kolberg", Fraction(1, 10), a=1), 64, "1e-15"),
            (SeriesSpec("sharp", Fraction(-1, 5), a=3, r=Fraction(1)),
             512, "1e-100"),
        ]

        def key(res):
            return res.value, res.error_bound, res.terms_used

        serial = [key(eval_theorem_series(*c)) for c in calls]
        mp_prec, iv_prec = mp.prec, iv.prec
        results, errors = [], []

        def worker(i):
            try:
                for j in range(30):
                    k = (i + j) % 2
                    results.append((k, key(eval_theorem_series(*calls[k]))))
            except Exception as exc:      # reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 120
        assert all(got == serial[k] for k, got in results)
        assert (mp.prec, iv.prec) == (mp_prec, iv_prec)
