"""Certified numeric evaluation.

Every reported value comes with an error bound that is sound by
construction.  Series are summed as fixed-point balls.  Each term
reaches the sum as a lower bound num/den on its magnitude, with its
sign, plus a relative error rho: the exact term lies within a factor
1 + rho of num/den.  The terms of the built-in families come from a
fixed-point kernel (_kernel_terms): powers and the running x^n/n! are
carried as mantissas of about W + 64 bits with a binary exponent,
floored after each product, and rho counts those floors.  The H series
and custom-H terms are exact integer pairs, rho = 0.  The H-series pairs
are built on integers from end to end: the Taylor recurrence gives
v_m = V_m / D over one denominator, the transform kernel of assoc gives
u_n = U_n / D over the same D (_h_u_values), and term n is
(U_n xp^n, D xq^n n!) (_h_terms).  No step reduces or normalises, and
none needs to: a floor below depends only on the value of num/den, so
the ball is the one the reduced u_n give.

Each num/den is floored to W fractional bits, (num << W) // den.  A
floor errs by less than one unit of 2^-W (by nothing when the division
is exact), so for the integer sum S of the floors of count terms the
exact partial sum lies in [S, S + count] * 2^-W, widened by the sum of
the terms' |num/den| * rho; that interval is converted to binary with
outward rounding.  W is chosen from the term count, the tolerance and
the precision,

    W = max(precision + GUARD_BITS, ceil(log2(count / tol)) + 16)
        + bitlen(count),

so the fixed-point radius count * 2^-W is below tol * 2^-16 even when
the sum itself is tiny.  The error budget is the series tail plus the
fixed-point radius plus the conversion rounding.  Series tails are
bounded by elementary inequalities evaluated as exact rationals
(rounded only upward), and the few genuinely irrational quantities
(e^t, t^r, the tree-function branch) are enclosed in interval
arithmetic at the working precision.  The working precision is the
requested precision, MIN_PRECISION to MAX_PRECISION bits, plus a fixed
number of guard bits.

Tail bounds use three facts, each elementary:
  * n! >= (n/e)^n, since e^n = sum n^k/k! >= n^n/n!;
  * (1 + c/n)^n <= e^c for c >= 0;
  * the Cauchy bound |g_n| <= max_{|t|=tau} |G(t)| / tau^n for the
    Taylor coefficients of a function analytic on |t| <= tau.

Every certified series, a family of eval_theorem_series or the H series
of eval_H_series and check_identity, has one tail form: its terms are
dominated by K0 n^delta q^n with q < 1, and _tail_after bounds the sum
of that form beyond N.  One routine, _series_order, chooses N as the
smallest order whose tail is below the target, before any term is
built and up to the term cap _TERM_CAP.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import iv, mp

from .assoc import _binomial_columns
from .parsing import MAX_DIGITS
from .quatuor import AdHocFunction, _taylor_v_integers
from .rational import (
    QQ, QYT, DomainError, PoleError, RatFunc, UniPoly,
    rational_roots, substitute_y,
)

GUARD_BITS = 32
MAX_TOL_EXPONENT = 100_000     # 10^100000 takes about 10 ms to build
# Working precision range in bits.  mpmath runs at the precision and the
# fixed-point width follows it; at 65536 bits `eval kolberg --x 1/10` took
# 0.5 s and `verify identity` on the dièse generator at x = 1/10 took
# 4.8 s, against 1.0 s and 10.4 s at 100000 bits (2-vCPU Xeon VM, Python
# 3.11, mpmath without gmpy2).
MIN_PRECISION = 64
MAX_PRECISION = 65536


# mpmath's precision is global to the process; _working holds this lock
# for its whole block so that concurrent callers run one at a time.  It is
# reentrant because blocks nest in one thread (tree_t_interval inside
# check_identity).
_PRECISION_LOCK = threading.RLock()


def _require_bits(precision: int):
    """ValueError unless MIN_PRECISION <= precision <= MAX_PRECISION."""
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
    if precision > MAX_PRECISION:
        raise ValueError(f"precision must be at most {MAX_PRECISION} bits")


class _working:
    """Temporarily raise both mpmath contexts to precision + guard."""

    def __init__(self, precision: int):
        _require_bits(precision)
        self.prec = precision + GUARD_BITS

    def __enter__(self):
        _PRECISION_LOCK.acquire()
        self._mp_old = mp.prec
        self._iv_old = iv.prec
        mp.prec = self.prec
        iv.prec = self.prec
        return self

    def __exit__(self, *exc):
        mp.prec = self._mp_old
        iv.prec = self._iv_old
        _PRECISION_LOCK.release()
        return False


def _iv_lo(x) -> mpmath.mpf:
    return mpmath.make_mpf(x._mpi_[0])


def _iv_hi(x) -> mpmath.mpf:
    return mpmath.make_mpf(x._mpi_[1])


def _iv_mid(x) -> mpmath.mpf:
    return (_iv_lo(x) + _iv_hi(x)) / 2


def _iv_rad(x) -> mpmath.mpf:
    return (_iv_hi(x) - _iv_lo(x)) / 2


def _iv_abs_sup(x) -> mpmath.mpf:
    return max(abs(_iv_lo(x)), abs(_iv_hi(x)))


def _mpf_from_fraction(fr: Fraction) -> mpmath.mpf:
    return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


def enclose_fraction(fr) -> "iv.mpf":
    """Interval guaranteed to contain the exact rational.

    The midpoint suffers at most three roundings (numerator,
    denominator, quotient), each within 2^-prec relative error, so a
    half-width of |v| * 2^-(prec-3) is a safe outward margin.
    """
    fr = Fraction(fr)
    if fr == 0:
        return iv.mpf(0)
    v = _mpf_from_fraction(fr)
    w = mpmath.ldexp(abs(v), -(mp.prec - 3))
    return iv.mpf([v - w, v + w])


def _pow_iv(base, r: Fraction):
    """base^r for an interval base; fractional r needs a positive base."""
    if r.denominator == 1:
        return base ** int(r)
    if not _iv_lo(base) > 0:
        raise DomainError(
            "fractional power needs a strictly positive base")
    return iv.exp(enclose_fraction(r) * iv.log(base))


def _eval_poly_iv(p: UniPoly, t):
    acc = iv.mpf(0)
    for c in reversed(p.coeffs):
        acc = acc * t + enclose_fraction(c)
    return acc


def _eval_ratfunc_iv(R: RatFunc, t):
    num = _eval_poly_iv(R.num, t)
    den = _eval_poly_iv(R.den, t)
    if _iv_lo(den) <= 0 <= _iv_hi(den):
        raise PoleError("denominator interval straddles zero")
    return num / den


# -- exact rational upper bounds ------------------------------------------


def _dyadic_up(fr: Fraction, bits: int = 64) -> Fraction:
    """Round a nonnegative rational up to a short dyadic, keeping >=."""
    if fr == 0:
        return Fraction(0)
    shift = bits - (fr.numerator.bit_length() - fr.denominator.bit_length())
    if shift >= 0:
        num = -((-fr.numerator << shift) // fr.denominator)
        return Fraction(num, 1 << shift)
    num = -((-fr.numerator) // (fr.denominator << -shift))
    return Fraction(num << -shift)


# Largest argument of exp_ub, refused above before any work: the bound on
# e^z is an integer of about 1.44 z bits.  At z = 10^6 exp_ub took 6 ms
# and kolberg/sharp family sums with r = 10^6 took 0.05-0.12 s (2-vCPU
# Xeon VM, Python 3.11); at z = 10^7 exp_ub took 0.09 s and one such sum
# 1.9 s.
MAX_EXP_ARG = 1_000_000


def exp_ub(z: Fraction) -> Fraction:
    """A rational upper bound on e^z, 0 <= z <= MAX_EXP_ARG.

    For z <= 64 the Taylor sum is truncated at K = max(2 (floor(z) + 1),
    24) terms and the rest bounded by twice the next term.  Above 64, z is
    halved k times to z' <= 1, and the loop's bound b >= e^(z') is
    rounded up to 96 bits and squared k times, each square rounded up to
    96 bits.  Squaring keeps b >= e^(z' 2^i) at every step and rounding up
    keeps it, so the result is at least e^z.  Its relative excess doubles
    with each squaring; it was about 1e-25 at z = 3000.  z above
    MAX_EXP_ARG raises DomainError.
    """
    z = Fraction(z)
    if z < 0:
        raise ValueError("exp_ub needs z >= 0")
    if z > MAX_EXP_ARG:
        raise DomainError(
            f"bound on e^z refused: z exceeds {MAX_EXP_ARG}")
    halvings = 0
    if z > 64:
        while z > 1:
            z /= 2
            halvings += 1
    K = max(2 * (int(z) + 1), 24)
    s = Fraction(0)
    term = Fraction(1)
    for k in range(K + 1):
        s += term
        term = term * z / (k + 1)
    # term = z^(K+1)/(K+1)! and the remaining ratio is at most
    # z/(K+2) <= 1/2, so the full tail is below 2*term.
    bound = s + 2 * term
    if halvings:
        bound = _dyadic_up(bound, 96)
        for _ in range(halvings):
            bound = _dyadic_up(bound * bound, 96)
    return bound


E_UB = exp_ub(Fraction(1))


def require_x_domain(x: Fraction):
    """Certify 0 < |x| < 1/e using the rational upper bound on e."""
    x = Fraction(x)
    if x == 0 or abs(x) * E_UB >= 1:
        raise DomainError(f"need 0 < |x| < 1/e, got x = {x}")
    return x


def tol_fraction(tol) -> Fraction:
    """Exact rational reading of a tolerance ('1e-30', Fraction, ...).

    ValueError unless it is readable, finite and positive.  A decimal has
    at most MAX_DIGITS digits and an exponent of absolute value at most
    MAX_TOL_EXPONENT, checked before any power of ten is built."""
    if isinstance(tol, (int, Fraction)):
        value = Fraction(tol)
    elif isinstance(tol, (str, float)):
        try:
            dec = Decimal(tol if isinstance(tol, str) else repr(tol))
        except InvalidOperation as exc:
            raise ValueError(f"cannot read tolerance {tol!r}") from exc
        if not dec.is_finite():
            raise ValueError(f"cannot read tolerance {tol!r}")
        _, digits, exponent = dec.as_tuple()
        if len(digits) > MAX_DIGITS or abs(exponent) > MAX_TOL_EXPONENT:
            raise ValueError(f"tolerance {tol!r} exceeds {MAX_DIGITS} digits "
                             f"or the exponent limit {MAX_TOL_EXPONENT}")
        value = Fraction(dec)
    else:
        raise TypeError(f"cannot read tolerance {tol!r}")
    if value <= 0:
        raise ValueError("tolerance must be positive")
    return value


# -- tree-function branch --------------------------------------------------


def _tree_branch(x: Fraction, precision: int):
    """(t, box) for the branch of t e^{-t} = x through (0, 0), at the
    working precision the caller has entered.

    t is the Newton iterate from t_0 = x.  box is certified to contain
    the exact branch value: the forward map s e^{-s} - x changes sign
    across it, and the map is strictly increasing for s < 1, so the sign
    change brackets the root.
    """
    if x == 0:
        return mp.mpf(0), iv.mpf(0)
    if abs(x) * E_UB >= 1:
        raise DomainError(f"need |x| < 1/e, got x = {x}")
    t = xv = _mpf_from_fraction(x)
    limit = mpmath.ldexp(1, -(precision + 16))
    for _ in range(400):
        w = xv * mp.exp(t)
        delta = (t - w) / (1 - w)
        t = t - delta
        if abs(delta) < limit:
            break
    else:
        raise ArithmeticError("Newton iteration did not converge")
    x_iv = enclose_fraction(x)
    delta = mpmath.ldexp(max(abs(t), mp.mpf(1)), -(precision - 2))
    for _ in range(80):
        lo, hi = t - delta, t + delta
        f_lo = iv.mpf(lo) * iv.exp(-iv.mpf(lo)) - x_iv
        f_hi = iv.mpf(hi) * iv.exp(-iv.mpf(hi)) - x_iv
        if _iv_hi(f_lo) < 0 and _iv_lo(f_hi) > 0:
            return t, iv.mpf([lo, hi])
        delta = delta * 8
    raise ArithmeticError("could not bracket the tree-function branch")


def invert_xt(x, precision: int = 256) -> mpmath.mpf:
    """The branch of t e^{-t} = x through (0, 0), certified: the Newton
    iterate of _tree_branch, whose sign-change bracket holds the root."""
    with _working(precision):
        return _tree_branch(Fraction(x), precision)[0]


def invert_xt_certified(x, precision: int = 256):
    """invert_xt plus an upper bound on |t e^{-t} - x|, evaluated in
    interval arithmetic; it must be below 2^-(precision-8)."""
    x = Fraction(x)
    with _working(precision):
        t, _ = _tree_branch(x, precision)
        ti = iv.mpf(t)
        bound = _iv_abs_sup(ti * iv.exp(-ti) - enclose_fraction(x))
        if not bound < mpmath.ldexp(1, -(precision - 8)):
            raise ArithmeticError("residual certificate failed")
        return t, bound


def tree_t_interval(x, precision: int = 256):
    """An interval certified to contain the exact branch value t(x): the
    sign-change bracket of _tree_branch."""
    with _working(precision):
        return _tree_branch(Fraction(x), precision)[1]


# -- closed-form side ------------------------------------------------------


def eval_F_closed(R, r, t, precision: int = 256) -> mpmath.mpf:
    """t^r * R(t, r) at the working precision (midpoint value)."""
    with _working(precision):
        return _iv_mid(eval_F_interval(R, r, t, precision))


def eval_F_interval(R, r, t, precision: int = 256):
    """Certified interval for t^r * R(t, r).

    R may be an element of Q(y)(t) (then y := r is substituted first)
    or already an element of Q(t); t may be a float, mpf, Fraction or
    interval.
    """
    r = Fraction(r)
    if isinstance(R, AdHocFunction):
        R = R.R
    if QYT.is_element(R):
        R = substitute_y(R, r)
    with _working(precision):
        if isinstance(t, iv.mpf):
            t_iv = t
        elif isinstance(t, Fraction):
            t_iv = enclose_fraction(t)
        else:
            t_iv = iv.mpf(mp.mpf(t))
        value = _eval_ratfunc_iv(R, t_iv)
        prefactor = _pow_iv(t_iv, r)
        return prefactor * value


# -- series families -------------------------------------------------------


@dataclass(frozen=True)
class SeriesSpec:
    """One member of the evaluated series families.

    family 'kolberg':   sum_{n>=1} (n+r)^(n-a) P(n) x^n / n!
    family 'sharp':     sum_{n>=0} (r^2+2nr+2n^2-n)(n+r)^(n-a) P(n) x^n / n!
    family 'example0':  sum_{n>=2} (n-1) n^(n+a) P(1/n) x^n / n!
    family 'custom-H':  sum_{n>=n0} u_n x^n / n! with a caller-supplied
        coefficient function, plus a caller-certified dominance model
        |u_n x^n / n!| <= bound_K * n^bound_delta * (E_UB*|x|)^n
        for n >= bound_from.
    """

    family: str
    x: Fraction
    a: int = 0
    r: Fraction = Fraction(0)
    P: UniPoly = None
    supplier: object = None
    bound_K: Fraction = None
    bound_delta: int = None
    bound_from: int = None

    def __post_init__(self):
        if self.family not in ("kolberg", "sharp", "example0", "custom-H"):
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "r", Fraction(self.r))
        P = self.P
        if P is None:
            P = UniPoly(QQ, "n", [Fraction(1)])
        object.__setattr__(self, "P", P)
        if self.family == "custom-H":
            if (self.supplier is None or self.bound_K is None
                    or self.bound_delta is None or self.bound_from is None):
                raise ValueError(
                    "custom-H needs supplier, bound_K, bound_delta, bound_from")


@dataclass(frozen=True)
class EvalResult:
    value: mpmath.mpf
    error_bound: mpmath.mpf
    terms_used: int
    precision_bits: int

    @property
    def digits(self) -> int:
        """Significant digits printed for value."""
        return max(int(self.precision_bits * 0.30103) - 2, 10)

    def __str__(self):
        return (f"{mpmath.nstr(self.value, 30)} +/- "
                f"{mpmath.nstr(self.error_bound, 3)} "
                f"({self.terms_used} terms at {self.precision_bits} bits)")


def result_to_json(res: EvalResult) -> str:
    import json
    return json.dumps({
        "value": mpmath.nstr(res.value, res.digits),
        "error_bound": mpmath.nstr(res.error_bound, 5),
        "terms": res.terms_used,
        "precision_bits": res.precision_bits,
    }, indent=2)


def _tail_after(K0: Fraction, delta: int, q: Fraction, N: int,
                q_pow: Fraction):
    """Upper bound on sum_{n>N} K0 n^delta q^n given q_pow >= q^(N+1).

    None when the simple geometric domination does not yet apply.
    """
    if delta <= 0:
        head = K0 * Fraction(N + 1) ** delta * q_pow
        return _dyadic_up(head / (1 - q))
    kappa = (Fraction(N + 1) / N) ** delta
    rho = kappa * q
    if rho >= 1:
        return None
    head = K0 * Fraction(N + 1) ** delta * q_pow
    return _dyadic_up(head / (1 - rho))


_TERM_CAP = 60000


def _log2(fr: Fraction) -> float:
    return math.log2(fr.numerator) - math.log2(fr.denominator)


def _mantissa_exponent(fr: Fraction) -> tuple[int, int]:
    """(m, e) with fr = m * 2^-e, for a dyadic rational fr."""
    return fr.numerator, fr.denominator.bit_length() - 1


def _dyadic_up_step(m: int, e: int, bits: int = 64) -> tuple[int, int]:
    """_dyadic_up(m * 2^-e, bits) for m > 0, as a pair (m', e').

    _dyadic_up scales by 2^shift, shift = bits - (bitlen(num) -
    bitlen(den)), and rounds up; for m * 2^-e that difference is
    bitlen(m) - e - 1 whatever the reduced form, so the result is
    ceil(m * 2^(shift - e)) * 2^-shift.
    """
    shift = bits - (m.bit_length() - e - 1)
    s = shift - e
    return (m << s if s >= 0 else -(-m >> -s)), shift


def _series_order(n_start: int, K0: Fraction, delta: int, q: Fraction,
                  bound_from: int, tol_half: Fraction):
    """Smallest N whose certified tail is below tol_half, and that tail.

    Only the tail bound is evaluated, so an infeasible tolerance fails
    at the term cap before any term is built.
    """
    if not 0 < q < 1:
        raise DomainError(f"geometric ratio {q} is not below 1")
    q = _dyadic_up(q)
    if q >= 1:
        raise DomainError("geometric ratio rounds to 1; x too close to 1/e")
    # The tail bound is at least K0 (N+1)^delta q^(N+1); while the log2
    # of that lower bound exceeds log2(tol_half) by one, the exact test
    # cannot pass and is skipped.
    log2_K0 = _log2(K0) if K0 > 0 else -math.inf
    log2_q, log2_goal = _log2(q), _log2(tol_half) + 1
    # q and q_pow >= q^(N+1) are dyadic, m * 2^-e; the step rounds up
    # exactly as _dyadic_up does, on integers
    qm, qe = _mantissa_exponent(q)
    pm, pe = _mantissa_exponent(_dyadic_up(q ** n_start))
    N = n_start - 1
    while True:
        N += 1
        pm, pe = _dyadic_up_step(pm * qm, pe + qe)
        log2_floor = log2_K0 + delta * math.log2(N + 1) + (N + 1) * log2_q
        if N >= bound_from and N >= 1 and log2_floor <= log2_goal:
            q_pow = Fraction(pm, 1 << pe) if pe >= 0 else Fraction(pm << -pe)
            tail = _tail_after(K0, delta, q, N, q_pow)
            if tail is not None and tail <= tol_half:
                return N, tail
        if N > _TERM_CAP:
            raise DomainError(
                "series did not meet the tolerance within the term cap")


def _scaled_terms(coeff, wp: int, wq: int, n_start: int, N: int):
    """Exact terms coeff(n) (wp/wq)^n / n!, n = n_start..N, for _ball_sum.

    coeff(n) returns an integer pair (c, d) with d != 0.  The result maps
    a fixed-point width W (not needed here) to the triples (num, den, 0):
    each term is the exact pair num/den, den > 0, so its relative error
    is 0.  Nothing is reduced: w^n and n! are running products.
    """
    def source(W: int):
        wn = wp ** n_start
        dn = wq ** n_start * math.factorial(n_start)
        for n in range(n_start, N + 1):
            if n > n_start:
                wn *= wp
                dn *= wq * n
            c, d = coeff(n)
            if d < 0:
                c, d = -c, -d
            yield c * wn, d * dn, 0
    return source


_KERNEL_GUARD = 64


def _power_floor(b: int, e: int, G: int) -> tuple[int, int, int]:
    """(m, x, f) with m 2^x <= b^e <= m 2^x (1 + 2^(1-G))^f, b >= 1, e >= 0.

    Left-to-right square-and-multiply; after each step the mantissa is
    floored to at most G bits.  A floor to G bits keeps at least G - 1
    bits, so it errs downward by a factor under 1 + 2^(1-G).  Squaring
    doubles the factor already carried and the floor adds one, so f <= 2e.
    """
    m, x, f = 1, 0, 0
    for bit in bin(e)[2:]:
        m *= m
        x += x
        f += f
        if bit == "1":
            m *= b
        s = m.bit_length() - G
        if s > 0:
            m >>= s
            x += s
            f += 1
    return m, x, f


def _floor_quotient(num: int, den: int, G: int) -> tuple[int, int]:
    """(q, k) with q = floor(num 2^k / den) of G or G + 1 bits, num, den > 0.

    q >= 2^(G-1), so num 2^k / den < q + 1 <= q (1 + 2^(1-G)).  A negative
    k divides by den 2^-k: still one floor of the exact quotient.
    """
    k = G - num.bit_length() + den.bit_length()
    return ((num << k) // den if k >= 0 else num // (den << -k)), k


def _rho_bits(f: int, G: int) -> int:
    """p with (1 + 2^(1-G))^f <= 1 + 2^-p, the error of f floors to G bits.

    With eps = 2^(1-G) and f eps <= 1/4, (1 + eps)^f <= e^(f eps) <=
    1 + 2 f eps < 1 + 2^(bitlen(f) + 2 - G); p >= 1 ensures f eps <= 1/4.
    """
    p = G - 2 - f.bit_length()
    if p < 1:
        raise DomainError("exponent too large for the term kernel")
    return p


def _kernel_terms(coeff, wp: int, wq: int, n_start: int, N: int):
    """Terms c b^e (wp/wq)^n / (d n!), n = n_start..N, in fixed point.

    coeff(n) returns integers (c, d, b, e) with d != 0 (0^0 = 1).  The
    result maps the fixed-point width W of _ball_sum to triples
    (num, den, rho): the exact term has the sign of num, and its
    magnitude lies in [v, v (1 + rho)] for v = |num|/den, a dyadic
    rational.

    Enclosure argument.  Every quantity is a magnitude m 2^x that errs
    downward, carried with a count f of floors: exact <= m 2^x (1 + eps)^f
    with eps = 2^(1-G).  The sign is applied last.
      * r_n = |w|^n / n! is a running product from r_0 = 1 at G_run =
        W + 2*guard bits, one floored division per step (_floor_quotient),
        so it carries f = n at eps_run <= eps.
      * b^e, e >= 0, comes from _power_floor at G bits with f <= 2e.  For
        e < 0 the factor |b|^-e joins d exactly.
      * The product |c| b^e r_n is exact; dividing it by |d| and flooring
        to G bits adds one more.
    So the term carries at most f = 2e + n + 1 floors, each under a
    factor 1 + eps, and rho = 2^-_rho_bits(f, G) bounds (1 + eps)^f - 1.
    G is W + guard plus the term's magnitude bits (a float estimate, which
    sets only the width of the ball), at least guard + bitlen(e) and at
    most G_run, so eps_run <= eps and the absolute error |v| rho stays
    far below 2^-W.
    """
    def source(W: int):
        G_run = W + 2 * _KERNEL_GUARD
        aw = abs(wp)
        rm, rx = 1, 0                   # r_n = rm 2^rx, carrying n floors
        rhos = {}
        for n in range(N + 1):
            if n:
                rm, k = _floor_quotient(rm * aw, wq * n, G_run)
                rx -= k
            if n < n_start:
                continue
            c, d, b, e = coeff(n)
            if e < 0:
                if b == 0:
                    raise DomainError("zero base raised to a negative power")
                b, e, d = 1, 0, d * b ** -e
            if c == 0 or (b == 0 and e > 0):
                yield 0, 1, 0
                continue
            negative = (c < 0) ^ (d < 0) ^ (b < 0 and e % 2 == 1) \
                ^ (wp < 0 and n % 2 == 1)
            c, d, b = abs(c), abs(d), max(abs(b), 1)
            log2_term = (math.log2(c) - math.log2(d) + e * math.log2(b)
                         + rx + rm.bit_length())
            G = min(G_run, max(W + _KERNEL_GUARD + int(log2_term) + 2,
                               _KERNEL_GUARD + e.bit_length()))
            bm, bx, f = _power_floor(b, e, G)
            m, k = _floor_quotient(c * bm * rm, d, G)
            x = bx + rx - k
            p = _rho_bits(f + n + 1, G)
            rho = rhos.get(p)
            if rho is None:
                rho = rhos[p] = Fraction(1, 1 << p)
            if negative:
                m = -m
            yield (m << x, 1, rho) if x >= 0 else (m, 1 << -x, rho)
    return source


def _fixed_bits(count: int, tol: Fraction, precision: int) -> int:
    """Fixed-point width W for a sum of count floored terms.

    The radius count * 2^-W stays below both 2^-(precision + GUARD_BITS)
    and tol * 2^-16, so it is a negligible part of any error budget.
    """
    log2_count_over_tol = ((count * tol.denominator).bit_length()
                           - tol.numerator.bit_length() + 1)
    return (max(precision + GUARD_BITS, log2_count_over_tol + 16)
            + count.bit_length())


def _ball_sum(terms, count: int, tol: Fraction, precision: int):
    """Interval holding the exact sum of count terms.

    terms maps the width W = _fixed_bits(count, ...) to triples
    (num, den, rho), den > 0: the exact term has the sign of num and a
    magnitude in [v, v (1 + rho)] for v = |num|/den; rho = 0 for an exact
    term.  Each num/den is floored to W fractional bits, F = floor(num
    2^W / den).  A floor errs by less than one unit of 2^-W, and by
    nothing when the division is exact.  The rest of a term, at most
    v rho <= (|F| + 1) rho units, lies above the term when it is positive
    and below it when it is negative.  So with k inexact floors, S their
    integer sum, and A, B the sums of (|F| + 1) rho over the positive and
    the negative terms, rounded up, the exact sum lies in
    [S - B, S + k + A] * 2^-W.  That interval is converted with outward
    rounding at the current iv precision; call inside _working.
    """
    W = _fixed_bits(count, tol, precision)
    S = k = above = below = 0
    for num, den, rho in terms(W):
        floor, rem = divmod(num << W, den)
        S += floor
        k += rem != 0
        if rho:
            # (|F| + 1) rho units, rounded up in units of 2^-(W + 64)
            err = ((abs(floor) + 1) * rho.numerator << 64) \
                // rho.denominator + 1
            if num < 0:
                below += err
            else:
                above += err
    above, below = -(-above >> 64), -(-below >> 64)
    return iv.mpf([S - below, S + k + above]) * iv.mpf(mpmath.ldexp(1, -W))


def _pair(value) -> tuple:
    value = Fraction(value)
    return value.numerator, value.denominator


def _family_plan(spec: SeriesSpec):
    """Terms plus certified dominance data for a family.

    Returns (terms, n_start, K0, delta, q, bound_from) where terms(N)
    gives _ball_sum the terms n_start..N: in fixed point from
    _kernel_terms for the built-in families, exact for custom-H.
    """
    x = require_x_domain(spec.x)
    a, r, P = spec.a, spec.r, spec.P
    abs_x = abs(x)
    M_P = sum(abs(c) for c in P.coeffs) if not P.is_zero else Fraction(0)
    d = max(P.degree, 0)
    q = E_UB * abs_x
    xp, xq = x.numerator, x.denominator
    rp, rq = r.numerator, r.denominator
    rq_a, rq_a_den = (rq ** a, 1) if a >= 0 else (1, rq ** -a)
    # P = A(n) / L with integer coefficients A, so a term evaluates P on
    # integers only
    L = math.lcm(*(c.denominator for c in P.coeffs))
    A = [int(c * L) for c in P.coeffs]

    def power_coeff(n: int, extra: int, extra_den: int):
        # extra * P(n) * (n*rq + rp)^(n-a) * rq^a / extra_den, so that
        # with w = x/rq the term is coeff(n) w^n / n!
        pn = 0
        for c in reversed(A):
            pn = pn * n + c
        return (extra * rq_a * pn, extra_den * rq_a_den * L,
                n * rq + rp, n - a)

    if spec.family == "kolberg":
        if r.denominator == 1 and a >= 2 and -(a - 1) <= r <= -1:
            raise DomainError(
                f"family needs r outside {{-1, ..., {-(a - 1)}}}, got {r}")

        def terms(N: int):
            return _kernel_terms(lambda n: power_coeff(n, 1, 1),
                                 xp, xq * rq, 1, N)

        C_r = exp_ub(abs(r)) * (1 + abs(r)) ** max(-a, 0)
        return terms, 1, M_P * C_r, d - a, q, max(a, 1)

    if spec.family == "sharp":
        def coeff(n: int):
            # r^2 + 2nr + 2n^2 - n over the common denominator rq^2
            poly = rp * rp + 2 * n * rp * rq + (2 * n * n - n) * rq * rq
            return power_coeff(n, poly, rq * rq)

        def terms(N: int):
            return _kernel_terms(coeff, xp, xq * rq, 0, N)

        C_r = exp_ub(abs(r)) * (1 + abs(r)) ** max(-a, 0)
        C_2 = r * r + 2 * abs(r) + 3  # |r^2+2nr+2n^2-n| <= C_2 n^2, n >= 1
        return terms, 0, M_P * C_r * C_2, d - a + 2, q, max(a, 1)

    if spec.family == "example0":
        def coeff(n: int):
            # P(1/n) = sum A_i n^(d-i) / (L n^d)
            pn = 0
            for c in A:
                pn = pn * n + c
            return (n - 1) * pn, L * n ** d, n, n + a

        def terms(N: int):
            return _kernel_terms(coeff, xp, xq, 2, N)

        # (n-1) n^(n+a) / n! <= n^(a+1) e^n for every n >= 1
        return terms, 2, M_P, a + 1, q, 2

    # custom-H
    supplier = spec.supplier

    def terms(N: int):
        return _scaled_terms(lambda n: _pair(supplier(n)), xp, xq,
                             spec.bound_from, N)

    return (terms, spec.bound_from, Fraction(spec.bound_K),
            spec.bound_delta, q, spec.bound_from)


def _require_precision(ball, tol: Fraction, target_tol, precision: int):
    """The radius of ball, which the precision sets, if below tol/2.

    A larger radius means the precision cannot meet the tolerance, and
    DomainError is raised.  Call inside _working.
    """
    radius = _iv_rad(ball)
    if not mp.mpf(radius) < _mpf_from_fraction(tol / 2):
        raise DomainError(
            f"precision {precision} cannot meet tolerance {target_tol}")
    return radius


def _eval_result(enc, tail: Fraction, tol: Fraction, target_tol, N: int,
                 precision: int) -> EvalResult:
    """The result for a summed ball enc plus a series tail."""
    rounding = _require_precision(enc, tol, target_tol, precision)
    bound = _mpf_from_fraction(tail) * (1 + mpmath.ldexp(1, -8)) + rounding
    return EvalResult(_iv_mid(enc), bound, N, precision)


def eval_theorem_series(spec: SeriesSpec, precision: int = 256,
                        target_tol="1e-30") -> EvalResult:
    """Certified evaluation of one of the series families.

    N is chosen from the tail bound alone; the terms up to N are then
    built by the fixed-point kernel, floored to W bits and summed.  The
    reported error bound covers the series tail, the kernel's and the
    fixed-point radius and the conversion of the sum to binary.
    """
    _require_bits(precision)
    tol = tol_fraction(target_tol)
    terms, n_start, K0, delta, q, bound_from = _family_plan(spec)
    N, tail = _series_order(n_start, K0, delta, q, bound_from, tol / 2)
    with _working(precision):
        enc = _ball_sum(terms(N), N - n_start + 1, tol, precision)
        return _eval_result(enc, tail, tol, target_tol, N, precision)


# -- H-series of a quatuor level ------------------------------------------


@lru_cache(maxsize=256)
def _h_u_values(R_t: RatFunc, r: Fraction, N: int) -> tuple:
    """(U, D) with u_n(r) = U[n] / D, n = 0..N, exact integers, D > 0:
    the v_m = m! [t^m] R_t(t) e^{r t} over one denominator D
    (_taylor_v_integers) through the transform kernel of assoc as one
    column.  Nothing is reduced, so every U[n] / D is exactly the u_n
    that from_associated would return."""
    V, D = _taylor_v_integers(R_t, N, r)
    return (V[0], *_binomial_columns([V[1:]], "u")[0]), D


def _h_tail_params(R_t: RatFunc, r: Fraction, x: Fraction):
    """(M, E, zeta) with |u_n x^n/n!| <= M*E*zeta^n for all n >= 1.

    Cauchy-bound route: on |t| = tau the associated function
    R(t) e^{r t} is bounded by M*E, so |v_m| <= m! M E / tau^m; pushing
    that through the inverse transform with the inequality
    binom(n-1, m-1) m! <= n! n^(n-m)/(n-m)! gives
    |u_n| <= M E n! (e^tau / tau)^n, hence the geometric form with
    zeta = |x| e^tau / tau.  tau is chosen below every pole radius.
    """
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
    # 'work' now has no rational roots; w_0 != 0 since t = 0 was excluded.
    # tau starts below 7/8 of every rational pole radius and only shrinks,
    # so rad - tau > 0 throughout.  As tau shrinks, the lower bound
    # lw = |w_0| - sum_{i>=1} |w_i| tau^i on |work| grows, and so does
    # zeta: for tau <= 9/10, exp_ub(tau) is one polynomial p (K = 24) and
    # tau p'(tau) - p(tau) <= e^tau (tau - 1) + 48 tau^25/25! < 0, so
    # p(tau)/tau decreases in tau.  Hence the first tau with lw > 0 gives
    # the smallest zeta of every admissible tau, and when that zeta is at
    # least 1 no smaller tau can certify the tail.
    tau = Fraction(9, 10)
    for rad, _ in constraints:
        tau = min(tau, Fraction(7, 8) * rad)
    for _ in range(300):
        lw = abs(work.coeff(0)) - sum(
            abs(work.coeff(i)) * tau ** i for i in range(1, work.degree + 1))
        if lw > 0:
            break
        tau = tau * Fraction(3, 4)
    zeta = abs(x) * exp_ub(tau) / tau
    if lw <= 0 or zeta >= 1:
        raise DomainError(
            "no certified radius for the tail bound; |x| may be too large "
            "for this level's pole structure")
    num_bound = sum(abs(c) * tau ** i for i, c in enumerate(R_t.num.coeffs))
    den_lower = lw
    for rad, mult in constraints:
        den_lower *= (rad - tau) ** mult
    M = num_bound / den_lower
    E = exp_ub(abs(r) * tau)
    return _dyadic_up(M), _dyadic_up(E), _dyadic_up(zeta)


# The H path runs about N^2 Horner steps on integers of about N B bits, B
# the bits of N, r and x.  A request whose N^3 B^2 exceeds MAX_H_WORK is
# refused (exit 4) before any u_n is built; README gives measured times.
MAX_H_WORK = 10 ** 13


def _h_work(N: int, r: Fraction, x: Fraction) -> int:
    """The estimated cost N^3 B^2 of an H series; see MAX_H_WORK."""
    B = sum(v.bit_length() for v in (N, r.numerator, r.denominator,
                                     x.numerator, x.denominator))
    return N ** 3 * B * B


def _h_plan(F, r: Fraction, x: Fraction, target: Fraction,
            N: int | None = None):
    """(R_t, N, tail, (U, D)) for the H series of F at y = r and x.

    |u_n x^n/n!| <= M E zeta^n is the families' dominance form
    K0 n^delta q^n with K0 = M E, delta = 0 and q = zeta, so N and its
    tail come from _series_order and _tail_after.  With N omitted it is
    the smallest order whose tail is below target; the term cap and
    MAX_H_WORK fire before any u_n is built.
    """
    R_t = substitute_y(F.R if isinstance(F, AdHocFunction) else F, r)
    M, E, zeta = _h_tail_params(R_t, r, x)
    if N is None:
        N, tail = _series_order(1, M * E, 0, zeta, 1, target)
    else:
        tail = _tail_after(M * E, 0, zeta, N, _dyadic_up(zeta ** (N + 1)))
    if _h_work(N, r, x) > MAX_H_WORK:
        raise DomainError(f"H series of {N} terms at r = {r}, x = {x} "
                          f"refused: estimated work exceeds {MAX_H_WORK}")
    return R_t, N, tail, _h_u_values(R_t, r, N)


def _h_terms(u, x: Fraction, perturb=None):
    """The exact terms u_n x^n / n! of u = (U, D), for _ball_sum.

    Term n is the integer pair (U[n] xp^n, D xq^n n!) for x = xp/xq, with
    no reduction; perturb maps indices to offsets delta = p/q added to
    u_n exactly, as the pair (U[n] q + p D, D q).
    """
    U, D = u
    pairs = {}
    for idx, delta in (perturb or {}).items():
        if 0 <= idx < len(U):
            p, q = _pair(delta)
            pairs[idx] = (U[idx] * q + p * D, D * q)
    return _scaled_terms(lambda n: pairs.get(n) or (U[n], D),
                         x.numerator, x.denominator, 0, len(U) - 1)


def eval_H_series(F: AdHocFunction, r, x, N: int | None = None,
                  precision: int = 256, target_tol="1e-30") -> EvalResult:
    """sum_{n<=N} u_n(r) x^n / n! with a certified tail bound.

    With N omitted, the smallest N meeting target_tol/2 is used.  The
    sum is formed and checked as in eval_theorem_series: the bound covers
    the tail, the fixed-point radius and the conversion to binary, and a
    precision that cannot meet target_tol raises DomainError.
    """
    _require_bits(precision)
    r = Fraction(r)
    x = require_x_domain(x)
    tol = tol_fraction(target_tol)
    _, N, tail, u = _h_plan(F, r, x, tol / 2, N)
    with _working(precision):
        enc = _ball_sum(_h_terms(u, x), N + 1, tol, precision)
        return _eval_result(enc, tail, tol, target_tol, N, precision)


# -- identity certificate --------------------------------------------------


@dataclass(frozen=True)
class IdentityCertificate:
    passed: bool
    residual: mpmath.mpf
    slack: mpmath.mpf
    form: str           # 'K': x^r H(x) vs t^r R(t);  'G': H(x) e^{-rt} vs R(t)
    terms_used: int
    precision_bits: int

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} ({self.form}-form) residual "
                f"{mpmath.nstr(self.residual, 6)} with error slack "
                f"{mpmath.nstr(self.slack, 6)} "
                f"({self.terms_used} terms at {self.precision_bits} bits)")


def check_identity(F: AdHocFunction, r, x, tol="1e-30",
                   precision: int = 256, perturb=None) -> IdentityCertificate:
    """Certify K(x, r) = F(t, r) under x = t e^{-t}.

    For x > 0 (or integer r) the two sides are K = x^r sum u_n x^n/n!
    and F = t^r R(t); for x < 0 with fractional r both sides are
    divided by t^r and compared as H(x) e^{-r t} vs R(t).  The check
    passes when the midpoint residual is within tol plus all certified
    error contributions.  A precision whose radius on the summed series
    (before its tail) or on the closed-form side is not below tol/2
    raises DomainError.  perturb maps indices to offsets added to u_n
    (a fault-injection hook for validating that the certificate can
    fail).
    """
    _require_bits(precision)
    r = Fraction(r)
    x = require_x_domain(x)
    tol_f = tol_fraction(tol)
    R_t, N, tail, u = _h_plan(F, r, x, tol_f / 8)
    with _working(precision):
        t_iv = tree_t_interval(x, precision)
        tail_sym = iv.mpf([-_mpf_from_fraction(tail),
                           _mpf_from_fraction(tail)])
        ball = _ball_sum(_h_terms(u, x, perturb), N + 1, tol_f,
                         precision)
        _require_precision(ball, tol_f, tol, precision)
        H_iv = ball + tail_sym
        if x > 0 or r.denominator == 1:
            form = "K"
            if r.denominator == 1:
                x_pow = enclose_fraction(x ** int(r))
            else:
                x_pow = _pow_iv(enclose_fraction(x), r)
            lhs = x_pow * H_iv
            rhs = eval_F_interval(R_t, r, t_iv, precision)
        else:
            form = "G"
            lhs = H_iv * iv.exp(-enclose_fraction(r) * t_iv)
            rhs = _eval_ratfunc_iv(R_t, t_iv)
        _require_precision(rhs, tol_f, tol, precision)
        resid = lhs - rhs
        residual = abs(_iv_mid(resid))
        slack = _iv_rad(resid)
        passed = bool(residual <= _mpf_from_fraction(tol_f) + slack)
        return IdentityCertificate(passed, residual, slack, form, N,
                                   precision)
