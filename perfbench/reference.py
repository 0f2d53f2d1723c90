"""Independent references the benchmark checks results against.

Everything here reads only the data of kolberg values (the coefficient
tuples of numerators and denominators) and recomputes with plain
Fractions and mpmath; none of it calls kolberg's arithmetic, transforms
or evaluators.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def qy_at(c, y0: Fraction):
    """An element of Q(y) at y = y0, or None at a pole."""
    d = horner(c.den.coeffs, y0)
    return None if d == 0 else Fraction(horner(c.num.coeffs, y0)) / d


def _side_at(poly, y0):
    vals = [qy_at(c, y0) for c in poly.coeffs]
    return None if any(v is None for v in vals) else vals


def qyt_at(R, t0: Fraction, y0: Fraction):
    """An element of Q(y)(t) at (t0, y0), or None at a pole."""
    num, den = _side_at(R.num, y0), _side_at(R.den, y0)
    if num is None or den is None:
        return None
    d = horner(den, t0)
    return None if d == 0 else Fraction(horner(num, t0)) / d


def _dt(vals):
    return [i * c for i, c in enumerate(vals)][1:]


def qyt_dt_at(R, t0: Fraction, y0: Fraction):
    """The t-derivative of an element of Q(y)(t) at (t0, y0)."""
    num, den = _side_at(R.num, y0), _side_at(R.den, y0)
    if num is None or den is None:
        return None
    d = horner(den, t0)
    if d == 0:
        return None
    n = horner(num, t0)
    return (Fraction(horner(_dt(num), t0)) * d - n * horner(_dt(den), t0)) / (d * d)


def points(rng, count: int):
    """Rational sample points (t0, y0) for value checks."""
    return [(Fraction(rng.randint(-40, 40), rng.randint(1, 13)),
             Fraction(rng.randint(-40, 40), rng.randint(1, 13)))
            for _ in range(count)]


def agrees(pts, fn) -> bool:
    """fn(t0, y0) is True, False or None (a pole); a pole skips the point,
    but at least one point must be decided."""
    seen = False
    for t0, y0 in pts:
        verdict = fn(t0, y0)
        if verdict is None:
            continue
        if not verdict:
            return False
        seen = True
    return seen


def neighbor_ok(lower, upper, t0, y0):
    """R_k = (y R_{k+1} + t R_{k+1}') / (1 - t) at one point."""
    lo, up, dup = qyt_at(lower, t0, y0), qyt_at(upper, t0, y0), \
        qyt_dt_at(upper, t0, y0)
    if None in (lo, up, dup) or t0 == 1:
        return None
    return lo == (y0 * up + t0 * dup) / (1 - t0)


def taylor_g(R, y0: Fraction, N: int) -> list[Fraction]:
    """v_n = n! [t^n] R(t, y0) e^{y0 t} for n <= N, by series division."""
    num, den = _side_at(R.num, y0), _side_at(R.den, y0)
    if num is None or den is None or den[0] == 0:
        return None
    inv = [1 / den[0]]
    for k in range(1, N + 1):
        inv.append(-sum(den[i] * inv[k - i]
                        for i in range(1, min(k, len(den) - 1) + 1)) / den[0])
    r = [sum(num[i] * inv[k - i] for i in range(min(k, len(num) - 1) + 1))
         for k in range(N + 1)]
    out = []
    for n in range(N + 1):
        c = sum(r[n - j] * y0 ** j / math.factorial(j) for j in range(n + 1))
        out.append(c * math.factorial(n))
    return out


def assoc_forward(u: list[Fraction]) -> list[Fraction]:
    """v from u by literal substitution: G(t) = sum u_m (t e^{-t})^m / m!."""
    N = len(u) - 1
    g = [Fraction(0)] * (N + 1)
    g[0] = Fraction(u[0])
    for m in range(1, N + 1):
        # (t e^{-t})^m = t^m sum_j (-m)^j t^j / j!
        for j in range(N - m + 1):
            g[m + j] += Fraction(u[m]) * Fraction((-m) ** j, math.factorial(j)) \
                / math.factorial(m)
    return [g[n] * math.factorial(n) for n in range(N + 1)]


# -- numeric closed forms --------------------------------------------------


def mpq(fr: Fraction):
    return mpmath.mpf(fr.numerator) / fr.denominator


def tree_branch(x: Fraction):
    """The branch of t e^{-t} = x through 0, as -W0(-x)."""
    return -mpmath.lambertw(-mpq(x)).real


def level_at(R, t, r: Fraction):
    """R(t, r) for R in Q(y)(t), in the current mpmath precision."""
    num = [mpq(v) for v in _side_at(R.num, r)]
    den = [mpq(v) for v in _side_at(R.den, r)]
    return horner(num, t) / horner(den, t)


def H_closed(R, r: Fraction, x: Fraction):
    """H(x, r) = (t/x)^r R(t, r) with t the tree branch at x."""
    t = tree_branch(x)
    return (t / mpq(x)) ** mpq(r) * level_at(R, t, r)


def encloses(value, error_bound, ref, prec: int) -> bool:
    """|value - ref| <= error_bound plus the reference's own rounding."""
    slack = mpmath.ldexp(max(abs(ref), 1), -(prec - 24))
    return abs(value - ref) <= error_bound + slack
