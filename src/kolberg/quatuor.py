"""Quatuor engine: level stepping, fertility, shifts, combinations,
coefficient extraction, pole and exceptional sets, kolbergisation.

A level is the function F_k(t,y) = t^y * R_k(t,y) with R_k in Q(y)(t);
only R_k is stored.  Neighboring levels satisfy, in R-coordinates,

    R_k = (y*R_{k+1} + t * d/dt R_{k+1}) / (1 - t)

which is the derivative relation d/dt F_{k+1} = ((1-t)/t) F_k.  Going
down is that formula; going up means solving the first-order equation
y*S + t*S' = (1-t)*R_k inside the rational class, which either has a
unique solution or none (the homogeneous solution t^{-y} is not
rational), and failure is what "infertile" means.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .assoc import CoeffSeq, _binomial_rows
from .parsing import parse_qyt, print_canonical
from .rational import (
    QQ, QT, QY, QYT,
    DomainError, PoleError, RatFunc, UniPoly,
    rational_roots, substitute_y,
    _clear, _from_integers, _int_product, _int_sum, _integer_numerators,
)

T = QYT.gen


class InfertileError(Exception):
    """The up-step leaves the ad hoc class (no rational solution)."""

    def __init__(self, witness: str, level: int | None = None):
        self.witness = witness
        self.level = level
        super().__init__(f"infertile step: {witness}")


class VerificationError(Exception):
    """Stored level data violates the neighbor relation."""


@dataclass(frozen=True)
class AdHocFunction:
    """F(t,y) = t^y * R(t,y) with R a nonzero element of Q(y)(t)."""

    R: RatFunc

    def __post_init__(self):
        R = QYT.coerce(self.R) if not QYT.is_element(self.R) else self.R
        if R.is_zero:
            raise ValueError("ad hoc function requires a nonzero R")
        object.__setattr__(self, "R", R)

    def __str__(self):
        return f"t^y * ({print_canonical(self.R)})"


def _level_below(R: RatFunc) -> RatFunc:
    """R_k from R_{k+1}: the neighbor relation (y*R + t*R')/(1 - t), for
    R = n/d built as (y*n*d + t*(n'*d - n*d')) / ((1 - t)*d^2), one gcd."""
    n, d, t = R.num, R.den, T.num
    return RatFunc(n * d * QY.gen + t * (n.diff() * d - n * d.diff()),
                   (1 - t) * d * d)


def step_down(F: AdHocFunction) -> AdHocFunction:
    """Level k from level k+1 via the derivative relation."""
    return AdHocFunction(_level_below(F.R))


def step_up(F: AdHocFunction) -> AdHocFunction:
    """Level k+1 from level k, or raise InfertileError.

    Ansatz S = A(t)/D(t) with D the denominator of W = (1-t)*R_k and
    deg A <= deg num(W) + deg D + 1; the equation y*S + t*S' = W becomes
    A*(y*D - t*D') + t*A'*D = num(W)*D, linear over Q(y) in the
    coefficients A_j of A because

        y*(t^j) + t*(t^j)' = (y + j) t^j.

    Column j contributes (y + j - i) D_i to the coefficient of t^(i+j).
    With D_m the lowest nonzero coefficient of D, the lowest term of
    column j is (y + j - m) D_m t^(j+m), never zero in Q(y), so the
    system is triangular: A_j is read off the coefficient of t^(j+m) of
    the running residual num(W)*D - (terms of A_0..A_(j-1)).  A residual
    left over after the last column makes the system inconsistent; its
    lowest nonzero coefficient is the witness.  The candidate is
    verified by stepping back down before it is returned.
    """
    R = F.R
    W = (1 - T) * R
    numW, D = W.num, W.den
    dA = numW.degree + D.degree + 1
    d = D.coeffs
    m = next(i for i, c in enumerate(d) if not c.is_zero)
    y = QY.gen
    rhs = numW * D
    res = [rhs.coeff(i) for i in range(dA + D.degree + 1)]
    sol = []
    for j in range(dA + 1):
        a = res[j + m] / ((y + (j - m)) * d[m])
        sol.append(a)
        if a.is_zero:
            continue
        for i in range(m, len(d)):
            if not d[i].is_zero:
                res[i + j] -= a * (y + (j - i)) * d[i]
    residual = next((c for c in res if not c.is_zero), None)
    if residual is not None:
        witness = ("the linear system for the up-step is inconsistent; "
                   f"unmatched right-hand side {print_canonical(residual)}")
        raise InfertileError(witness)
    S = RatFunc(UniPoly(QY, "t", sol), D)
    if _level_below(S) != R:
        raise InfertileError("candidate solution fails the back-check")
    return AdHocFunction(S)


@dataclass(frozen=True)
class FertilityReport:
    requested: tuple[int, int]
    achieved: tuple[int, int]
    failure_level: int | None = None
    failure_witness: str | None = None

    @property
    def fertile(self) -> bool:
        return self.failure_level is None

    def __str__(self):
        lo, hi = self.achieved
        if self.fertile:
            return f"fertile on [{lo}, {hi}]"
        return (f"fertile on [{lo}, {hi}]; infertile at level "
                f"{self.failure_level}: {self.failure_witness}")


class Quatuor:
    """Contiguous levels k_min..k_max; the constructor checks each pair.

    generate_range and shift use _checked, as their pairs were made by
    step_down or passed step_up's back-check, or were checked before.
    """

    __slots__ = ("k_min", "functions", "generator_level")

    def __init__(self, k_min: int, functions, generator_level: int):
        self._store(k_min, functions, generator_level)
        for i in range(len(self.functions) - 1):
            if self.functions[i].R != _level_below(self.functions[i + 1].R):
                raise VerificationError(
                    f"levels {k_min + i} and {k_min + i + 1} do not satisfy "
                    "the neighbor relation")

    @classmethod
    def _checked(cls, k_min: int, functions, generator_level: int):
        """A Quatuor whose neighboring pairs the caller has checked."""
        self = object.__new__(cls)
        self._store(k_min, functions, generator_level)
        return self

    def _store(self, k_min: int, functions, generator_level: int):
        functions = tuple(functions)
        if not functions:
            raise ValueError("a quatuor needs at least one level")
        k_max = k_min + len(functions) - 1
        if not k_min <= generator_level <= k_max:
            raise ValueError("generator level outside the stored range")
        object.__setattr__(self, "k_min", k_min)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "generator_level", generator_level)

    def __setattr__(self, name, value):
        raise AttributeError("Quatuor is immutable")

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.functions) - 1

    @property
    def levels(self) -> dict[int, AdHocFunction]:
        return {self.k_min + i: f for i, f in enumerate(self.functions)}

    def level(self, k: int) -> AdHocFunction:
        if not self.k_min <= k <= self.k_max:
            raise KeyError(f"level {k} outside [{self.k_min}, {self.k_max}]")
        return self.functions[k - self.k_min]

    def __eq__(self, other):
        if not isinstance(other, Quatuor):
            return NotImplemented
        return (self.k_min == other.k_min
                and self.generator_level == other.generator_level
                and self.functions == other.functions)

    def __hash__(self):
        return hash((self.k_min, self.generator_level, self.functions))


def generate_range(generator, gen_level: int, k_min: int, k_max: int
                   ) -> tuple[Quatuor, FertilityReport]:
    """Fill levels around a generator; down always works, up may not."""
    if isinstance(generator, str):
        generator = parse_qyt(generator)
    F_gen = generator if isinstance(generator, AdHocFunction) \
        else AdHocFunction(generator)
    if not k_min <= gen_level <= k_max:
        raise ValueError("need k_min <= generator level <= k_max")
    below: list[AdHocFunction] = []
    cur = F_gen
    for _ in range(gen_level - k_min):
        cur = step_down(cur)
        below.append(cur)
    functions = below[::-1] + [F_gen]
    failure_level = None
    witness = None
    cur = F_gen
    for k in range(gen_level + 1, k_max + 1):
        try:
            cur = step_up(cur)
        except InfertileError as exc:
            failure_level = k
            witness = exc.witness
            break
        functions.append(cur)
    q = Quatuor._checked(k_min, functions, gen_level)
    report = FertilityReport(
        requested=(k_min, k_max),
        achieved=(k_min, q.k_max),
        failure_level=failure_level,
        failure_witness=witness,
    )
    return q, report


def shift(q: Quatuor, d: int) -> Quatuor:
    """Level k of the result is level k + d of the input."""
    return Quatuor._checked(q.k_min - d, q.functions, q.generator_level - d)


def linear_combine(terms) -> Quatuor:
    """Levelwise rational combination on the common range."""
    terms = [(QQ.coerce(lam), q) for lam, q in terms]
    if not terms:
        raise DomainError("no terms to combine")
    lo = max(q.k_min for _, q in terms)
    hi = min(q.k_max for _, q in terms)
    if lo > hi:
        raise DomainError("empty common level range")
    combined = []
    for k in range(lo, hi + 1):
        acc = QYT.zero
        for lam, q in terms:
            if lam != 0:
                acc = acc + lam * q.level(k).R
        combined.append(acc)
    if all(R.is_zero for R in combined):
        raise DomainError("combination is identically zero")
    gen = min(max(terms[0][1].generator_level, lo), hi)
    return Quatuor(lo, [AdHocFunction(R) for R in combined], gen)


class _Arith(NamedTuple):
    """Integer coefficient arithmetic for _taylor_numerators: plain ints
    over Q, integer coefficient lists in y over Q(y)."""

    zero: object
    one: object
    mul: Callable
    add: Callable
    scale: Callable     # by a plain int


_INTS = _Arith(0, 1, operator.mul, operator.add, operator.mul)
_ROWS = _Arith([], [1], _int_product, _int_sum,
               lambda p, c: [x * c for x in p])


def _taylor_parts(R: RatFunc, mu):
    """(P, Q, m, q, a, b, arith) with R = (b/a) P(t)/Q(t) and mu = m/q.

    Over Q the entries are plain ints and arith is _INTS; over Q(y) they
    are integer coefficient lists in y and arith is _ROWS.
    """
    ring = R.num.field
    num, den = R.num, R.den
    if den.coeff(0) == ring.zero:
        raise PoleError(f"pole at {R.var} = 0: denominator {den}")
    mu = ring.coerce(mu)
    if ring is QQ:
        P, a = _clear(num.coeffs)
        Q, b = _clear(den.coeffs)
        return P, Q, mu.numerator, mu.denominator, a, b, _INTS
    P, a = _integer_numerators(ring, num.coeffs)
    Q, b = _integer_numerators(ring, den.coeffs)
    (m,), q = _integer_numerators(ring, [mu])
    return P, Q, m, q, a, b, _ROWS


def _taylor_numerators(P, Q, m, q, N: int, arith: _Arith) -> list:
    """S_0..S_N of taylor_series' recurrence, in the integer arithmetic
    arith, for R = (b/a) P/Q and mu = m/q: c_k = b S_k / (a Q_0^(k+1)
    q^k k!)."""
    zero, one, mul, add, scale = arith
    width = max(len(P), len(Q))
    m_pow, q_pow, Q0_pow = [one], [one], [one]
    for _ in range(N):
        m_pow.append(mul(m_pow[-1], m))
    for _ in range(min(N, width)):
        q_pow.append(mul(q_pow[-1], q))
    S = []
    for k in range(N + 1):
        if k > 0:
            Q0_pow.append(mul(Q0_pow[-1], Q[0]))
        ff = 1                      # k!/(k-i)!
        head = tail = zero
        for i in range(min(k, width - 1) + 1):
            if i < len(P):
                head = add(head, scale(mul(mul(P[i], m_pow[k - i]),
                                           q_pow[i]), ff))
            if 1 <= i < len(Q):
                tail = add(tail, scale(mul(mul(mul(Q[i], S[k - i]),
                                               Q0_pow[i - 1]), q_pow[i]), ff))
            ff *= k - i
        S.append(add(mul(Q0_pow[k], head), scale(tail, -1)))
    return S


def _taylor_v(R: RatFunc, N: int, mu):
    """(V, d, g, arith) with k! c_k = V[k] / (d g^k), k = 0..N, unreduced:
    V[k] = b S_k, d = a Q_0 and g = Q_0 q in the integer arithmetic arith."""
    if N < 0:
        raise ValueError(f"order N must be nonnegative, got {N}")
    P, Q, m, q, a, b, arith = _taylor_parts(R, mu)
    mul = arith.mul
    return ([mul(b, s) for s in _taylor_numerators(P, Q, m, q, N, arith)],
            mul(a, Q[0]), mul(Q[0], q), arith)


def _taylor_values(R: RatFunc, N: int, mu, factorial: bool) -> list:
    """k! c_k (c_k if factorial) for k = 0..N, each normalised once over
    its own denominator d g^k (times k!)."""
    V, den, g, arith = _taylor_v(R, N, mu)
    out = []
    for k, v in enumerate(V):
        if k > 0:
            den = arith.scale(arith.mul(den, g), k if factorial else 1)
        out.append(Fraction(v, den) if arith is _INTS
                   else _from_integers(R.num.field, v, den))
    return out


def taylor_series(R: RatFunc, N: int, mu) -> list:
    """Coefficients c_0..c_N of R(t) * e^{mu*t} around t = 0.

    Generic over the coefficient ring of R (Q or Q(y)); mu must live in
    that ring.  The work runs fraction-free on integer polynomials in y
    (plain integers, over Q).  The denominators of the numerator and of
    the denominator of R are cleared separately, R = (b/a) * P(t)/Q(t),
    and mu = m/q; the coefficients of Q * (P/Q) e^{mu t} = P e^{mu t} give

        c_k = b S_k / (a Q_0^(k+1) q^k k!),
        S_k = Q_0^k sum_{i>=0} P_i m^(k-i) q^i k!/(k-i)!
              - sum_{i>=1} Q_i S_(k-i) Q_0^(i-1) q^i k!/(k-i)!,

    which needs Q_0 = Q(0) != 0.  _taylor_numerators runs the recurrence;
    each c_k is normalised once, from k! c_k (_taylor_v) over k!.
    """
    return _taylor_values(R, N, mu, factorial=True)


def _taylor_v_integers(R: RatFunc, N: int, mu) -> tuple[list, object]:
    """(V, D) with V[k] / D = k! c_k for the c_k of taylor_series, over
    the one denominator D = d g^N of _taylor_v, for the transform kernel.
    Over Q the entries are ints with D > 0; over Q(y), integer rows in y.
    """
    V, D, g, arith = _taylor_v(R, N, mu)
    f = arith.one                   # g^(N-k)
    for k in range(N, -1, -1):
        V[k] = arith.mul(V[k], f)
        if k > 0:
            f = arith.mul(f, g)
    D = arith.mul(D, f)
    if arith is _INTS and D < 0:
        V, D = [-v for v in V], -D
    return V, D


def g_coeffs(F: AdHocFunction, N: int) -> CoeffSeq:
    """v_n = n! [t^n] (R * e^{y t}), the G-side coefficients."""
    return CoeffSeq("v", QY, tuple(_taylor_values(F.R, N, QY.gen, False)))


def h_coeffs(F: AdHocFunction, N: int) -> CoeffSeq:
    """u_n for H(x,y) = sum u_n x^n/n!: the transform kernel on the v_n as
    integer rows over one denominator, each u_n normalised once."""
    V, D = _taylor_v_integers(F.R, N, QY.gen)
    U = [V[0], *_binomial_rows(V[1:], "u")]
    return CoeffSeq("u", QY, tuple(_from_integers(QY, u, D) for u in U))


def kolberg_h_closed(k: int, n: int) -> RatFunc:
    """(y+n)^(n-k), the closed H-coefficient of the classical family."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (QY.gen + n) ** (n - k)


def sharp_un_closed(n: int) -> RatFunc:
    """(y+2)(y^2 + 2ny + 2n^2 - n)(y+n)^(n-3), exact in Q(y)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    y = QY.gen
    return (y + 2) * (y * y + 2 * n * y + (2 * n * n - n)) * (y + n) ** (n - 3)


@dataclass(frozen=True)
class PoleSet:
    rational_poles: frozenset
    denominators: tuple


def pole_set(q: Quatuor, levels) -> PoleSet:
    """Rational poles (and raw y-denominators) of coefficients at levels."""
    dens = []
    seen = set()
    for k in levels:
        R = q.level(k).R
        for side in (R.num, R.den):
            for c in side.coeffs:
                d = c.den
                if d.degree > 0 and d not in seen:
                    seen.add(d)
                    dens.append(d)
    poles = set()
    for d in dens:
        poles |= rational_roots(d)
    dens.sort(key=lambda d: (d.degree, print_canonical(d)))
    return PoleSet(frozenset(poles), tuple(dens))


def exceptional_set(g: RatFunc) -> set[int]:
    """Integers n with s^n * g(s) constant: {-m} when g = c*s^m, else empty."""
    if g.is_zero:
        raise ValueError("exceptional set of the zero function is undefined")
    num_terms = sum(1 for c in g.num.coeffs if c != g.num.field.zero)
    den_terms = sum(1 for c in g.den.coeffs if c != g.den.field.zero)
    if num_terms == 1 and den_terms == 1:
        lead_num = next(i for i, c in enumerate(g.num.coeffs) if c != 0)
        lead_den = next(i for i, c in enumerate(g.den.coeffs) if c != 0)
        return {-(lead_num - lead_den)}
    return set()


@dataclass(frozen=True)
class KolbergizeResult:
    g: RatFunc            # rational function of t over Q
    exponent: Fraction    # the power of t in t^r * g(t)
    exceptional: frozenset


def kolbergize(q: Quatuor, A: dict[int, Fraction], r) -> KolbergizeResult:
    """Specialize y := r in the combination sum_k A_k F_k = t^r * g(t).

    r must avoid the rational poles of the involved levels; the
    exceptional set of g is reported so the caller can check that the
    transcendence bookkeeping applies.
    """
    r = QQ.coerce(r)
    support = sorted(k for k, lam in A.items() if QQ.coerce(lam) != 0)
    if not support:
        raise DomainError("combination is identically zero")
    ps = pole_set(q, support)
    if r in ps.rational_poles:
        bad = next(d for d in ps.denominators if d.eval(r) == 0)
        raise PoleError(f"y = {r} is a pole: root of denominator {bad}")
    acc = QT.zero
    for k in support:
        acc = acc + QQ.coerce(A[k]) * substitute_y(q.level(k).R, r)
    if acc.is_zero:
        raise DomainError("combination specializes to zero")
    return KolbergizeResult(acc, r, frozenset(exceptional_set(acc)))


def quatuor_to_json(q: Quatuor) -> str:
    obj = {
        "generator": print_canonical(q.level(q.generator_level).R),
        "generator_level": q.generator_level,
        "levels": {str(k): print_canonical(f.R) for k, f in q.levels.items()},
    }
    return json.dumps(obj, indent=2)


def quatuor_from_json(text: str) -> Quatuor:
    """Load and re-verify; neighbor-relation failure is a hard error."""
    obj = json.loads(text)
    levels = obj["levels"] if isinstance(obj, dict) else None
    if not isinstance(levels, dict) or not levels:
        raise ValueError("quatuor JSON needs a nonempty 'levels' object")
    if not all(isinstance(e, str)
               for e in (obj["generator"], *levels.values())):
        raise ValueError("quatuor JSON levels and generator must be strings")
    if not isinstance(obj["generator_level"], (int, str)):
        raise ValueError("generator_level must be an integer")
    gen_level = int(obj["generator_level"])
    items = sorted((int(k), v) for k, v in levels.items())
    ks = [k for k, _ in items]
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise VerificationError("levels must form a contiguous range")
    if not ks[0] <= gen_level <= ks[-1]:
        raise VerificationError("generator level outside the stored range")
    functions = [AdHocFunction(parse_qyt(expr)) for _, expr in items]
    gen_expr = parse_qyt(obj["generator"])
    if functions[gen_level - ks[0]].R != gen_expr:
        raise VerificationError("generator does not match its stored level")
    return Quatuor(ks[0], functions, gen_level)


def diese_generator() -> AdHocFunction:
    return AdHocFunction(parse_qyt("1 + 2/y + t^2"))


def diese_quatuor(k_min: int = -2, k_max: int = 3) -> Quatuor:
    q, report = generate_range(diese_generator(), 0, k_min, k_max)
    if not report.fertile:
        raise InfertileError(report.failure_witness or "",
                             report.failure_level)
    return q


def kolberg_quatuor(k_min: int = -2, k_max: int = 2) -> Quatuor:
    """Levels with H-coefficients (y+n)^(n-k); generator R_1 = 1/y.

    The factor 1/y normalizes level 1 so that u_n = (y+n)^(n-1)
    including u_0 = 1/y; the generator R = 1 would instead give
    u_n = y*(y+n)^(n-1).
    """
    gen = AdHocFunction(parse_qyt("1/y"))
    q, report = generate_range(gen, 1, k_min, k_max)
    if not report.fertile:
        raise InfertileError(report.failure_witness or "",
                             report.failure_level)
    return q
