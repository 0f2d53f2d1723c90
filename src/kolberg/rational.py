"""Exact arithmetic in the tower Q -> Q(y) -> Q(y)(t).

Values are immutable and kept in canonical form: numerator and
denominator are gcd-reduced and the denominator is monic, so equality
is structural.  The same two classes (UniPoly, RatFunc) serve every
layer; a field descriptor object names the coefficient field of each
polynomial layer.

Canonical form is restored in one place, _canonical, on integer rows:
numerator and denominator as ints (over Q) or integer lists in x (over
Q(x)), over one common denominator.  It runs one gcd through the one
gcd entry _row_gcd and normalises each coefficient once.  Every producer
calls it on the rows it holds: the RatFunc constructor after lowering
its operands (_lower), the parser on its arrays in Z[y][v], the kernels'
outputs (_from_integers), poly_gcd and poly_lcm.  Results that are
canonical by construction skip it through RatFunc._reduced: negation,
powers (gcd(n, d) = 1 implies gcd(n^k, d^k) = 1) and products with a
nonzero constant.  Linear and series work (transforms, Taylor series)
writes its inputs over one common denominator (_integer_numerators),
works on the integers and builds each output once; the printer writes
every element over one common denominator of its coefficients.

The gcd is the heuristic gcd of Char, Geddes and Gonnet: it evaluates
the rows at a large integer xi (x = xi first, then t), takes one integer
gcd and reads the polynomial gcd back from its balanced base-xi digits.
A candidate is kept only if exact integer division confirms it; the
divisions also give the cofactors, which _canonical uses directly.  xi
grows until a candidate is confirmed, which always happens (the argument
is written at the kernels).
"""

from __future__ import annotations

import math
from fractions import Fraction


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """A specialization point hits a pole; the message names the denominator."""


class RationalField:
    """The base field Q; elements are fractions.Fraction."""

    name = "Q"
    var = None
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def is_element(self, value):
        return isinstance(value, Fraction)

    def __repr__(self):
        return "Q"


QQ = RationalField()


class UniPoly:
    """Dense univariate polynomial over a field, lowest degree first."""

    __slots__ = ("field", "var", "coeffs")

    def __init__(self, field, var, coeffs):
        cs = []
        for c in coeffs:
            cs.append(c if field.is_element(c) else field.coerce(c))
        while cs and cs[-1] == field.zero:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _same(self, coeffs):
        return UniPoly(self.field, self.var, coeffs)

    def _coerce_operand(self, other):
        if isinstance(other, UniPoly):
            if other.var == self.var and other.field is self.field:
                return other
            return None
        try:
            return self._same([self.field.coerce(other)])
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            if c:
                out[i] = out[i] + c
        return self._same(out)

    __radd__ = __add__

    def __neg__(self):
        return self._same([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return self._same([])
        if self.field is QQ:
            return self._same(_qq_product(self.coeffs, o.coeffs))
        out = [self.field.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        nonzero = [(j, b) for j, b in enumerate(o.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero:
                    out[i + j] = out[i + j] + a * b
        return self._same(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("UniPoly power needs a nonnegative integer")
        return _power(self, k, UniPoly.__mul__, self._same([self.field.one]))

    def __divmod__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot = [self.field.zero] * max(len(self.coeffs) - len(o.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = o.leading
        while len(rem) >= len(o.coeffs) and rem:
            factor = rem[-1] / dlead
            shift = len(rem) - len(o.coeffs)
            quot[shift] = factor
            for j, b in enumerate(o.coeffs):
                rem[shift + j] = rem[shift + j] - factor * b
            while rem and rem[-1] == self.field.zero:
                rem.pop()
        return self._same(quot), self._same(rem)

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("exact_div with nonzero remainder")
        return q

    def monic(self):
        if self.is_zero:
            return self
        lead = self.leading
        return self._same([c / lead for c in self.coeffs])

    def diff(self):
        return self._same(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def eval(self, point):
        p = point if self.field.is_element(point) else self.field.coerce(point)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def __eq__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self.var == o.var and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"UniPoly({self.field.name}[{self.var}]: {format_element(self)})"


def _power(base, k: int, mul, one):
    """base^k for k >= 0 by repeated squaring; one is base^0."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return one if result is None else result


def _int_product(a: list, b: list) -> list:
    """Product of two polynomials given as integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _int_sum(a: list, b: list) -> list:
    """Sum of two polynomials given as integer coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def _clear(coeffs) -> tuple[list, int]:
    """(ints, den): coeffs[i] = ints[i] / den, den the lcm of denominators.

    Monic coefficients clear to primitive ints: the leading entry is den,
    and a prime p of den misses the entry of the coefficient whose
    denominator holds the highest power of p.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _qq_product(a, b) -> list:
    """Coefficients of the product of two polynomials over Q.

    Each factor is written as integers over one denominator, so the
    convolution runs on ints and each output coefficient is one Fraction.
    """
    A, da = _clear(a)
    B, db = _clear(b)
    d = da * db
    return [Fraction(c, d) for c in _int_product(A, B)]


# ---------------------------------------------------------------------------
# Heuristic integer gcd (GCDHEU: Char, Geddes & Gonnet, "GCDHEU: heuristic
# polynomial GCD algorithm based on integer GCD computation", 1984/1989).
#
# Polynomials are integer coefficient lists, lowest degree first, with a
# nonzero last entry; Z[y][t] is a list (in t) of such lists (in y), [] for
# a zero coefficient.  A gcd is accepted only after exact trial division,
# and xi is kept above twice a root bound of one operand, which makes every
# accepted answer the gcd (first proof below); xi grows until a candidate
# is accepted, which happens for every large enough xi (second proof).
#
# Why an accepted answer is right (univariate; f, g primitive).  Let
# gamma = gcd(f(xi), g(xi)) and G = gcd(f, g).  If h divides f and g then
# G = h k, and:
#   * h = pp(P) with P(xi) = gamma and |coefficients of P| <= xi/2, so
#     P = c h, |c| <= xi/2, and k(xi) divides c because G(xi) divides gamma;
#   * h = f / P with P(xi) = f(xi)/gamma gives k(xi) gamma = G(xi), so
#     k(xi) = +-1 (and likewise with g).
# Every root a of k is a root of f and of g, so |a| < 2 + |p|//|lc p| <= xi/2
# for p the one of f, g with the smaller bound, and |k(xi)| > (xi/2)^deg k;
# both cases force deg k = 0, and k = +-1 since G and h are primitive.
# With y = xi substituted in Z[y][t] the same argument runs on the
# t-coefficients, given the univariate gcd gamma(t) of f(xi, t) and
# g(xi, t) with its content, and t-degrees kept at xi; there k is found to
# be an integer, a unit over Q(y).
#
# Why the loop ends.  In Z[x] write f = G a, g = G b with a, b coprime.
# Then gamma = |G(xi)| k with k = gcd(a(xi), b(xi)), and k divides the
# integer D = Res(a, b) != 0, which lies in the ideal (a, b), for every xi.
# Once xi > 2 |D| |G|_inf the balanced digits of gamma are those of +-k G,
# so the first candidate, pp(+-k G) = +-G, is confirmed.  In Z[y][t] (with
# lc_t(f), lc_t(g) nonzero at xi, as the loop requires) a(xi, t), b(xi, t)
# share a factor of positive t-degree only when xi is a root of
# Res_t(a, b) != 0, and their common integer factor divides a fixed D built
# from the resultants of the two y-contents and of the t-coefficients of
# each primitive part; so for large xi gamma(t) = +-k G(xi, t) with |k| <= |D|
# and the same digit argument applies coefficientwise.  xi grows without
# bound, so a candidate is confirmed after finitely many steps.


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _content(p: list) -> int:
    return math.gcd(*p)


def _digits(v: int, xi: int) -> list:
    """The polynomial P with P(xi) = v and coefficients in (-xi/2, xi/2]."""
    out = []
    half = xi // 2
    while v:
        d = v % xi
        if d > half:
            d -= xi
        out.append(d)
        v = (v - d) // xi
    return out


def _eval(p: list, xi: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * xi + c
    return acc


def _xi_start(norm_f, lc_f, norm_g, lc_g) -> int:
    """The first point: CGG's choice, raised above twice the root bound."""
    b = 2 * min(norm_f, norm_g) + 29
    return max(min(b, 99 * math.isqrt(b)),
               2 * min(norm_f // abs(lc_f), norm_g // abs(lc_g)) + 4)


def _xi_next(xi: int) -> int:
    # CGG's growth factor: about 2.73 * xi^(5/4), which avoids repeating
    # an unlucky ratio
    return 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011


def _zz_div(f: list, g: list):
    """f / g in Z[x] when the division is exact, else None."""
    dg = len(g) - 1
    if len(f) <= dg:
        return None if f else []
    r = list(f)
    lc = g[-1]
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + dg], lc)
        if m:
            return None
        if c:
            q[k] = c
            for j in range(dg):
                r[k + j] -= c * g[j]
    return None if any(r[:dg]) else q


def _confirm(f, g, values, lift, primitive, divide):
    """(h, f/h, g/h) from values at xi, confirmed by exact division, or None.

    values = (gamma, f(xi)/gamma, g(xi)/gamma) with gamma the gcd at xi;
    lift reads a value back as a polynomial (balanced base-xi digits).  h
    is tried as the primitive part of the lifted gamma, then as f or g
    divided by its lifted cofactor.
    """
    gamma, fq, gq = values
    h = primitive(lift(gamma))
    a = divide(f, h)
    if a is not None:
        b = divide(g, h)
        if b is not None:
            return h, a, b
    a = lift(fq)
    h = divide(f, a)
    if h is not None:
        b = divide(g, h)
        if b is not None:
            return h, a, b
    b = lift(gq)
    h = divide(g, b)
    if h is not None:
        a = divide(f, h)
        if a is not None:
            return h, a, b
    return None


def _zz_primitive(p: list) -> list:
    c = _content(p)
    return [x // c for x in p]


def _zz_heu(f: list, g: list):
    """(h, f/h, g/h) for primitive f, g of degree >= 1."""
    xi = _xi_start(max(map(abs, f)), f[-1], max(map(abs, g)), g[-1])
    while True:
        fv, gv = _eval(f, xi), _eval(g, xi)
        if fv and gv:
            gamma = math.gcd(fv, gv)
            res = _confirm(f, g, (gamma, fv // gamma, gv // gamma),
                           lambda v: _digits(v, xi), _zz_primitive, _zz_div)
            if res is not None:
                return res
        xi = _xi_next(xi)


def _zz_gcd(f: list, g: list):
    """(h, f/h, g/h) with h = +-gcd(f, g) in Z[x], content included.

    f and g are nonzero.
    """
    cf, cg = _content(f), _content(g)
    c = math.gcd(cf, cg)
    if len(f) == 1 or len(g) == 1:
        return [c], [x // c for x in f], [x // c for x in g]
    h, a, b = _zz_heu([x // cf for x in f], [x // cg for x in g])
    return ([c * x for x in h], [cf // c * x for x in a],
            [cg // c * x for x in b])


def _zzy_div(f: list, g: list):
    """f / g in Z[y][t] when the division is exact, else None."""
    dg = len(g) - 1
    if len(f) <= dg:
        return None if any(f) else []
    r = [list(c) for c in f]
    lc = g[-1]
    q = [[] for _ in range(len(f) - dg)]
    for k in range(len(q) - 1, -1, -1):
        top = _trim(r[k + dg])
        if not top:
            continue
        c = _zz_div(top, lc)
        if c is None:
            return None
        q[k] = c
        for j in range(dg):
            if g[j]:
                r[k + j] = _int_sum(r[k + j],
                                    [-x for x in _int_product(c, g[j])])
    return None if any(_trim(r[j]) for j in range(dg)) else q


def _zzy_sum(a: list, b: list) -> list:
    """a + b in Z[y][t]."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, row in enumerate(b):
        if row:
            out[i] = _trim(_int_sum(a[i], row))
    return _trim(out)


def _zzy_negate(p: list) -> list:
    return [[-c for c in row] for row in p]


def _zzy_product(a: list, b: list) -> list:
    """a * b in Z[y][t]."""
    if not a or not b:
        return []
    if a == [[1]] or b == [[1]]:
        return b if a == [[1]] else a
    width = max(map(len, a)) + max(map(len, b)) - 1
    out = [[0] * width for _ in range(len(a) + len(b) - 1)]
    rows_b = [(j, rb) for j, rb in enumerate(b) if rb]
    for i, ra in enumerate(a):
        if ra:
            for j, rb in rows_b:
                row = out[i + j]
                for k, x in enumerate(ra):
                    if x:
                        for m, z in enumerate(rb, k):
                            row[m] += x * z
    return [_trim(row) for row in out]


def _zzy_primitive(p: list) -> list:
    c = math.gcd(*map(_content, p))
    return [[x // c for x in row] for row in p]


def _zzy_gcd(f: list, g: list):
    """(h, f/h, g/h) for nonzero f, g in Z[y][t].

    h divides f and g in Z[y][t] and f/h, g/h are coprime in Q(y)[t], so
    h is the gcd over Q(y)[t] up to a unit.
    """
    if len(f) == 1 or len(g) == 1:
        return [[1]], f, g
    cf = math.gcd(*map(_content, f))
    cg = math.gcd(*map(_content, g))
    f = [[x // cf for x in row] for row in f]
    g = [[x // cg for x in row] for row in g]
    norm_f = max(abs(x) for row in f for x in row)
    norm_g = max(abs(x) for row in g for x in row)
    xi = _xi_start(norm_f, f[-1][-1], norm_g, g[-1][-1])
    while True:
        fv = [_eval(row, xi) for row in f]
        gv = [_eval(row, xi) for row in g]
        # a t-degree lost at y = xi would break the argument above
        if fv[-1] and gv[-1]:
            res = _confirm(f, g, _zz_gcd(fv, gv),
                           lambda vs: [_digits(v, xi) for v in vs],
                           _zzy_primitive, _zzy_div)
            if res is not None:
                h, a, b = res
                return (h, [[cf * x for x in row] for row in a],
                        [[cg * x for x in row] for row in b])
        xi = _xi_next(xi)


def _row_gcd(field, f: list, g: list):
    """The one gcd entry: (h, f/h, g/h) for nonzero integer rows f, g,
    the coefficients of polynomials over field over one denominator: ints
    over Q (_zz_gcd), integer lists in x over Q(x) (_zzy_gcd).  h is the
    gcd up to a unit of field."""
    return (_zz_gcd if isinstance(field, RationalField) else _zzy_gcd)(f, g)


def _lower(a: UniPoly, b: UniPoly):
    """a and b as integer rows (see _row_gcd) over one denominator."""
    n, cs = len(a.coeffs), a.coeffs + b.coeffs
    rows = (_clear(cs) if isinstance(a.field, RationalField)
            else _integer_numerators(a.field, cs))[0]
    return rows[:n], rows[n:]


def _rows_over(field, var, rows: list, lead) -> UniPoly:
    """The polynomial over field with coefficients rows[i] / lead.

    Over Q, rows and lead are integers; over Q(x), integer coefficient
    lists in x.  Each coefficient is normalised once.
    """
    if isinstance(field, RationalField):
        return UniPoly(field, var, [Fraction(r, lead) for r in rows])
    return UniPoly(field, var, [_from_integers(field, r, lead) for r in rows])


def _canonical(field, var, num: list, den: list):
    """(n, d) canonical with n / d = num / den, for integer rows num and
    den != 0 (see _row_gcd) over field: the one place canonical form is
    restored.  The gcd's cofactors over the leading coefficient of den's
    give a monic d, with each coefficient normalised once."""
    if not num:
        return UniPoly(field, var, []), _one_poly(field, var)
    _, a, b = _row_gcd(field, num, den)
    return _rows_over(field, var, a, b[-1]), _rows_over(field, var, b, b[-1])


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q or Q(x); gcd(0, b) = monic(b), gcd(0, 0) = 0."""
    if a.is_zero or b.is_zero:
        return b.monic() if a.is_zero else a.monic()
    h = _row_gcd(a.field, *_lower(a, b))[0]
    return _rows_over(a.field, a.var, h, h[-1])


def poly_lcm(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic lcm: a times the denominator of the canonical a / b, which
    is b / gcd(a, b) made monic; lcm with 0 is 0."""
    if a.is_zero or b.is_zero:
        return UniPoly(a.field, a.var, [])
    return (a * RatFunc(a, b).den).monic()


class RatFunc:
    """Quotient of two UniPoly over the same field, in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = _one_poly(num.field, num.var)
        elif den.coeffs != (den.field.one,):
            num, den = _canonical(num.field, num.var, *_lower(num, den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num: UniPoly, den: UniPoly) -> "RatFunc":
        """A RatFunc from a pair already in canonical form, without a gcd.

        The caller guarantees gcd(num, den) = 1, den monic, and den = 1
        when num is zero.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def var(self):
        return self.num.var

    @property
    def is_zero(self):
        return self.num.is_zero

    def _coerce_operand(self, other):
        if isinstance(other, RatFunc):
            if other.var == self.var and other.num.field is self.num.field:
                return other
            return None
        return _lift(self.num.field, self.var, other)

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        for c, f in ((o, self), (self, o)):
            if c.num.degree <= 0 and c.den.degree == 0:
                # c is a constant (its monic denominator is 1), a unit
                # unless zero, so scaling f.num keeps f canonical
                if c.is_zero:
                    return c
                k = c.num.coeffs[0]
                return RatFunc._reduced(
                    f.num._same([a * k for a in f.num.coeffs]), f.den)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        """num^k / den^k: coprime and monic again, so no gcd runs."""
        if not isinstance(k, int):
            raise ValueError("RatFunc power needs an integer exponent")
        if k >= 0:
            return RatFunc._reduced(self.num ** k, self.den ** k)
        if self.is_zero:
            raise ZeroDivisionError("zero to a negative power")
        # den^j / num^j with both divided by lead(num)^j, which makes the
        # new denominator monic
        j = -k
        lead = self.num.leading ** j
        num = self.den ** j
        return RatFunc._reduced(num._same([c / lead for c in num.coeffs]),
                                self.num.monic() ** j)

    def diff(self):
        """Formal derivative in this layer's variable (quotient rule)."""
        n, d = self.num, self.den
        return RatFunc(n.diff() * d - n * d.diff(), d * d)

    def eval(self, point):
        db = self.den.eval(point)
        if db == self.den.field.zero:
            raise PoleError(
                f"{self.var} = {point} is a root of denominator {self.den}")
        return self.num.eval(point) / db

    def __eq__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"RatFunc({self.num.field.name}({self.var}): {format_element(self)})"


def _one_poly(field, var):
    return UniPoly(field, var, [field.one])


def _lift(field, var, value):
    """value as an element of field(var), for a polynomial in var over
    field or an element of field; None for anything else."""
    if not (isinstance(value, UniPoly) and value.var == var
            and value.field is field):
        try:
            value = UniPoly(field, var, [field.coerce(value)])
        except TypeError:
            return None
    return RatFunc._reduced(value, _one_poly(field, var))


class FractionField:
    """Descriptor for a rational-function field over a coefficient field."""

    def __init__(self, coeff_field, var):
        self.coeff_field = coeff_field
        self.var = var
        self.name = f"{coeff_field.name}({var})"
        self.zero, self.one = (_lift(coeff_field, var, c) for c in (0, 1))

    def poly(self, coeffs):
        return UniPoly(self.coeff_field, self.var, coeffs)

    @property
    def gen(self):
        return RatFunc(self.poly([0, 1]), self.poly([1]))

    def coerce(self, value):
        lifted = value if self.is_element(value) \
            else _lift(self.coeff_field, self.var, value)
        if lifted is None:
            raise TypeError(f"cannot coerce {value!r} into {self.name}")
        return lifted

    def is_element(self, value):
        return (isinstance(value, RatFunc) and value.var == self.var
                and value.num.field is self.coeff_field)

    def __repr__(self):
        return self.name


QY = FractionField(QQ, "y")     # Q(y)
QYT = FractionField(QY, "t")    # Q(y)(t)
QT = FractionField(QQ, "t")     # Q(t)
QS = FractionField(QQ, "s")     # Q(s)
QN = FractionField(QQ, "n")     # Q(n)


def _integer_numerators(ring, values):
    """values[i] = nums[i] / den with integer coefficient lists.

    Over Q each list has one entry.  Over Q(var) the lists are in var
    (lowest first) and den is an integer multiple of the monic lcm L of
    the denominators, so nums[i] / den[-1] are the numerators over L.
    With E the cleared (primitive) denominators, D <- D (E / gcd(D, E))
    with lc(D) > 0 is the cleared L, L / v.den = (D / E) lc(E) / lc(D),
    and D / E is exact in Z[var] by Gauss's lemma.  Raises TypeError for
    a coefficient field other than Q or Q(x).
    """
    if isinstance(ring, RationalField):
        nums, den = _clear(values)
        return [[n] for n in nums], [den]
    if ring.coeff_field is not QQ:
        raise TypeError(f"no integer rows over {ring.name}")
    dens = {d: _clear(d.coeffs) for d in dict.fromkeys(v.den for v in values)}
    D = [1]
    for E, _ in dens.values():
        b = _row_gcd(QQ, D, E)[2]           # E / gcd(D, E), up to sign
        D = _int_product(D, b if b[-1] > 0 else [-x for x in b])
    for d, (E, lc_E) in dens.items():
        q = _zz_div(D, E)
        if q is None:
            raise ArithmeticError(f"{d} does not divide the lcm {D}")
        dens[d] = [lc_E * x for x in q]
    scale = math.lcm(*(c.denominator for v in values for c in v.num.coeffs))
    return ([_int_product([c.numerator * (scale // c.denominator)
                           for c in v.num.coeffs], dens[v.den])
             for v in values], [scale * x for x in D])


def _from_integers(ring, num: list, den: list):
    """num / den for integer coefficient lists as one element of ring.

    The kernels' outputs are normalised here, once each, by _canonical.
    """
    if isinstance(ring, RationalField):
        return Fraction(num[0] if num else 0, den[0])
    return RatFunc._reduced(*_canonical(QQ, ring.var, _trim(list(num)),
                                        _trim(list(den))))


def substitute_y(R: RatFunc, r: Fraction) -> RatFunc:
    """Specialize y := r in an element of Q(y)(t), landing in Q(t).

    The denominator stays nonzero because it is monic in t over Q(y).
    Raises PoleError naming the offending denominator when r is a pole
    of any coefficient.
    """
    r = QQ.coerce(r)
    num = UniPoly(QQ, "t", [c.eval(r) for c in R.num.coeffs])
    den = UniPoly(QQ, "t", [c.eval(r) for c in R.den.coeffs])
    return RatFunc(num, den)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


# rational_roots enumerates the divisors of the lowest and the leading
# coefficient by trial division up to their square roots; it refuses a
# polynomial for which either square root exceeds this.  The limit bounds
# coefficient size only, not time: the candidate loop runs over the product
# of the two divisor counts, which highly composite coefficients below the
# limit make large.
MAX_ROOT_SEARCH = 10 ** 7


def rational_roots(p: UniPoly) -> set[Fraction]:
    """Exactly the rational roots of a nonzero polynomial over Q.

    Candidates come from divisor enumeration over the integer-cleared
    coefficients; each candidate is confirmed by exact evaluation.
    Raises DomainError, before any search, when the square root of the
    lowest nonzero or the leading cleared coefficient exceeds
    MAX_ROOT_SEARCH.  That limit bounds coefficient size, not search time,
    which grows with the product of the two coefficients' divisor counts.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every point as a root")
    if not isinstance(p.field, RationalField):
        raise TypeError("rational_roots needs a polynomial over Q")
    if p.degree == 0:
        return set()
    ints, _ = _clear(p.coeffs)
    roots: set[Fraction] = set()
    low = 0
    while ints[low] == 0:
        low += 1
    if low > 0:
        roots.add(Fraction(0))
        ints = ints[low:]
    if len(ints) == 1:
        return roots
    a0, an = ints[0], ints[-1]
    if max(abs(a0), abs(an)) > MAX_ROOT_SEARCH ** 2:
        raise DomainError(
            f"rational root search of {p} is too large: a coefficient "
            f"exceeds {MAX_ROOT_SEARCH}^2 after clearing denominators")
    for num in _divisors(a0):
        for den in _divisors(an):
            if math.gcd(num, den) != 1:
                continue
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in roots and p.eval(cand) == 0:
                    roots.add(cand)
    return roots


# ---------------------------------------------------------------------------
# Canonical printing.
#
# Grammar-compatible text: expanded numerator '/' expanded denominator,
# terms in decreasing degree.  Every element is printed after clearing
# its coefficient denominators (_integer_numerators), so over Q(y)(t)
# each side is a polynomial in t and y with rational coefficients
# (e.g. "(t^2*y + y + 2)/y"); over Q(var) every power of the (absent)
# inner variable is 0 and _mono_str leaves it out.


def _mono_str(c: Fraction, heads: list[tuple[str, int]]) -> str:
    parts = []
    if abs(c) != 1 or all(p == 0 for _, p in heads):
        parts.append(str(abs(c)))
    for sym, p in heads:
        if p == 1:
            parts.append(sym)
        elif p > 1:
            parts.append(f"{sym}^{p}")
    return "*".join(parts)


def _join_monos(monos: list[tuple[Fraction, list[tuple[str, int]]]]) -> str:
    if not monos:
        return "0"
    pieces = []
    for i, (c, heads) in enumerate(monos):
        body = _mono_str(c, heads)
        if i == 0 and c < 0:
            # In the grammar '-' binds a whole base, so '-t^2' would read
            # as (-t)^2; spell the coefficient out instead.
            if "^" in body.split("*", 1)[0]:
                body = "1*" + body
            pieces.append("-" + body)
        elif i == 0:
            pieces.append(body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


def _bivar_monos(var: str, rows: list, lead: int, inner_var: str):
    out = []
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        for j in range(len(row) - 1, -1, -1):
            if row[j]:
                out.append((Fraction(row[j], lead),
                            [(var, i), (inner_var, j)]))
    return out


def _needs_parens_num(s: str) -> bool:
    return " + " in s or " - " in s


def _needs_parens_den(s: str) -> bool:
    return not s.replace("^", "").replace("/", "").isalnum() or "/" in s


def format_element(obj) -> str:
    """Canonical text form; parse(format_element(v)) recovers v exactly."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, UniPoly):
        obj = RatFunc._reduced(obj, _one_poly(obj.field, obj.var))
    if not isinstance(obj, RatFunc):
        raise TypeError(f"cannot format {obj!r}")
    field, n = obj.num.field, len(obj.num.coeffs)
    rows, den = _integer_numerators(field, obj.num.coeffs + obj.den.coeffs)
    num_s = _join_monos(_bivar_monos(obj.var, rows[:n], den[-1], field.var))
    den_s = _join_monos(_bivar_monos(obj.var, rows[n:], den[-1], field.var))
    if den_s == "1":
        return num_s
    if _needs_parens_num(num_s):
        num_s = f"({num_s})"
    if _needs_parens_den(den_s):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"
