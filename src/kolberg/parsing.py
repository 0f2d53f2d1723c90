"""Expression parsing and canonical printing.

Grammar (UTF-8 text):
    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' integer)?
    base     := rational | variable | '(' expr ')' | '-' base
    rational := integer ('/' positive-integer)?
    variable in {y, t, s, n, x}

A rational literal and a quotient of integer literals denote the same
value, so the tokenizer only knows integers and '/' is always division.
Exponents are integer literals, optionally negative.

Every field lowers onto one representation: (numerator, denominator)
pairs of integer arrays in Z[y][v], v the field's variable, in the gcd
kernel's format (a list in v of integer lists in y, no trailing zeros).
Q, Q(var) and Q(y)(t) share it; the field matters only at the end.

Limits (each violation is a ParseError, exit code 2 in the CLI):
    MAX_NESTING     parentheses and unary minus nest at most this deep;
    MAX_DIGITS      an integer literal has at most this many digits;
    MAX_EXPONENT    an exponent has absolute value at most this;
    MAX_POWER_SIZE  |exponent| times the size of the base (degree plus
                    coefficient bits) is at most this, which bounds
                    nested powers such as ((y^1000)^1000)^1000.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rational import (
    QQ, QS, QT, QY, QYT,
    DomainError, FractionField, RatFunc, UniPoly, format_element,
    _canonical, _power, _zzy_negate, _zzy_product, _zzy_sum,
)

VARIABLES = frozenset("ytsnx")
MAX_NESTING = 100
MAX_DIGITS = 4300          # int's default str-digit limit since 3.11
MAX_EXPONENT = 1000
MAX_POWER_SIZE = 100_000


class ParseError(ValueError):
    """Syntax or lowering failure; carries the source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Num:
    value: int
    pos: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = 0


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object
    pos: int = 0


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    child: object
    pos: int = 0


Expression = object  # any of the node classes above


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None, self.pos
        return self.text[self.pos], self.pos

    def take(self):
        ch, pos = self.peek()
        if ch is not None:
            self.pos += 1
        return ch, pos

    def take_integer(self):
        ch, pos = self.peek()
        sign = 1
        if ch == "-":
            self.pos += 1
            sign = -1
            ch, _ = self.peek()
        if ch is None or not ch.isdigit():
            raise ParseError("expected an integer", pos)
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos - start > MAX_DIGITS:
            raise ParseError(
                f"integer literal longer than {MAX_DIGITS} digits", pos)
        return sign * int(self.text[start:self.pos]), pos


class _Parser:
    def __init__(self, text: str, variables):
        self.toks = _Tokenizer(text)
        self.variables = frozenset(variables)
        self.depth = 0

    def parse(self):
        node = self.expr()
        ch, pos = self.toks.peek()
        if ch is not None:
            raise ParseError(f"unexpected character {ch!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            ch, pos = self.toks.peek()
            if ch in ("+", "-"):
                self.toks.take()
                node = Bin(ch, node, self.term(), pos)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            ch, pos = self.toks.peek()
            if ch in ("*", "/"):
                self.toks.take()
                node = Bin(ch, node, self.factor(), pos)
            else:
                return node

    def factor(self):
        node = self.base()
        ch, pos = self.toks.peek()
        if ch == "^":
            self.toks.take()
            k, kpos = self.toks.take_integer()
            if abs(k) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {k} beyond the limit of {MAX_EXPONENT}", kpos)
            node = Pow(node, k, pos)
        return node

    def base(self):
        ch, pos = self.toks.peek()
        if ch is None:
            raise ParseError("unexpected end of input", pos)
        if ch in "-(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"nesting deeper than the limit of {MAX_NESTING}", pos)
            self.toks.take()
            if ch == "-":
                node = Neg(self.base(), pos)
            else:
                node = self.expr()
                ch2, pos2 = self.toks.peek()
                if ch2 != ")":
                    raise ParseError("expected ')'", pos2)
                self.toks.take()
            self.depth -= 1
            return node
        if ch.isdigit():
            value, pos = self.toks.take_integer()
            return Num(value, pos)
        if ch.isalpha():
            if ch not in VARIABLES:
                raise ParseError(f"unknown variable {ch!r}", pos)
            if ch not in self.variables:
                raise ParseError(f"variable {ch!r} not allowed here", pos)
            self.toks.take()
            nxt, npos = self.toks.peek()
            if nxt is not None and nxt.isalpha():
                raise ParseError("variables are single letters", npos)
            return Var(ch, pos)
        raise ParseError(f"unexpected character {ch!r}", pos)


def parse_expr(text: str, variables=VARIABLES) -> Expression:
    """Parse text into an expression tree, validating variable names."""
    return _Parser(text, variables).parse()


def _layers(field, p: list):
    """p without the layers field lacks: an int for Q, a list for Q(var)."""
    if field is QQ:
        return p[0][0] if p else 0
    if field.coeff_field is QQ:
        return [row[0] if row else 0 for row in p]
    return p


def _size(value) -> int:
    """Degree plus coefficient bits: a bound on what a power multiplies."""
    if isinstance(value, int):
        return value.bit_length() + 1
    return len(value) + max(map(_size, value), default=0)


def _finish(field, num: list, den: list):
    """num / den as one element of field, normalised by _canonical."""
    num, den = _layers(field, num), _layers(field, den)
    if field is QQ:
        return Fraction(num, den)
    return RatFunc._reduced(*_canonical(field.coeff_field, field.var,
                                        num, den))


def lower(node: Expression, field):
    """Evaluate an expression tree inside a field.

    The tree is evaluated on (numerator, denominator) pairs of arrays in
    Z[y][v], without any gcd, and _finish builds one field element at
    the end.  Division by a zero polynomial is a parse-level failure,
    mirroring '1/0'.  The walk uses an explicit stack, so long sums and
    products need no recursion.
    """
    pairs = {} if field is QQ else {field.var: ([[], [1]], [[1]])}
    if field is not QQ and field.coeff_field is not QQ:
        pairs[field.coeff_field.var] = ([[0, 1]], [[1]])
    values = []
    todo = [(node, False)]
    while todo:
        node, ready = todo.pop()
        if isinstance(node, Num):
            values.append(([[node.value]] if node.value else [], [[1]]))
        elif isinstance(node, Var):
            if node.name not in pairs:
                raise ParseError(
                    f"variable {node.name!r} has no meaning in {field.name}",
                    node.pos)
            values.append(pairs[node.name])
        elif not ready:
            todo.append((node, True))
            if isinstance(node, Bin):
                todo += [(node.right, False), (node.left, False)]
            elif isinstance(node, Neg):
                todo.append((node.child, False))
            elif isinstance(node, Pow):
                todo.append((node.base, False))
            else:
                raise TypeError(f"not an expression node: {node!r}")
        elif isinstance(node, Neg):
            n, d = values.pop()
            values.append((_zzy_negate(n), d))
        elif isinstance(node, Pow):
            values.append(_lowered_power(values.pop(), node, field))
        else:
            nb, db = values.pop()
            na, da = values.pop()
            if node.op in "+-":
                if node.op == "-":
                    nb = _zzy_negate(nb)
                if da == db:
                    values.append((_zzy_sum(na, nb), da))
                else:
                    values.append((_zzy_sum(_zzy_product(na, db),
                                            _zzy_product(nb, da)),
                                   _zzy_product(da, db)))
            elif node.op == "*":
                values.append((_zzy_product(na, nb), _zzy_product(da, db)))
            elif not nb:
                raise ParseError("division by the zero polynomial", node.pos)
            else:
                values.append((_zzy_product(na, db), _zzy_product(da, nb)))
    return _finish(field, *values.pop())


def _lowered_power(pair, node: Pow, field):
    n, d = pair
    k = node.exponent
    size = max(_size(_layers(field, n)), _size(_layers(field, d)))
    if abs(k) * size > MAX_POWER_SIZE:
        raise ParseError(
            f"power too large (limit {MAX_POWER_SIZE} for |exponent| "
            "times degree plus coefficient bits)", node.pos)
    if k < 0:
        if not n:
            raise ParseError("zero raised to a negative power", node.pos)
        n, d, k = d, n, -k
    return (_power(n, k, _zzy_product, [[1]]),
            _power(d, k, _zzy_product, [[1]]))


def parse_to(text: str, field) -> RatFunc:
    """Parse and lower into one of the tower fields."""
    return lower(parse_expr(text), field)


def parse_qyt(text: str) -> RatFunc:
    return parse_to(text, QYT)


def parse_qy(text: str) -> RatFunc:
    return parse_to(text, QY)


def parse_qt(text: str) -> RatFunc:
    return parse_to(text, QT)


def parse_qs(text: str) -> RatFunc:
    return parse_to(text, QS)


def parse_poly(text: str, var: str = "n") -> UniPoly:
    """Parse a polynomial over Q in one variable; reject true quotients."""
    rf = parse_to(text, FractionField(QQ, var))
    if rf.den.degree != 0:
        raise DomainError(f"expected a polynomial in {var}, got {rf}")
    return rf.num


print_canonical = format_element
