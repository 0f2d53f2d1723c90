"""Coefficient transforms between a series and its associated series.

H(x) = sum u_n x^n/n! and G(t) = H(t*e^{-t}) = sum v_n t^n/n! determine
each other through a pair of binomial transforms:

    u_n = sum_{m=1..n} C(n-1, m-1) * n^(n-m) * v_m      (n >= 1)
    v_n = sum_{m=1..n} C(n, m) * (-m)^(n-m) * u_m       (n >= 1)

with u_0 = v_0.  The power convention 0^0 = 1 is forced by the m = n
term (it makes u_1 = v_1).  Entries live in Q or in Q(y); the formulas
are the same in both rings.  The first formula is written once, as an
integer kernel (_binomial_columns) that every series-coefficient path
uses; the second map is its inverse, by forward substitution in it.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .parsing import parse_to, print_canonical
from .rational import QQ, QY, _from_integers, _integer_numerators


def _ring_by_tag(tag: str):
    if tag == "Q":
        return QQ
    if tag == "Q(y)":
        return QY
    raise ValueError(f"unknown ring tag {tag!r}")


@dataclass(frozen=True)
class CoeffSeq:
    """Coefficients u_0..u_N (kind 'u') or v_0..v_N (kind 'v')."""

    kind: str
    ring: object
    values: tuple

    def __post_init__(self):
        if self.kind not in ("u", "v"):
            raise ValueError("kind must be 'u' or 'v'")
        object.__setattr__(
            self, "values",
            tuple(self.ring.coerce(v) for v in self.values))

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _binomial_columns(columns, kind: str) -> list:
    """The transform named by kind on integer columns x_1..x_N, in Horner
    form over one binomial row per n, built by Pascal addition and shared
    by every column: acc = acc n + C(n-1, m-1) x_m for m = 1, 2, ...

    Kind 'u' runs m to n over the input column.  Kind 'v' is forward
    substitution: the sum stops at m = n - 1, over the v_m solved so far,
    and v_n = u_n - n acc.
    """
    outs = [[] for _ in columns]
    row = []                        # C(n-1, j), j = 0..n-1
    for n in range(1, len(columns[0]) + 1 if columns else 0):
        row = list(map(operator.add, row + [0], [0] + row)) if row else [1]
        for col, out in zip(columns, outs):
            acc = 0
            # zip stops at the n entries of the row, or at the n - 1 solved
            for c, x in zip(row, col if kind == "u" else out):
                acc = acc * n + c * x
            out.append(acc if kind == "u" else col[n - 1] - n * acc)
    return outs


def _binomial_rows(rows: list, kind: str) -> list:
    """_binomial_columns on entries given as integer coefficient rows."""
    width = max(map(len, rows), default=0)
    outs = _binomial_columns(
        list(zip(*(row + [0] * (width - len(row)) for row in rows))), kind)
    return list(zip(*outs)) if outs else [[] for _ in rows]


def _transform(seq: CoeffSeq, N: int, kind: str) -> CoeffSeq:
    """Entry 0 of seq, then entries 1..N of the transform named by kind,
    run on integer coefficient rows over one common denominator and each
    normalised once."""
    if N < 0:
        raise ValueError(f"order N must be nonnegative, got {N}")
    rows, den = _integer_numerators(seq.ring, seq.values[1:N + 1])
    out = [_from_integers(seq.ring, ints, den)
           for ints in _binomial_rows(rows, kind)]
    return CoeffSeq(kind, seq.ring, (seq.values[0], *out))


def to_associated(u: CoeffSeq, N: int | None = None) -> CoeffSeq:
    """G-coefficients of the associated series from H-coefficients."""
    if u.kind != "u":
        raise ValueError("to_associated expects H-coefficients (kind 'u')")
    if N is None:
        N = u.order
    if u.order < N:
        raise ValueError(f"need u_0..u_{N}, have only {u.order + 1} entries")
    return _transform(u, N, "v")


def from_associated(v: CoeffSeq, N: int | None = None) -> CoeffSeq:
    """H-coefficients from the coefficients of the associated series."""
    if v.kind != "v":
        raise ValueError("from_associated expects G-coefficients (kind 'v')")
    if N is None:
        N = v.order
    if v.order < N:
        raise ValueError(f"need v_0..v_{N}, have only {v.order + 1} entries")
    return _transform(v, N, "u")


def compose_oracle(u: CoeffSeq, N: int | None = None) -> CoeffSeq:
    """G-coefficients by literal substitution, for cross-checking.

    Expands sum_n u_n * t^n * e^{-n t} / n! with each e^{-n t} as a
    truncated power series, multiplying series term by term; no
    binomial identity is used anywhere.
    """
    if u.kind != "u":
        raise ValueError("compose_oracle expects H-coefficients (kind 'u')")
    if N is None:
        N = u.order
    if N < 0:
        raise ValueError(f"order N must be nonnegative, got {N}")
    if u.order < N:
        raise ValueError(f"need u_0..u_{N}, have only {u.order + 1} entries")
    coeffs = [u.ring.zero] * (N + 1)
    coeffs[0] = u.values[0]
    for n in range(1, N + 1):
        inv_nfact = Fraction(1, math.factorial(n))
        # truncated series of e^{-n t}: sum_j (-n)^j t^j / j!
        for j in range(N - n + 1):
            scale = inv_nfact * Fraction((-n) ** j, math.factorial(j))
            coeffs[n + j] = coeffs[n + j] + scale * u.values[n]
    values = [coeffs[k] * math.factorial(k) for k in range(N + 1)]
    return CoeffSeq("v", u.ring, tuple(values))


def sequence_to_json(seq: CoeffSeq) -> str:
    obj = {
        "ring": seq.ring.name,
        "kind": seq.kind,
        "coeffs": [print_canonical(v) for v in seq.values],
    }
    return json.dumps(obj, indent=2)


def sequence_from_json(text: str) -> CoeffSeq:
    obj = json.loads(text)
    coeffs = obj["coeffs"] if isinstance(obj, dict) else None
    if not isinstance(coeffs, list) or not all(
            isinstance(c, str) for c in coeffs):
        raise ValueError("sequence JSON needs a 'coeffs' list of strings")
    ring = _ring_by_tag(obj["ring"])
    values = tuple(parse_to(c, ring) for c in coeffs)
    return CoeffSeq(obj["kind"], ring, values)
