"""Coefficient transforms between a series and its associated series.

H(x) = sum u_n x^n/n! and G(t) = H(t*e^{-t}) = sum v_n t^n/n! determine
each other through a pair of binomial transforms:

    u_n = sum_{m=1..n} C(n-1, m-1) * n^(n-m) * v_m      (n >= 1)
    v_n = sum_{m=1..n} C(n, m) * (-m)^(n-m) * u_m       (n >= 1)

with u_0 = v_0.  The power convention 0^0 = 1 is forced by the m = n
term (it makes u_1 = v_1).  Entries live in Q or in Q(y); the formulas
are the same in both rings.  Both directions use the first formula's
weights: the second map is its inverse, computed by forward substitution.
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


def _ipow(base: int, exp: int) -> int:
    # 0^0 = 1 by the series convention
    return 1 if exp == 0 else base ** exp


def _from_weights(n: int) -> list:
    """C(n-1, m-1) n^(n-m) for m = 1..n, walked down from w(n, n) = 1 by
    the exact step w(n, m-1) = w(n, m) (m-1) n / (n-m+1)."""
    row = [1] * n
    w = 1
    for m in range(n, 1, -1):
        w = w * (m - 1) * n // (n - m + 1)
        row[m - 2] = w
    return row


def _transform(seq: CoeffSeq, N: int, kind: str) -> CoeffSeq:
    """Entry 0 of seq, then entries 1..N of the transform named by kind.

    With w = _from_weights(n), kind 'u' is u_n = sum_{m=1..n} w[m-1] v_m,
    and kind 'v' solves the same unit lower-triangular system by forward
    substitution, v_n = u_n - sum_{m<n} w[m-1] v_m.  The entries are
    written as integer coefficient rows over one common denominator; the
    weights are integers, so every sum stays an integer dot product per
    coefficient over that denominator, and each output is normalised once.
    """
    if N < 0:
        raise ValueError(f"order N must be nonnegative, got {N}")
    rows, den = _integer_numerators(seq.ring, seq.values[1:N + 1])
    width = max(map(len, rows), default=0)
    columns = list(zip(*(row + [0] * (width - len(row)) for row in rows)))
    solved = [[] for _ in columns]
    out = [seq.values[0]]
    for n in range(1, N + 1):
        w = _from_weights(n)
        if kind == "u":
            ints = [sum(map(operator.mul, w, col)) for col in columns]
        else:
            # map stops at the n - 1 entries solved so far
            ints = [col[n - 1] - sum(map(operator.mul, w, vs))
                    for col, vs in zip(columns, solved)]
            for vs, x in zip(solved, ints):
                vs.append(x)
        out.append(_from_integers(seq.ring, ints, den))
    return CoeffSeq(kind, seq.ring, tuple(out))


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
            scale = inv_nfact * Fraction(_ipow(-n, j), math.factorial(j))
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
