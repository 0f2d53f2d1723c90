"""The three workloads: each builds, from a seeded generator, the list of
timed operations of one pass, with a check of each result against an
independent reference.

A pass is run by a fresh interpreter (see worker.py), so the process-wide
cache in kolberg.numeric starts empty and no input is timed twice in one
interpreter.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath

from reference import (
    H_closed, agrees, assoc_forward, encloses, horner, level_at, mpq,
    neighbor_ok, points, qy_at, qyt_at, qyt_dt_at, taylor_g, tree_branch,
)

F = Fraction


@dataclass
class Op:
    kind: str                       # operation type, e.g. "tower.mul"
    key: str                        # its inputs; equal seeds give equal keys
    run: Callable[[], object]       # the timed call
    # untimed comparison with a reference: True, or False or a reason
    check: Callable[[object], object]


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


def _eq_or_none(a, b):
    return None if a is None or b is None else a == b


# -- tower -----------------------------------------------------------------

GENERATORS = {
    "diese": ("1 + 2/y + t^2",
              lambda t, y: None if y == 0 else 1 + 2 / y + t * t),
    "kolberg": ("1/y", lambda t, y: None if y == 0 else 1 / y),
    "infertile": ("1/(t-2)", lambda t, y: None if t == 2 else 1 / (t - 2)),
}
RANDOM_PAIRS = 36


def random_qyt(lib, rng, num_terms: int, den_terms: int):
    """A Q(y)(t) element with num_terms and den_terms t-coefficients, each
    a polynomial in y of degree <= 2, and the drawn coefficients.  Only
    zero is redrawn (it has no inverse); no element is rejected for its
    cost."""
    R = lib.rational
    one = R.UniPoly(R.QQ, "y", [1])

    def side(terms):
        return [[F(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))] for _ in range(terms)]

    def lift(cs):
        return R.UniPoly(R.QY, "t", [R.RatFunc(R.UniPoly(R.QQ, "y", c), one)
                                     for c in cs])

    while True:
        num, den = side(num_terms), side(den_terms)
        try:
            value = R.RatFunc(lift(num), lift(den))
        except ZeroDivisionError:
            continue
        if not value.is_zero:
            return value, (num, den)


def shapes(rng, max_terms: int, count: int) -> list[tuple[int, int]]:
    """count (numerator, denominator) t-term counts that cycle evenly
    through every combination up to max_terms, in seeded order.  Cost
    depends mostly on this shape, so each pass gets the same mix."""
    combos = [(n, d) for n in range(1, max_terms + 1)
              for d in range(1, max_terms + 1)]
    out = []
    while len(out) < count:
        rng.shuffle(combos)
        out += combos
    return out[:count]


def _tower_ok(q, pts, lo, hi) -> bool:
    if (q.k_min, q.k_max) != (lo, hi):
        return False
    return all(agrees(pts, lambda t, y: neighbor_ok(
        q.level(k).R, q.level(k + 1).R, t, y)) for k in range(lo, hi))


def build_tower(lib, rng, golden, corrupt=False) -> list[Op]:
    Q, P, pr = lib.quatuor, lib.parsing, lib.rational.format_element
    gold = dict(golden["levels"])
    if corrupt:
        gold[0] = "(t^2*y + y + 3)/y"
    pts = points(rng, 3)
    dq = Q.diese_quatuor(-2, 3)
    kq = Q.kolberg_quatuor(-2, 2)
    dq_gold = Q.Quatuor(-1, [dq.level(k) for k in (-1, 0, 1)], 0)
    kq_json = Q.quatuor_to_json(kq)
    gold_json = golden["text"]["quatuor_gen.json"]
    ops: list[Op] = []

    for text, formula in GENERATORS.values():
        ops.append(Op("tower.parse", text,
                      lambda text=text: P.parse_qyt(text),
                      lambda R, f=formula: agrees(pts, lambda t, y: _eq_or_none(
                          qyt_at(R, t, y), f(t, y)))))

    def diese_range_ok(res):
        q, report = res
        return (report.fertile and _tower_ok(q, pts, -2, 3)
                and all(pr(q.level(k).R) == gold[k] for k in (-1, 0, 1)))

    def kolberg_range_ok(res):
        q, report = res
        return (report.fertile and _tower_ok(q, pts, -2, 2)
                and agrees(pts, lambda t, y: _eq_or_none(
                    qyt_at(q.level(1).R, t, y), None if y == 0 else 1 / y)))

    def infertile_ok(res):
        q, report = res
        return not report.fertile and report.failure_level == 1

    ops += [
        Op("tower.generate_range", "diese -2:3",
           lambda: Q.generate_range(GENERATORS["diese"][0], 0, -2, 3),
           diese_range_ok),
        Op("tower.generate_range", "kolberg -2:2",
           lambda: Q.generate_range(GENERATORS["kolberg"][0], 1, -2, 2),
           kolberg_range_ok),
        Op("tower.generate_range", "infertile 0:1",
           lambda: Q.generate_range(GENERATORS["infertile"][0], 0, 0, 1),
           infertile_ok),
    ]

    for label, q in (("diese", dq), ("kolberg", kq)):
        for k in range(q.k_min, q.k_max):
            low, up = q.level(k), q.level(k + 1)
            ops.append(Op("tower.step_up", f"{label} {k}",
                          lambda low=low: Q.step_up(low),
                          lambda res, low=low: agrees(pts, lambda t, y: neighbor_ok(
                              low.R, res.R, t, y))))
            ops.append(Op("tower.step_down", f"{label} {k + 1}",
                          lambda up=up: Q.step_down(up),
                          lambda res, up=up: agrees(pts, lambda t, y: neighbor_ok(
                              res.R, up.R, t, y))))

    ops += [
        Op("tower.quatuor_to_json", "diese -1:1",
           lambda: Q.quatuor_to_json(dq_gold),
           lambda text: text + "\n" == gold_json),
        Op("tower.quatuor_from_json", "diese -1:1",
           lambda: Q.quatuor_from_json(gold_json),
           lambda q: all(pr(q.level(k).R) == gold[k] for k in (-1, 0, 1))),
        Op("tower.quatuor_to_json", "kolberg -2:2",
           lambda: Q.quatuor_to_json(kq),
           lambda text: text == kq_json),
        Op("tower.quatuor_from_json", "kolberg -2:2",
           lambda: Q.quatuor_from_json(kq_json),
           lambda q: _tower_ok(q, pts, -2, 2) and q == kq),
    ]

    y_pts = [y for _, y in pts]

    def g_ok(F_, N):
        def check(seq):
            for y0 in y_pts:
                ref = taylor_g(F_.R, y0, N)
                if ref is None:
                    continue
                got = [qy_at(v, y0) for v in seq.values]
                return got == ref
            return False
        return check

    def h_closed(closed):
        return lambda seq: len(seq.values) == len(closed) and all(
            a == b for a, b in zip(seq.values, closed))

    def sharp_level(k, n):
        y = lib.rational.QY.gen
        return Q.sharp_un_closed(n) * (y + n) ** (-k)

    coeff_jobs = [("diese", 0, N) for N in (12, 21, 30, 40)]
    coeff_jobs += [("diese", -1, 16), ("diese", 1, 16)]
    coeff_jobs += [("kolberg", k, N) for k, N in
                   zip(range(-2, 3), (12, 19, 26, 33, 40))]
    for label, k, N in coeff_jobs:
        F_ = (dq if label == "diese" else kq).level(k)
        if label == "diese":
            closed = lambda n, k=k: sharp_level(k, n)
        else:
            closed = lambda n, k=k: Q.kolberg_h_closed(k, n)
        ops.append(Op("tower.h_coeffs", f"{label} {k} N={N}",
                      lambda F_=F_, N=N: Q.h_coeffs(F_, N),
                      lambda seq, N=N, closed=closed: h_closed(
                          [closed(n) for n in range(N + 1)])(seq)))
        ops.append(Op("tower.g_coeffs", f"{label} {k} N={N}",
                      lambda F_=F_, N=N: Q.g_coeffs(F_, N), g_ok(F_, N)))

    def poles_sound(ps):
        """Every reported pole is a root of a reported denominator."""
        return all(any(horner(d.coeffs, p) == 0 for d in ps.denominators)
                   for p in ps.rational_poles)

    lo, kl = -1, 0          # fixed: the levels set the cost
    ops += [
        Op("tower.pole_set", "diese 0,1",
           lambda: Q.pole_set(dq, [0, 1]),
           lambda ps: ps.rational_poles == {F(0), F(-1), F(-2), F(-3)}),
        Op("tower.pole_set", f"diese {lo}:{lo + 2}",
           lambda: Q.pole_set(dq, range(lo, lo + 3)),
           poles_sound),
        Op("tower.pole_set", f"kolberg {kl}:{kl + 1}",
           lambda: Q.pole_set(kq, range(kl, kl + 2)),
           poles_sound),
    ]

    for ks, r in (((-1, 0), F(1, 2)), ((0, 1), F(5, 3))):
        A = {k: F(rng.randint(-5, 5) or 1, rng.randint(1, 4)) for k in ks}

        def kolb_ok(res, A=A, r=r):
            def at(t, y):
                parts = [qyt_at(dq.level(k).R, t, r) for k in A]
                g = horner(res.g.num.coeffs, t), horner(res.g.den.coeffs, t)
                if None in parts or g[1] == 0:
                    return None
                return F(g[0]) / g[1] == sum(A[k] * v for k, v in zip(A, parts))
            return res.exponent == r and agrees(pts, at)
        ops.append(Op("tower.kolbergize", f"{sorted(A.items())} r={r}",
                      lambda A=A, r=r: Q.kolbergize(dq, A, r), kolb_ok))

    # t-degree <= 2 for the operands, <= 1 for the squared one: see the
    # RatFunc ** 2 note in perfbench/README.md
    for i, (sa, sb, ss) in enumerate(zip(shapes(rng, 3, RANDOM_PAIRS),
                                         shapes(rng, 3, RANDOM_PAIRS),
                                         shapes(rng, 2, RANDOM_PAIRS))):
        (a, ka), (b, kb), (s, ks) = (random_qyt(lib, rng, *sa),
                                     random_qyt(lib, rng, *sb),
                                     random_qyt(lib, rng, *ss))
        ops += _pair_ops(lib, pts, f"{i}: {ka} {kb} {ks}", a, b, s)
    rng.shuffle(ops)
    return ops


def _pair_ops(lib, pts, key, a, b, s) -> list[Op]:
    def binary(fn):
        def check(res):
            return agrees(pts, lambda t, y: _value(res, t, y, lambda:
                          fn(qyt_at(a, t, y), qyt_at(b, t, y))))
        return check

    return [
        Op("tower.mul", key, lambda: a * b, binary(lambda x, y: x * y)),
        Op("tower.add", key, lambda: a + b, binary(lambda x, y: x + y)),
        Op("tower.truediv", key, lambda: a / b,
           binary(lambda x, y: x / y if y else None)),
        Op("tower.pow2", key, lambda: s ** 2,
           lambda res: agrees(pts, lambda t, y: _value(
               res, t, y, lambda: qyt_at(s, t, y) ** 2))),
        Op("tower.diff", key, lambda: a.diff(),
           lambda res: agrees(pts, lambda t, y: _value(
               res, t, y, lambda: qyt_dt_at(a, t, y)))),
        Op("tower.parse_print", key,
           lambda: lib.parsing.parse_qyt(lib.rational.format_element(a)),
           lambda res: res == a),
    ]


def _value(res, t, y, expect):
    got = qyt_at(res, t, y)
    try:
        want = expect()
    except TypeError:           # an operand has a pole at the point
        return None
    return _eq_or_none(got, want)


# -- certify ---------------------------------------------------------------

EVAL_X = (F(1, 10), F(-1, 5), F(1, 3))
EVAL_TOL = (("1e-30", 256), ("1e-60", 256), ("1e-100", 384))
GRID_R = (F(1, 3), F(1, 2), F(2))
GRID_X = (F(1, 10), F(1, 5), F(-1, 5))
CERT_LEVELS = (-2, 0, 1, 3)                 # the four 1e-60 certificates
FAULT_LEVEL_R = (0, F(1, 2))
H_SERIES = ((-2, F(1, 2), F(1, 10)), (-1, F(2), F(-1, 5)))   # (level, r, x)


def build_certify(lib, rng, golden, corrupt=False) -> list[Op]:
    Q, N = lib.quatuor, lib.numeric
    dq = Q.diese_quatuor(-2, 3)
    kq = Q.kolberg_quatuor(-2, 2)
    offset = mpmath.mpf("1e-25") if corrupt else 0

    def enclosure_check(ref_fn, prec):
        def check(res):
            with mpmath.workprec(prec + 64):
                return encloses(res.value, res.error_bound,
                                ref_fn() + offset, prec + 64)
        return check

    # the families at fixed parameters (the README and acceptance-test
    # instances), so that every seed sums the same number of terms
    refs = {
        "kolberg": (1, F(1, 2), lambda x: H_closed(kq.level(1).R, F(1, 2), x) - 2),
        "sharp": (3, F(1), lambda x: H_closed(dq.level(0).R, F(1), x) / 3),
        "example0": (1, F(0), lambda x: _example0_ref(kq, 1, x)),
    }
    blocks: list[list[Op]] = []
    for family, (a, r, ref) in refs.items():
        for x in EVAL_X:
            for tol, prec in EVAL_TOL:
                spec = N.SeriesSpec(family, x, a=a, r=r)
                blocks.append([Op(
                    "certify.eval_theorem_series", f"{family} x={x} tol={tol}",
                    lambda spec=spec, prec=prec, tol=tol:
                    N.eval_theorem_series(spec, prec, tol),
                    enclosure_check(lambda ref=ref, x=x: ref(x), prec))])

    # the criterion-8 grid; x = 1/5 and x = -1/5 need the same u-prefix,
    # and keeping them in this order makes the second one reuse it
    for label, q, levels in (("diese", dq, range(-2, 4)),
                             ("kolberg", kq, range(0, 3))):
        for k in levels:
            for r in GRID_R:
                blocks.append([Op("certify.check_identity",
                                  f"grid {label} {k} r={r} x={x}",
                                  lambda F_=q.level(k), r=r, x=x:
                                  N.check_identity(F_, r, x, "1e-30", 256),
                                  lambda c: c.passed) for x in GRID_X])

    # levels, r and x set the number of terms, so they are fixed; the seed
    # draws only the order of the operations and the fault's index and sign
    for k, r, x in zip(CERT_LEVELS, (F(1, 2), F(1, 3), F(2), F(3, 2)),
                       (F(1, 10), F(1, 5), F(-1, 5), F(1, 7))):
        blocks.append([Op("certify.check_identity", f"1e-60 diese {k} r={r} x={x}",
                          lambda F_=dq.level(k), r=r, x=x:
                          N.check_identity(F_, r, x, "1e-60", 256),
                          lambda c: c.passed)])

    k, r = FAULT_LEVEL_R
    fault = {rng.randint(1, 6): F(rng.choice((1, -1)), 10 ** 7)}
    blocks.append([Op("certify.fault_injected", f"diese {k} r={r} {fault}",
                      lambda F_=dq.level(k), r=r: N.check_identity(
                          F_, r, F(1, 7), "1e-30", 256, perturb=fault),
                      lambda c: not c.passed)])

    for k, r, x in H_SERIES:
        blocks.append([Op("certify.eval_H_series", f"kolberg {k} r={r} x={x}",
                          lambda k=k, r=r, x=x: N.eval_H_series(
                              kq.level(k), r, x, None, 256, "1e-36"),
                          enclosure_check(lambda k=k, r=r, x=x: H_closed(
                              kq.level(k).R, r, x), 256))])
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


def _example0_ref(kq, a, x):
    t = tree_branch(x)
    u0 = lambda k: 0 if k < 0 else 1       # (0 + 0)^(0 - k) with 0^0 = 1
    return (level_at(kq.level(-a - 1).R, t, F(0)) - u0(-a - 1)
            - level_at(kq.level(-a).R, t, F(0)) + u0(-a))


# -- cli -------------------------------------------------------------------


def build_cli(lib, rng, golden, runner, corrupt=False) -> list[Op]:
    """CLI commands as (argv, stdin) with the expected exit code and a
    check of stdout; runner(argv, stdin) -> (exit code, stdout)."""
    parse_qy, parse_qyt = lib.parsing.parse_qy, lib.parsing.parse_qyt
    text = dict(golden["text"])
    if corrupt:
        text["eval_kolberg.json"] = text["eval_kolberg.json"].replace("68", "69")
    gold_levels = golden["levels"]
    kq = lib.quatuor.kolberg_quatuor(-2, 2)
    kq_json = lib.quatuor.quatuor_to_json(kq)
    y_pts = [y for _, y in points(rng, 3)]
    pts = points(rng, 3)
    ops: list[Op] = []

    def add(argv, expect_code, check, stdin=None):
        def run(argv=argv, stdin=stdin):
            return runner(argv, stdin)

        def full_check(res, expect_code=expect_code, check=check):
            code, out = res
            if code != expect_code:
                return f"exit code {code}, expected {expect_code}"
            return check(out)
        ops.append(Op("cli." + argv[0], " ".join(argv), run, full_check))

    def coeffs(out):
        return json.loads(out)["coeffs"]

    def qy_values(count, expected):
        """count output coefficients, equal to expected(n, y0) at the
        sample points where they have no pole."""
        def check(out):
            cs = coeffs(out)
            if len(cs) != count:
                return False
            for n, c in enumerate(cs):
                value = parse_qy(c)
                for y0 in y_pts:
                    got = qy_at(value, y0)
                    try:
                        want = expected(n, y0)
                    except ZeroDivisionError:   # a factor of the closed form
                        continue                # vanishes at y0
                    if got is not None and got != want:
                        return False
            return True
        return check

    # sizes, levels, r and x set the cost of a command, so they are fixed;
    # the seed draws coefficients, inputs that fail, fault indices and the
    # order of the commands

    # assoc over Q, both directions, against the literal substitution
    for direction in ("fwd", "inv"):
        seq = [F(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(12)]
        kind = "u" if direction == "fwd" else "v"
        payload = json.dumps({"ring": "Q", "kind": kind,
                              "coeffs": [str(c) for c in seq]})
        if direction == "fwd":
            check = lambda out, seq=seq: [F(c) for c in coeffs(out)] == assoc_forward(seq)
        else:
            check = lambda out, seq=seq: assoc_forward([F(c) for c in coeffs(out)]) == seq
        add(["assoc", "--dir", direction, "--in", "-", "--json"], 0, check, payload)

    # assoc over Q(y): Kolberg level 1 has u_n = (y+n)^(n-1), v_n = y^(n-1);
    # level 0 has u_n = (y+n)^n, v_n = sum_j n!/j! y^j
    n1 = 8
    u1 = [f"(y + {n})^{n - 1}" for n in range(n1 + 1)]
    add(["assoc", "--dir", "fwd", "--in", "-", "--json"], 0,
        qy_values(n1 + 1, lambda n, y: y ** (n - 1)),
        json.dumps({"ring": "Q(y)", "kind": "u", "coeffs": u1}))
    n0 = 7
    v0 = [" + ".join(f"{math.factorial(n) // math.factorial(j)}*y^{j}"
                     for j in range(n + 1)) for n in range(n0 + 1)]
    add(["assoc", "--dir", "inv", "--in", "-", "--json"], 0,
        qy_values(n0 + 1, lambda n, y: (y + n) ** n),
        json.dumps({"ring": "Q(y)", "kind": "v", "coeffs": v0}))

    diese = GENERATORS["diese"][0]
    add(["quatuor", "gen", "--r0", diese, "--level", "0", "--range=-1:1"], 0,
        lambda out: out == "".join(f"R_{k} = {gold_levels[k]}\n"
                                   for k in (-1, 0, 1)))
    add(["quatuor", "gen", "--r0", diese, "--level", "0", "--range=-1:1",
         "--json"], 0, lambda out: out == text["quatuor_gen.json"])
    lo, hi = -1, 2

    def kolberg_gen_ok(out):
        obj = json.loads(out)
        levels = {int(k): parse_qyt(v) for k, v in obj["levels"].items()}
        return (obj["generator"] == "1/y" and sorted(levels) == list(range(lo, hi + 1))
                and all(agrees(pts, lambda t, y: neighbor_ok(
                    levels[k], levels[k + 1], t, y)) for k in range(lo, hi)))
    add(["quatuor", "gen", "--r0", "1/y", "--level", "1", f"--range={lo}:{hi}",
         "--json"], 0, kolberg_gen_ok)
    add(["quatuor", "gen", "--r0", "1/(t-2)", "--level", "0", "--range", "0:1"],
        3, lambda out: out == "")

    N = 10
    add(["quatuor", "hcoeffs", "--r0", diese, "--N", str(N), "--json"], 0,
        qy_values(N + 1, lambda n, y: (y + 2) * (y * y + 2 * n * y + 2 * n * n - n)
                  * (y + n) ** (n - 3)))
    k, N = 2, 10
    add(["quatuor", "hcoeffs", "--in", "-", "--level", str(k), "--N", str(N),
         "--json"], 0, qy_values(N + 1, lambda n, y, k=k: (y + n) ** (n - k)),
        kq_json)
    N = 10
    add(["quatuor", "gcoeffs", "--r0", "1/y", "--N", str(N), "--json"], 0,
        qy_values(N + 1, lambda n, y: y ** (n - 1)))

    add(["poles", "--in", "-", "--levels", "0,1", "--json"], 0,
        lambda out: sorted(F(p) for p in json.loads(out)["rational_poles"])
        == [F(-3), F(-2), F(-1), F(0)], text["quatuor_gen.json"])
    c, m = rng.choice([2, 3, -5, F(1, 2)]), rng.randint(1, 5)
    add(["eset", f"--g={c}*s^{m}", "--json"], 0,
        lambda out, m=m: json.loads(out) == {"exceptional": [-m]})
    add(["eset", "--g", "1 + s", "--json"], 0,
        lambda out: json.loads(out) == {"exceptional": []})

    add(["eval", "kolberg", "--a", "1", "--x", "1/10", "--tol", "1e-40",
         "--json"], 0, lambda out: out == text["eval_kolberg.json"])
    add(["eval", "sharp", "--a", "3", "--r", "1", "--x", "1/10", "--json"], 0,
        lambda out: out == text["eval_sharp.json"])
    a, r, x = 2, F(1, 3), F(-1, 5)

    def eval_ok(out, a=a, r=r, x=x):
        obj = json.loads(out)
        with mpmath.workprec(320):
            ref = H_closed(kq.level(a).R, r, x) - mpq(r) ** (-a)
            return encloses(mpmath.mpf(obj["value"]),
                            # the printed bound has five significant digits
                            mpmath.mpf(obj["error_bound"]) * (1 + 1e-4),
                            ref, 320)
    add(["eval", "kolberg", "--a", str(a), "--r", str(r), f"--x={x}", "--json"],
        0, eval_ok)

    add(["verify", "identity", "--r0", "1+2/y+t^2", "--level", "0", "--r", "1/2",
         "--x", "1/5", "--json"], 0, lambda out: out == text["verify_identity.json"])
    k, r, x = -1, F(2), F(-1, 5)
    add(["verify", "identity", "--in", "-", "--level", str(k), "--r", str(r),
         f"--x={x}", "--json"], 0, lambda out: json.loads(out)["passed"] is True,
        text["quatuor_gen.json"])
    idx = rng.randint(1, 5)
    add(["verify", "identity", "--r0", diese, "--level", "0", "--r", "1/2",
         "--x", "1/10", "--inject", f"{idx}:1e-6", "--json"], 1,
        lambda out: json.loads(out)["passed"] is False)
    N = 7
    add(["verify", "table", "--N", str(N), "--json"], 0,
        lambda out, N=N: json.loads(out) == {"checked": N + 1, "mismatches": []})
    count, order, seed = 10, 15, rng.randint(0, 999)
    add(["verify", "roundtrip", "--count", str(count), "--order", str(order),
         "--seed", str(seed), "--json"], 0,
        lambda out, count=count, order=order: json.loads(out) == {
            "count": count, "order": order, "failures": 0})

    bad = rng.choice(["s^", "1 + * s", "(s + 1", "s / 0"])
    add(["eset", "--g", bad], 2, lambda out: out == "")
    add(["eval", "kolberg", "--x=" + rng.choice(["2/5", "1/2", "-3/7"])], 4,
        lambda out: out == "")
    rng.shuffle(ops)
    return ops


def build(workload: str, lib, rng, golden, runner=None, corrupt=False):
    if workload == "tower":
        return build_tower(lib, rng, golden, corrupt)
    if workload == "certify":
        return build_certify(lib, rng, golden, corrupt)
    if workload == "cli":
        return build_cli(lib, rng, golden, runner, corrupt)
    raise ValueError(f"unknown workload {workload!r}")
