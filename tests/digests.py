"""Named output cases and one SHA-256 digest per case.

Each case computes a block of text from the library or the CLI: printed
values, quatuor JSON, coefficient sequences, certified results, exit
codes with stdout and stderr.  tests/golden/digests.txt holds one
`name sha256` line per case and test_digests.py compares the two, so a
diff of that file names every case whose output a change moved.

    PYTHONPATH=src python tests/digests.py               # all digest lines
    PYTHONPATH=src python tests/digests.py --show NAME   # one case's text

A changed digest is an output change: name the case and say why in
CHANGES.md, as for any golden file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from kolberg import (
    QN, QQ, QS, QT, QY, QYT,
    CoeffSeq, InfertileError, RatFunc, SeriesSpec, UniPoly,
    check_identity, diese_generator, eval_H_series, eval_theorem_series,
    format_element, from_associated, g_coeffs, generate_range, h_coeffs,
    kolbergize, parse_poly, parse_qyt, pole_set, print_canonical,
    quatuor_to_json, result_to_json, sequence_to_json, step_up,
    substitute_y, to_associated,
)
from kolberg.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.txt"
CASES = {}


def case(name):
    def register(fn):
        CASES[name] = fn
        return fn
    return register


def _attempt(fn, *args):
    """fn(*args) printed canonically, or the error it raised."""
    try:
        return print_canonical(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


# -- seeded Q(y)(t) arithmetic ---------------------------------------------

def _random_qyt(rng: random.Random) -> RatFunc:
    def poly(var, max_deg):
        return UniPoly(QQ, var, [Fraction(rng.randint(-20, 20),
                                          rng.randint(1, 6))
                                 for _ in range(rng.randint(1, max_deg + 1))])

    def qy():
        den = poly("y", 2)
        while den.is_zero:
            den = poly("y", 2)
        return RatFunc(poly("y", 2), den)

    while True:
        try:
            return RatFunc(
                UniPoly(QY, "t", [qy() for _ in range(rng.randint(1, 4))]),
                UniPoly(QY, "t", [qy() for _ in range(rng.randint(1, 4))]))
        except ZeroDivisionError:
            continue


ARITH_CASES = 24


def _arith(index: int) -> str:
    rng = random.Random(f"digests/arith/{index}")
    a, b = _random_qyt(rng), _random_qyt(rng)
    lines = [f"a = {print_canonical(a)}", f"b = {print_canonical(b)}",
             f"a*b = {_attempt(lambda: a * b)}",
             f"a+b = {_attempt(lambda: a + b)}",
             f"a/b = {_attempt(lambda: a / b)}",
             f"a**2 = {_attempt(lambda: a ** 2)}",
             f"a**-1 = {_attempt(lambda: a ** -1)}",
             f"diff(a) = {_attempt(a.diff)}"]
    for r in (Fraction(0), Fraction(1, 2), Fraction(-3), Fraction(7, 5)):
        lines.append(f"a|y={r} = {_attempt(substitute_y, a, r)}")
    return "\n".join(lines)


for _i in range(ARITH_CASES):
    case(f"arith/{_i:02d}")(lambda _i=_i: _arith(_i))


@case("substitute")
def _substitute():
    R = parse_qyt("t^2/(y - 1/2) + (y*t + 1)/(y^2 + y) - 3/(t + y)")
    return "\n".join(f"y={r}: {_attempt(substitute_y, R, r)}"
                     for r in (Fraction(1, 2), Fraction(0), Fraction(-1),
                               Fraction(2), Fraction(-3, 7)))


# -- towers, sequences, witnesses -------------------------------------------

@lru_cache(maxsize=None)
def _tower(family: str):
    if family == "diese":
        return generate_range(diese_generator(), 0, -7, 7)
    return generate_range("1/y", 1, -7, 7)


for _family in ("diese", "kolberg"):
    @case(f"tower/{_family}")
    def _tower_case(family=_family):
        q, report = _tower(family)
        return f"{report}\n{quatuor_to_json(q)}"

    for _k in range(-2, 3):
        @case(f"coeffs/{_family}/{_k}")
        def _coeffs_case(family=_family, k=_k):
            F = _tower(family)[0].level(k)
            return "\n".join((sequence_to_json(g_coeffs(F, 8)),
                              sequence_to_json(h_coeffs(F, 8))))


WITNESS_GENERATORS = ("1/(t-2)", "t/(t^2+1)", "1/(t^2-y)", "(t+y)/(t-1)^2",
                      "1/(y*t-1)")


@case("witnesses")
def _witnesses():
    lines = []
    for expr in WITNESS_GENERATORS:
        q, report = generate_range(expr, 0, -1, 3)
        lines.append(f"{expr}: {report}")
        try:
            up = print_canonical(step_up(q.level(0)).R)
        except InfertileError as exc:
            up = f"infertile at {exc.level}: {exc.witness}"
        lines.append(f"  step_up: {up}")
    return "\n".join(lines)


# -- transforms over Q and Q(y) ---------------------------------------------

@case("transforms/QQ")
def _transforms_qq():
    rng = random.Random("digests/transforms/QQ")
    u = CoeffSeq("u", QQ, tuple(Fraction(rng.randint(-99, 99),
                                         rng.randint(1, 20))
                                for _ in range(25)))
    v = to_associated(u)
    return "\n".join(sequence_to_json(s) for s in (v, from_associated(v),
                                                   to_associated(u, 10)))


@case("transforms/QY")
def _transforms_qy():
    u = h_coeffs(_tower("diese")[0].level(-1), 12)
    v = to_associated(u)
    w = CoeffSeq("v", QY, tuple(c * (QY.gen + i)
                                for i, c in enumerate(v.values)))
    return "\n".join(sequence_to_json(s) for s in (v, from_associated(v),
                                                   from_associated(w, 9)))


# -- pole sets and kolbergize -----------------------------------------------

@case("poles")
def _poles():
    lines = []
    for family in ("diese", "kolberg"):
        q = _tower(family)[0]
        for levels in (range(-3, 4), (-7, 0, 7)):
            ps = pole_set(q, levels)
            lines.append(f"{family} {list(levels)}: "
                         f"{sorted(ps.rational_poles, reverse=True)}")
            lines.extend(f"  {print_canonical(d)}" for d in ps.denominators)
    return "\n".join(lines)


@case("kolbergize")
def _kolbergize():
    q = _tower("diese")[0]
    lines = []
    for A, r in (({0: 1}, Fraction(1, 2)), ({-1: 2, 1: -3}, Fraction(5, 3)),
                 ({-2: 1, 0: 1, 2: Fraction(1, 7)}, Fraction(-1, 2)),
                 ({0: 1}, Fraction(-2)), ({0: 1}, Fraction(0)),
                 ({0: 0}, Fraction(1))):
        try:
            res = kolbergize(q, A, r)
            lines.append(f"{A} at {r}: t^{res.exponent} * "
                         f"{print_canonical(res.g)}; "
                         f"E = {sorted(res.exceptional)}")
        except ValueError as exc:
            lines.append(f"{A} at {r}: {type(exc).__name__}: {exc}")
    return "\n".join(lines)


# -- certified evaluation ---------------------------------------------------

@case("numeric/families")
def _families():
    lines = []
    for family, kw in (("kolberg", dict(a=1, r=Fraction(1, 2))),
                       ("kolberg", dict(a=0, r=Fraction(-1, 3),
                                        P=parse_poly("n^2 + 1"))),
                       ("sharp", dict(a=3, r=Fraction(1))),
                       ("example0", dict(a=1))):
        for x, tol in ((Fraction(1, 10), "1e-30"), (Fraction(-1, 5), "1e-50")):
            res = eval_theorem_series(SeriesSpec(family, x, **kw), 256, tol)
            lines.append(f"{family} {kw} x={x} tol={tol}: {res}")
            lines.append(result_to_json(res))
    return "\n".join(lines)


@case("numeric/H")
def _h_series():
    F = _tower("diese")[0].level(0)
    res = eval_H_series(F, Fraction(1, 2), Fraction(1, 5))
    return f"{res}\n{result_to_json(res)}"


@case("numeric/identity")
def _identity():
    lines = []
    q = _tower("diese")[0]
    for k, r, x, perturb in ((0, Fraction(1, 2), Fraction(1, 5), None),
                             (-1, Fraction(2), Fraction(-1, 10), None),
                             (1, Fraction(-1, 3), Fraction(-1, 5), None),
                             (0, Fraction(1, 2), Fraction(1, 5),
                              {3: Fraction(1, 10 ** 6)})):
        cert = check_identity(q.level(k), r, x, "1e-30", 256, perturb=perturb)
        lines.append(f"level {k} r={r} x={x} perturb={perturb}: {cert}")
    return "\n".join(lines)


# -- printed values in every field ------------------------------------------

@case("print/fields")
def _print_fields():
    lines = [format_element(Fraction(0)), format_element(Fraction(-7, 3))]
    for field, var in ((QS, "s"), (QN, "n"), (QT, "t"), (QY, "y")):
        for num, den in (([], [1]), ([-1], [1]), ([1, 0, -1], [1]),
                         ([0, 0, -3, 2], [5, 1]), ([Fraction(-1, 2)], [0, 1]),
                         ([2, -1], [0, 0, 0, 3]),
                         ([Fraction(3, 4), 0, 1], [-1, 0, Fraction(1, 9)])):
            R = RatFunc(UniPoly(QQ, var, num), UniPoly(QQ, var, den))
            lines.append(f"{field}: {format_element(R)} | "
                         f"{format_element(R.num)} | {format_element(R.den)}")
    rng = random.Random("digests/print")
    for _ in range(6):
        lines.append(format_element(_random_qyt(rng)))
    for text in ("0", "-t^2", "-y*t^3 + 1", "-(t+y)^2/(2*y)", "t/y - y/t",
                 "-1/(y^2 - 1)"):
        R = parse_qyt(text)
        lines.append(f"{text} -> {format_element(R)} | "
                     f"{format_element(R.num)} | {format_element(R.den)}")
    lines.append(format_element(QYT.zero))
    lines.append(format_element(UniPoly(QQ, "n", [0, -2, 1])))
    return "\n".join(lines)


# -- the CLI ----------------------------------------------------------------

IDENTITY = ["verify", "identity", "--r0", "1+2/y+t^2", "--level", "0",
            "--r", "1/2", "--x", "1/5"]
CLI_RUNS = {
    "eset": ["eset", "--g", "s^3"],
    "eset-json": ["--json", "eset", "--g", "(s^2+1)/s"],
    "eset-parse-error": ["eset", "--g", "s +"],
    "eset-zero-division": ["eset", "--g", "1/0"],
    "assoc-fwd": ["assoc", "--dir", "fwd", "--in", "u.json", "--N", "5"],
    "assoc-inv-json": ["assoc", "--dir", "inv", "--in", "v.json", "--json"],
    "assoc-wrong-kind": ["assoc", "--dir", "fwd", "--in", "v.json"],
    "assoc-missing-file": ["assoc", "--dir", "fwd", "--in", "missing.json"],
    "assoc-malformed": ["assoc", "--dir", "fwd", "--in", "bad.json"],
    "gen-text": ["quatuor", "gen", "--r0", "1+2/y+t^2", "--level", "0",
                 "--range=-2:2"],
    "gen-json": ["quatuor", "gen", "--r0", "1/y", "--level", "1",
                 "--range=-1:2", "--json"],
    "gen-out": ["quatuor", "gen", "--r0", "1+2/y+t^2", "--level", "0",
                "--range=-1:1", "--out", "out.json"],
    "gen-infertile": ["quatuor", "gen", "--r0", "1/(t-2)", "--level", "0",
                      "--range", "0:1"],
    "gen-bad-range": ["quatuor", "gen", "--r0", "1/y", "--level", "0",
                      "--range", "3:1"],
    "hcoeffs-file": ["quatuor", "hcoeffs", "--in", "q.json", "--level", "-1",
                     "--N", "4"],
    "hcoeffs-inline-json": ["quatuor", "hcoeffs", "--r0", "1/(t-2)", "--N",
                            "3", "--json"],
    "gcoeffs-file": ["quatuor", "gcoeffs", "--in", "q.json", "--level", "2",
                     "--N", "4"],
    "gcoeffs-no-level": ["quatuor", "gcoeffs", "--in", "q.json", "--N", "4"],
    "gcoeffs-both-sources": ["quatuor", "gcoeffs", "--in", "q.json",
                             "--r0", "1", "--N", "4"],
    "gcoeffs-missing-level": ["quatuor", "gcoeffs", "--in", "q.json",
                              "--level", "9", "--N", "4"],
    "poles-text": ["poles", "--in", "q.json", "--levels=-2:3"],
    "poles-json": ["poles", "--in", "q.json", "--levels", "0,1,2", "--json"],
    "poles-missing-level": ["poles", "--in", "q.json", "--levels", "7"],
    "poles-key-error": ["poles", "--in", "nolevels.json", "--levels", "0"],
    "eval-kolberg": ["eval", "kolberg", "--a", "1", "--r", "1/2",
                     "--x", "1/10"],
    "eval-sharp-json": ["eval", "sharp", "--a", "3", "--r", "1", "--x",
                        "1/5", "--json"],
    "eval-example0": ["eval", "example0", "--a", "1", "--x=-1/5",
                      "--tol", "1e-40", "--prec", "200"],
    "eval-domain": ["eval", "kolberg", "--a", "1", "--x", "2/5"],
    "eval-precision": ["eval", "kolberg", "--x", "1/3", "--tol", "1e-300",
                       "--prec", "64"],
    "identity-pass": IDENTITY,
    "identity-json": IDENTITY + ["--json"],
    "identity-inject": IDENTITY + ["--inject", "3:1e-6"],
    "identity-inject-json": ["--json"] + IDENTITY + ["--inject", "3:1e-6"],
    "identity-file": ["verify", "identity", "--in", "q.json", "--level",
                      "1", "--r", "-1/3", "--x=-1/5"],
    "identity-pole": ["verify", "identity", "--r0", "1/y", "--r", "0",
                      "--x", "1/5"],
    "identity-no-radius": ["verify", "identity", "--r0", "1/(t-3)",
                           "--r", "1/2", "--x", "367/1000"],
    "table": ["verify", "table", "--N", "6"],
    "table-json": ["verify", "table", "--N", "4", "--json"],
    "roundtrip": ["verify", "roundtrip", "--count", "4", "--order", "8"],
    "roundtrip-json": ["verify", "roundtrip", "--count", "3", "--order",
                       "5", "--seed", "7", "--json"],
    "roundtrip-negative": ["verify", "roundtrip", "--count=-1"],
    "usage-no-command": [],
    "usage-unknown-command": ["frobnicate"],
    "usage-missing-required": ["eset"],
    "usage-bad-choice": ["eval", "cauchy", "--x", "1/5"],
    "usage-bad-rational": ["eval", "kolberg", "--x", "one"],
    "usage-bad-inject": IDENTITY + ["--inject", "x"],
    "usage-no-quatuor-command": ["quatuor"],
    "usage-no-verify-command": ["verify"],
    "usage-bad-levels": ["poles", "--in", "q.json", "--levels", "a:b"],
}


@lru_cache(maxsize=None)
def _cli_files():
    q, _ = generate_range(diese_generator(), 0, -2, 3)
    u = h_coeffs(q.level(0), 6)
    u_q = CoeffSeq("u", QQ, tuple(Fraction(n * n - 3, n + 1)
                                  for n in range(8)))
    return {"q.json": quatuor_to_json(q), "u.json": sequence_to_json(u_q),
            "v.json": sequence_to_json(to_associated(u)),
            "bad.json": "{not json", "nolevels.json": json.dumps({"x": 1})}


def _cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return (f"exit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


@contextlib.contextmanager
def _cli_directory():
    """A fresh working directory holding the input files, and a fixed
    terminal width for argparse's usage lines."""
    old_cwd, old_columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _cli_files().items():
            Path(tmp, name).write_text(text + "\n", encoding="utf-8")
        os.chdir(tmp)
        os.environ["COLUMNS"] = "80"
        try:
            yield Path(tmp)
        finally:
            os.chdir(old_cwd)
            if old_columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = old_columns


for _name, _argv in CLI_RUNS.items():
    @case(f"cli/{_name}")
    def _cli_case(argv=_argv):
        with _cli_directory() as tmp:
            text = _cli(argv)
            if (tmp / "out.json").exists():
                text += "--- out.json\n" + (tmp / "out.json").read_text()
        return text


# -- digests ----------------------------------------------------------------

def digest(name: str) -> str:
    return hashlib.sha256(CASES[name]().encode("utf-8")).hexdigest()


def golden() -> dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return dict(line.split() for line in lines if line.strip())


def main(argv) -> int:
    if argv[:1] == ["--show"]:
        for name in argv[1:]:
            print(CASES[name]())
        return 0
    if argv:
        print("usage: digests.py [--show NAME...]", file=sys.stderr)
        return 2
    for name in CASES:
        print(name, digest(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
