"""Command-line front end.

Exit codes: 0 success, 1 verification failed, 2 usage or parse error,
3 infertile quatuor, 4 domain error (pole hit, |x| outside (0, 1/e)).
JSON goes to stdout with --json, human-readable text otherwise;
diagnostics always go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import partial

import mpmath

from .assoc import (
    CoeffSeq, from_associated, sequence_from_json, sequence_to_json,
    to_associated,
)
from .numeric import (
    MAX_PRECISION, MIN_PRECISION, SeriesSpec, check_identity,
    eval_theorem_series, result_to_json, tol_fraction,
)
from .parsing import (
    ParseError, parse_poly, parse_qs, parse_qyt, print_canonical,
)
from .quatuor import (
    AdHocFunction, InfertileError, VerificationError, exceptional_set,
    diese_quatuor, g_coeffs, generate_range, h_coeffs, pole_set,
    quatuor_from_json, quatuor_to_json, sharp_un_closed,
)
from .rational import QQ, QY, DomainError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INFERTILE = 3
EXIT_DOMAIN = 4

# The largest sizes accepted, checked before any work (exit 2); the README
# gives the time each takes at its limit.
MAX_ASSOC_ORDER = 1000      # assoc --N and the input sequence's order
MAX_ASSOC_DEGREE = 6400     # Q(y): T max(order, T), T = denominators' degree
MAX_COEFF_ORDER = 200       # quatuor hcoeffs/gcoeffs --N
MAX_TABLE_ORDER = 200       # verify table --N
MAX_ROUNDTRIP_ORDER = 400   # verify roundtrip --order
MAX_ROUNDTRIP_COUNT = 100   # verify roundtrip --count


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _range_arg(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"range must look like A:B, got {text!r}") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _levels_arg(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = _range_arg(text)
            return list(range(lo, hi + 1))
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"levels must be N,M,... or A:B, got {text!r}") from exc


def _inject_arg(text: str) -> tuple[int, Fraction]:
    try:
        idx, _, delta = text.partition(":")
        return int(idx), tol_fraction(delta)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"inject must look like INDEX:OFFSET, got {text!r}") from exc


def _at_most(name: str, value, limit: int):
    if value is not None and value > limit:
        raise ParseError(f"{name} must be at most {limit}, got {value}", 0)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _common_flags(parser, root: bool):
    # The same flags are accepted before and after the subcommand; the
    # subparser copy only overrides when actually given.
    default = (lambda v: v) if root else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true",
                        default=default(False),
                        help="machine-readable JSON on stdout")
    parser.add_argument("--prec", type=int, default=default(256),
                        metavar="BITS",
                        help="working precision in bits, "
                             f"{MIN_PRECISION} to {MAX_PRECISION}")


def _command(sub, name: str, handler, help_text: str):
    """A leaf subcommand: the common flags, and the handler run() calls."""
    p = sub.add_parser(name, help=help_text)
    _common_flags(p, root=False)
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolberg",
        description="Associated-series transforms, quatuor towers and "
                    "certified series evaluation.",
        epilog="Values that start with '-' (negative rationals, ranges "
               "like -2:3) must be attached with '=': --x=-1/5.")
    _common_flags(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "assoc", cmd_assoc, "apply the coefficient transform")
    p.add_argument("--dir", required=True, choices=("fwd", "inv"),
                   help="fwd: u -> v; inv: v -> u")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                   help="sequence JSON ('-' for stdin)")
    p.add_argument("--N", type=int, default=None, help="truncation order")

    p = sub.add_parser("quatuor", help="generate or interrogate a quatuor")
    qsub = p.add_subparsers(dest="quatuor_command", required=True)

    g = _command(qsub, "gen", cmd_quatuor_gen, "grow a quatuor from one level")
    g.add_argument("--r0", required=True, metavar="EXPR",
                   help="rational part of the generating level")
    g.add_argument("--level", type=int, required=True)
    g.add_argument("--range", type=_range_arg, required=True, metavar="A:B")
    g.add_argument("--out", default=None, metavar="FILE")

    for name, coeffs, help_text in (("hcoeffs", h_coeffs, "u_n of one level"),
                                    ("gcoeffs", g_coeffs, "v_n of one level")):
        c = _command(qsub, name, partial(cmd_quatuor_coeffs, coeffs=coeffs),
                     help_text)
        c.add_argument("--in", dest="infile", default=None, metavar="FILE",
                       help="quatuor JSON ('-' for stdin)")
        c.add_argument("--r0", default=None, metavar="EXPR",
                       help="inline rational part instead of a file")
        c.add_argument("--level", type=int, default=None)
        c.add_argument("--N", type=int, required=True)

    p = _command(sub, "poles", cmd_poles, "pole set of a quatuor over levels")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--levels", type=_levels_arg, required=True,
                   metavar="LIST")

    p = _command(sub, "eset", cmd_eset,
                 "exceptional set of a rational function")
    p.add_argument("--g", required=True, metavar="EXPR",
                   help="rational function of s")

    p = _command(sub, "eval", cmd_eval, "certified series evaluation")
    p.add_argument("family", choices=("kolberg", "sharp", "example0"))
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--r", type=_fraction_arg, default=Fraction(0),
                   metavar="RAT")
    p.add_argument("--P", default="1", metavar="EXPR",
                   help="polynomial in n (example0: evaluated at 1/n)")
    p.add_argument("--x", type=_fraction_arg, required=True, metavar="RAT")
    p.add_argument("--tol", default="1e-30", metavar="DEC")

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    v = _command(vsub, "identity", cmd_verify_identity,
                 "certify K(x,r) = F(t,r)")
    v.add_argument("--r0", default=None, metavar="EXPR")
    v.add_argument("--in", dest="infile", default=None, metavar="FILE")
    v.add_argument("--level", type=int, default=None)
    v.add_argument("--r", type=_fraction_arg, required=True, metavar="RAT")
    v.add_argument("--x", type=_fraction_arg, required=True, metavar="RAT")
    v.add_argument("--tol", default="1e-30", metavar="DEC")
    v.add_argument("--inject", type=_inject_arg, default=None,
                   metavar="INDEX:OFFSET",
                   help="fault-inject one series coefficient (the check "
                        "is then expected to fail)")

    v = _command(vsub, "table", cmd_verify_table,
                 "recompute the closed-form u_n table")
    v.add_argument("--N", type=int, default=7)

    v = _command(vsub, "roundtrip", cmd_verify_roundtrip,
                 "random transform roundtrips")
    v.add_argument("--count", type=int, default=50)
    v.add_argument("--order", type=int, default=30)
    v.add_argument("--seed", type=int, default=0)

    return parser


def _print_sequence(seq: CoeffSeq, as_json: bool):
    if as_json:
        print(sequence_to_json(seq))
        return
    for n, value in enumerate(seq.values):
        print(f"{seq.kind}_{n} = {print_canonical(value)}")


def _level_function(args) -> AdHocFunction:
    if (args.r0 is None) == (args.infile is None):
        raise ParseError("give exactly one of --r0 and --in", 0)
    if args.r0 is not None:
        return AdHocFunction(parse_qyt(args.r0))
    if args.level is None:
        raise ParseError("--in needs --level to pick a function", 0)
    q = quatuor_from_json(_read_input(args.infile))
    try:
        return q.level(args.level)
    except KeyError as exc:
        raise DomainError(str(exc)) from exc


def cmd_assoc(args) -> int:
    _at_most("--N", args.N, MAX_ASSOC_ORDER)
    seq = sequence_from_json(_read_input(args.infile))
    _at_most("the sequence order", seq.order, MAX_ASSOC_ORDER)
    T = sum(d.degree for d in {v.den for v in seq.values[1:]}) \
        if seq.ring is QY else 0
    _at_most("the denominators' total degree times max(order, degree)",
             T * max(seq.order, T), MAX_ASSOC_DEGREE)
    expected = "u" if args.dir == "fwd" else "v"
    if seq.kind != expected:
        raise ParseError(
            f"--dir {args.dir} needs a {expected!r}-sequence, "
            f"got {seq.kind!r}", 0)
    out = to_associated(seq, args.N) if args.dir == "fwd" \
        else from_associated(seq, args.N)
    _print_sequence(out, args.json)
    return EXIT_OK


def cmd_quatuor_gen(args) -> int:
    lo, hi = args.range
    q, report = generate_range(args.r0, args.level, lo, hi)
    if not report.fertile:
        print(str(report), file=sys.stderr)
        return EXIT_INFERTILE
    text = quatuor_to_json(q)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote levels [{q.k_min}, {q.k_max}] to {args.out}",
              file=sys.stderr)
        return EXIT_OK
    if args.json:
        print(text)
    else:
        for k, f in q.levels.items():
            print(f"R_{k} = {print_canonical(f.R)}")
    return EXIT_OK


def cmd_quatuor_coeffs(args, coeffs) -> int:
    _at_most("--N", args.N, MAX_COEFF_ORDER)
    _print_sequence(coeffs(_level_function(args), args.N), args.json)
    return EXIT_OK


def cmd_poles(args) -> int:
    q = quatuor_from_json(_read_input(args.infile))
    try:
        ps = pole_set(q, args.levels)
    except KeyError as exc:
        raise DomainError(str(exc)) from exc
    poles = sorted(ps.rational_poles, reverse=True)
    if args.json:
        print(json.dumps({
            "rational_poles": [str(p) for p in poles],
            "denominators": [print_canonical(d) for d in ps.denominators],
        }, indent=2))
    else:
        inner = ", ".join(str(p) for p in poles)
        print(f"rational poles: {{{inner}}}")
        for d in ps.denominators:
            print(f"denominator: {print_canonical(d)}")
    return EXIT_OK


def cmd_eset(args) -> int:
    g = parse_qs(args.g)
    try:
        ex = exceptional_set(g)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from exc
    if args.json:
        print(json.dumps({"exceptional": sorted(ex)}))
    else:
        inner = ", ".join(str(n) for n in sorted(ex))
        print(f"E = {{{inner}}}")
    return EXIT_OK


def cmd_eval(args) -> int:
    spec = SeriesSpec(args.family, args.x, a=args.a, r=args.r,
                      P=parse_poly(args.P))
    res = eval_theorem_series(spec, args.prec, args.tol)
    if args.json:
        print(result_to_json(res))
    else:
        print(f"value       = {mpmath.nstr(res.value, res.digits)}")
        print(f"error bound <= {mpmath.nstr(res.error_bound, 5)}")
        print(f"terms = {res.terms_used}, "
              f"precision bits = {res.precision_bits}")
    return EXIT_OK


def cmd_verify_identity(args) -> int:
    F = _level_function(args)
    perturb = dict([args.inject]) if args.inject else None
    cert = check_identity(F, args.r, args.x, args.tol, args.prec,
                          perturb=perturb)
    if args.json:
        print(json.dumps({
            "passed": cert.passed,
            "form": cert.form,
            "residual": mpmath.nstr(cert.residual, 8),
            "slack": mpmath.nstr(cert.slack, 8),
            "terms": cert.terms_used,
            "precision_bits": cert.precision_bits,
        }, indent=2))
    else:
        print(str(cert))
    return EXIT_OK if cert.passed else EXIT_VERIFY


def cmd_verify_table(args) -> int:
    _at_most("--N", args.N, MAX_TABLE_ORDER)
    q = diese_quatuor(k_min=0, k_max=0)
    u = h_coeffs(q.level(0), args.N)
    bad = [n for n in range(args.N + 1)
           if u.values[n] != QY.coerce(sharp_un_closed(n))]
    if args.json:
        print(json.dumps({"checked": args.N + 1, "mismatches": bad}))
    else:
        if bad:
            print(f"MISMATCH at n = {bad} of u_0..u_{args.N}")
        else:
            print(f"u_0..u_{args.N} all match the closed form")
    return EXIT_OK if not bad else EXIT_VERIFY


def cmd_verify_roundtrip(args) -> int:
    if args.count < 0:
        raise ParseError("--count must be nonnegative", 0)
    _at_most("--count", args.count, MAX_ROUNDTRIP_COUNT)
    _at_most("--order", args.order, MAX_ROUNDTRIP_ORDER)
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.count):
        values = tuple(
            Fraction(rng.randint(-999, 999), rng.randint(1, 99))
            for _ in range(args.order + 1))
        u = CoeffSeq("u", QQ, values)
        if from_associated(to_associated(u)) != u:
            failures += 1
    if args.json:
        print(json.dumps({"count": args.count, "order": args.order,
                          "failures": failures}))
    else:
        print(f"{args.count - failures}/{args.count} roundtrips exact "
              f"at order {args.order}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (json.JSONDecodeError, KeyError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfertileError as exc:
        print(f"infertile: {exc}", file=sys.stderr)
        return EXIT_INFERTILE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ZeroDivisionError as exc:
        print(f"error: division by zero: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
