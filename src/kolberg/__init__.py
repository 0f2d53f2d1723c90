"""Exact quatuor algebra and certified evaluation of tree-like series.

The package revolves around the substitution x = t * e^{-t}.  On the
symbolic side it manipulates levels F_k = t^y * R_k(t, y) with R_k
rational, moving between levels by exact differentiation and integration
steps and converting between the series coefficients u_n of H(x, y) and
v_n of the associated series G(t, y) = H(t e^{-t}, y).  On the numeric
side it evaluates the attached series families at rational points as
fixed-point ball sums of exact terms plus certified tail bounds, and
checks the resulting identities to a requested tolerance with full
error accounting.
"""

from .rational import (
    QQ, QY, QYT, QT, QS, QN,
    DomainError, PoleError,
    FractionField, RatFunc, RationalField, UniPoly,
    format_element, poly_gcd, poly_lcm,
    rational_roots, substitute_y,
)
from .parsing import (
    ParseError, print_canonical,
    parse_expr, parse_poly, parse_qs, parse_qt, parse_qy, parse_qyt,
    parse_to,
)
from .assoc import (
    CoeffSeq, compose_oracle, from_associated, sequence_from_json,
    sequence_to_json, to_associated,
)
from .quatuor import (
    AdHocFunction, FertilityReport, InfertileError, KolbergizeResult,
    PoleSet, Quatuor, VerificationError,
    diese_generator, diese_quatuor, exceptional_set, g_coeffs,
    generate_range, h_coeffs, kolberg_h_closed, kolberg_quatuor,
    kolbergize, linear_combine, pole_set, quatuor_from_json,
    quatuor_to_json, sharp_un_closed, shift, step_down, step_up,
    taylor_series,
)
from .numeric import (
    E_UB, EvalResult, IdentityCertificate, SeriesSpec,
    check_identity, enclose_fraction, eval_F_closed, eval_F_interval,
    eval_H_series, eval_theorem_series, exp_ub, invert_xt,
    invert_xt_certified, require_x_domain, result_to_json, tol_fraction,
    tree_t_interval,
)

__version__ = "0.1.0"

__all__ = [
    "QQ", "QY", "QYT", "QT", "QS", "QN",
    "DomainError", "PoleError", "ParseError",
    "FractionField", "RatFunc", "RationalField", "UniPoly",
    "format_element", "poly_gcd", "poly_lcm", "print_canonical",
    "rational_roots", "substitute_y",
    "parse_expr", "parse_poly", "parse_qs", "parse_qt", "parse_qy",
    "parse_qyt", "parse_to",
    "CoeffSeq", "compose_oracle", "from_associated",
    "sequence_from_json", "sequence_to_json", "to_associated",
    "AdHocFunction", "FertilityReport", "InfertileError",
    "KolbergizeResult", "PoleSet", "Quatuor", "VerificationError",
    "diese_generator", "diese_quatuor", "exceptional_set", "g_coeffs",
    "generate_range", "h_coeffs", "kolberg_h_closed", "kolberg_quatuor",
    "kolbergize", "linear_combine", "pole_set", "quatuor_from_json",
    "quatuor_to_json", "sharp_un_closed", "shift", "step_down",
    "step_up", "taylor_series",
    "E_UB", "EvalResult", "IdentityCertificate", "SeriesSpec",
    "check_identity", "enclose_fraction", "eval_F_closed",
    "eval_F_interval", "eval_H_series", "eval_theorem_series", "exp_ub",
    "invert_xt", "invert_xt_certified", "require_x_domain",
    "result_to_json", "tol_fraction", "tree_t_interval",
    "__version__",
]
