"""Command line front end.

Four commands over a defining form f:

    jmoduli check  "x0^3 + x1^3 + x2^3"
    jmoduli moduli "x0^3 + x1^3 + x2^3"
    jmoduli deform "x0^4 + ... + x3^4" "x0^2*x1^2*x2^2*x3^2"
    jmoduli dgla   "x0^3 + x1^3 + x2^3" --degree 1 --weight=-3

check validates the hypotheses (homogeneous, nonsingular, nu = nvars),
moduli reports the graded dimensions, basis data, and dim R~ and its
grading read off the Hilbert data (no product table), deform compares
the deformed algebra against the graded one, and dgla reports one
(degree, weight) spot of the first-order cohomology.  deform and dgla
import extended and dgla when they run, so check and moduli load neither.

Exit codes: 0 success, 1 a mathematical hypothesis failed, 2 parse or
usage error, 3 compute budget exceeded.  --json switches the report to
a JSON document on stdout; everything else goes to stderr.  Output for
a fixed input is deterministic apart from the timing_ms field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .groebner import BudgetExceeded
from .jacobian import (
    SingularDeformationError,
    SingularInputError,
    deformed_subalgebra,
    form_weight,
    graded_quotient,
    graded_shape,
    nonsingular_gb,
    weight_of_or_none,
)
from .polys import (
    ParseError,
    Polynomial,
    monomial_factors,
    parse_polynomial,
    render_polynomial,
    render_term,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser, built once and shared by every main call:
    parse_args returns a new Namespace each time and leaves the parser as
    it was, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="jmoduli",
        description="Jacobian rings of Calabi-Yau hypersurfaces: "
                    "dimensions, deformations, and first-order cohomology.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("f", help="defining polynomial, e.g. 'x0^3 + x1^3 + x2^3'")
        p.add_argument("--nvars", type=int, default=None,
                       help="number of variables (default: inferred from f)")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report on stdout")
        p.add_argument("--max-pairs", type=int, default=10**6,
                       help="Buchberger S-pair budget (default 1000000)")
        p.add_argument("--timeout-s", type=float, default=600.0,
                       help="wall clock budget in seconds, 0 disables "
                            "(default 600)")

    common(sub.add_parser("check", help="validate the hypotheses on f"))
    common(sub.add_parser("moduli", help="graded dimensions and bases"))

    deform = sub.add_parser("deform", help="deformed algebra for f+g")
    common(deform)
    deform.add_argument("g", nargs="?", default="",
                        help="deformation polynomial (empty means zero)")
    deform.add_argument("--g-file", default=None,
                        help="read g from a file instead")

    dgla = sub.add_parser("dgla", help="first-order cohomology at one spot")
    common(dgla)
    dgla.add_argument("--degree", type=int, required=True,
                      help="homological degree of the piece")
    dgla.add_argument("--weight", type=int, required=True,
                      help="weight of the piece (use --weight=-3 for "
                           "negative values)")
    return parser


def _parse(args) -> Polynomial:
    f = parse_polynomial(args.f, args.nvars)
    if f.is_zero():
        raise ParseError("f must be nonzero", 0)
    return f


def _parse_f(args) -> tuple[Polynomial, int]:
    f = _parse(args)
    return f, form_weight(f)


def _dumps(report: dict) -> str:
    """json.dumps(report, indent=2), with a deform report's products from a
    per-triple template, as CPython's indent encoder runs in Python."""
    result = report["result"]
    if not result.get("products"):
        return json.dumps(report, indent=2)
    text = json.dumps({**report, "result": {**result, "products": []}}, indent=2)
    body = ",\n".join(f'      [\n        {i},\n        {j},\n        {x},\n'
                      f'        "{c}"\n      ]' for i, j, x, c in result["products"])
    return text.replace('"products": []', f'"products": [\n{body}\n    ]', 1)


def _emit(args, f: Polynomial, nu: "int | None", g: "Polynomial | None",
          result: dict, started: float, lines: list,
          warning: "str | None" = None) -> None:
    """The JSON report with --json, else f (and g) and the lines."""
    given = {
        "f": render_polynomial(f),
        "g": render_polynomial(g) if g is not None else None,
        "nvars": f.nvars,
        "nu": nu,
    }
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        print(_dumps({
            "command": args.command,
            "input": given,
            "result": result,
            "timing_ms": int(round((time.perf_counter() - started) * 1000)),
            "version": __version__,
        }))
        return
    weight = "" if args.command == "check" else f", nu {nu}"
    print(f"f = {given['f']}  (nvars {f.nvars}{weight})")
    if g is not None:
        print(f"g = {given['g']}")
    for line in lines:
        print(line)


def cmd_check(args) -> int:
    started = time.perf_counter()
    f = _parse(args)
    nu = weight_of_or_none(f)
    homogeneous = nu is not None
    calabi_yau = homogeneous and nu == f.nvars
    nonsingular = zero_quotient = False
    if homogeneous:
        gb = nonsingular_gb(f, args.max_pairs, args.deadline)
        nonsingular = gb is not None
        zero_quotient = nonsingular and (0,) * f.nvars in gb.leads
    passed = homogeneous and calabi_yau and nonsingular
    why = ""
    if passed and zero_quotient:
        # J_f = (1) (f is linear): moduli and deform have nothing to work on
        passed, why = False, "  (the quotient S/J_f is zero)"
    result = {
        "homogeneous": homogeneous,
        "nu": nu,
        "nvars": f.nvars,
        "calabi_yau": calabi_yau,
        "nonsingular": nonsingular,
        "pass": passed,
    }
    lines = [
        f"homogeneous:  {'yes' if homogeneous else 'no'}"
        + (f"  (weight {nu})" if homogeneous else ""),
        f"calabi-yau:   {'yes' if calabi_yau else 'no (needs weight = nvars)'}",
        f"nonsingular:  {'yes' if nonsingular else 'no'}",
        f"verdict:      {'pass' if passed else 'fail'}{why}",
    ]
    _emit(args, f, nu, None, result, started, lines)
    return EXIT_OK if passed else EXIT_MATH


def cmd_moduli(args) -> int:
    started = time.perf_counter()
    f, nu = _parse_f(args)
    data = graded_quotient(f, max_pairs=args.max_pairs, deadline=args.deadline)
    if not data.standard_basis:
        raise SingularInputError("the quotient S/J_f is zero")
    grading = list(graded_shape(data.r_dims))
    bases = [[k, [render_term(1, monomial_factors(m))
                  for m in data.primitive_basis(k)]] for k in range(f.nvars - 1)]
    result = {
        "hilbert": list(data.hilbert),
        "r_dims": list(data.r_dims),
        "primitive_bases": bases,
        "dim_extended": len(grading),
        "grading": grading,
    }
    lines = [
        f"hilbert:      {list(data.hilbert)}",
        f"r_dims:       {list(data.r_dims)}",
        f"dim R~:       {len(grading)}",
        f"grading:      {grading}",
    ]
    for k, basis in bases:
        lines.append(f"R^{k} basis:    {', '.join(basis)}")
    _emit(args, f, nu, None, result, started, lines)
    return EXIT_OK


def cmd_deform(args) -> int:
    from .extended import extended_from_closure, to_json_dict

    started = time.perf_counter()
    f, nu = _parse_f(args)
    if args.g_file is not None and args.g:
        raise ParseError("pass g inline or with --g-file, not both", 0)
    g_text = args.g
    if args.g_file is not None:
        try:
            with open(args.g_file, "r", encoding="utf-8") as handle:
                g_text = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read --g-file: {exc}") from exc
    g_text = g_text.strip()
    g = (Polynomial.zero(f.nvars) if not g_text
         else parse_polynomial(g_text, f.nvars))
    # a singular f fails here, before the closure and the products
    graded = graded_quotient(f, max_pairs=args.max_pairs, deadline=args.deadline)
    data = deformed_subalgebra(f, g, max_pairs=args.max_pairs,
                               deadline=args.deadline)
    algebra = extended_from_closure(data)
    dump = to_json_dict(algebra) if args.json else {  # the text has no products
        "basis": [str(label) for label in algebra.basis_labels]}
    # dim R~ reads off the Hilbert data, dim R~_(f+g) off the table
    dim, dim_deformed = len(graded_shape(graded.r_dims)), algebra.dim
    result = {
        "dim_extended": dim,
        "dim_extended_deformed": dim_deformed,
        "equal": dim == dim_deformed,
        "stabilized_at": data.stabilized_at,
        "basis": dump["basis"],
        "products": dump.get("products"),
    }
    warning = None
    if not result["equal"]:
        warning = (
            f"dim R~_(f+g) = {dim_deformed} differs from dim R~ = {dim}; "
            f"the deformation direction is not transverse (g may be exact "
            f"in the Jacobian ideal, or of weight 2*nu or higher)")
        result["warning"] = warning
    lines = [
        f"dim R~:        {dim}",
        f"dim R~_(f+g):  {dim_deformed}",
        f"verdict:       {'equal' if result['equal'] else 'NOT equal'}",
        f"basis:         {', '.join(dump['basis'])}",
    ]
    _emit(args, f, nu, g, result, started, lines, warning)
    return EXIT_OK


def cmd_dgla(args) -> int:
    from .dgla import cohomology_report

    started = time.perf_counter()
    f, nu = _parse_f(args)
    spot = cohomology_report(f, args.degree, args.weight, args.deadline)
    result = {"degree": args.degree, "weight": args.weight, **spot}
    crosscheck_ok = True
    if args.degree == 1:
        data = graded_quotient(f, max_pairs=args.max_pairs,
                               deadline=args.deadline)
        idx = args.weight + nu
        expected = data.hilbert[idx] if 0 <= idx < len(data.hilbert) else 0
        crosscheck_ok = spot["h_dim"] == expected
        result["hilbert_value"] = expected
        result["crosscheck_pass"] = crosscheck_ok
    lines = [
        f"piece L^({args.degree},{args.weight}):  dim {spot['dim_piece']}",
        f"kernel:        {spot['dim_ker']}",
        f"image in:      {spot['dim_im_in']}",
        f"H^({args.degree},{args.weight}):       {spot['h_dim']}",
    ]
    if args.degree == 1:
        lines.append(
            f"hilbert check: {'pass' if crosscheck_ok else 'FAIL'}"
            f" (expected {result['hilbert_value']})")
    _emit(args, f, nu, None, result, started, lines)
    return EXIT_OK if crosscheck_ok else EXIT_MATH


_COMMANDS = {
    "check": cmd_check,
    "moduli": cmd_moduli,
    "deform": cmd_deform,
    "dgla": cmd_dgla,
}


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not args.timeout_s >= 0:  # also true for nan
            raise ValueError(f"--timeout-s must be >= 0, not {args.timeout_s}")
        if args.max_pairs < 0:
            raise ValueError(f"--max-pairs must be >= 0, not {args.max_pairs}")
        # binds inside Buchberger, the staircase, the closure, the
        # products and the cohomology
        args.deadline = (time.perf_counter() + args.timeout_s
                         if args.timeout_s else None)
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SingularInputError, SingularDeformationError) as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
