"""Jacobian rings of Calabi-Yau hypersurfaces over exact rationals.

Core pipeline: parse a defining form f, take its Jacobian ideal, run
Buchberger, and read dimensions and products off the quotient; deform by
g of weight divisible by nu and redo everything without the grading; or
study the associated differential graded Lie algebra model.

Each public name below is imported from its home module on first access
(PEP 562), so importing the package, or one command of jmoduli.cli, loads
only the modules that are used.
"""

from importlib import import_module

_PUBLIC = {
    "polys": "Monomial ParseError Polynomial degrevlex_key "
             "monomials_of_weight parse_polynomial render_polynomial",
    "linalg": "Span rank_of rref",
    "groebner": "BudgetExceeded GroebnerBasis buchberger "
                "is_zero_dimensional normal_form spolynomial standard_monomials",
    "jacobian": "DeformedSubalgebraData GradedQuotientData "
                "SingularDeformationError SingularInputError deformed_subalgebra "
                "graded_quotient is_nonsingular jacobian_gb jacobian_ideal "
                "weight_of_or_none",
    "extended": "EClass ExtendedAlgebra PrimitiveClass build_extended "
                "build_extended_deformed structure_constants to_json_dict "
                "verify_algebra_laws verify_dimension_equality",
    "dgla": "DEL E DerivationElement FElement GradedPiece TPolynomial "
            "TruncationError bracket_L cohomology_dims cohomology_report "
            "d_f_apply d_f_apply_F graded_piece render_derivation "
            "render_f_element render_t_polynomial schouten_bracket_F "
            "verify_shifted_differential",
}
_HOME = {name: module for module, names in _PUBLIC.items()
         for name in names.split()}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
