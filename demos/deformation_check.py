"""Deforming a Fermat cubic and watching the dimension (not) move.

Two directions are tried.  The Hesse direction x0*x1*x2 is transverse:
the deformed subalgebra closes at the same dimension and the verdict is
equal.  The direction x0^6 is not (it is weight 2*nu, and exact against
the Jacobian ideal): the closure picks up extra classes and the verdict
flags the mismatch.
"""

from fractions import Fraction

from jmoduli import (
    deformed_subalgebra,
    parse_polynomial,
    render_polynomial,
    verify_dimension_equality,
)

CUBIC = parse_polynomial("x0^3 + x1^3 + x2^3")


def check(g_text, t=1):
    g = parse_polynomial(g_text, nvars=3).scale(Fraction(t))
    label = render_polynomial(g)
    print(f"--- direction g = {label} ---")
    comparison = verify_dimension_equality(CUBIC, g)
    print(f"  dim of the extended algebra:   {comparison['dim_extended']}")
    print(f"  dim after deforming along g:   {comparison['dim_deformed']}")
    print(f"  equal: {comparison['equal']}")
    data = deformed_subalgebra(CUBIC, g)
    rendered = ", ".join(render_polynomial(b) for b in data.basis)
    print(f"  closure stabilized at layer {data.stabilized_at}; "
          f"basis [{rendered}]")
    if not comparison["equal"]:
        print("  -> the direction is not transverse; the closure jumped.")
    print()


if __name__ == "__main__":
    check("x0*x1*x2")
    check("x0*x1*x2", t=2)
    check("x0^6")
