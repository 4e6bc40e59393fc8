"""Spot checks on the differential graded side.

Builds graded pieces of the derivation algebra for the Fermat cubic,
verifies d_f squares to zero on them, and compares first cohomology
against the Hilbert vector of the graded quotient.  Ends with a couple
of bracket evaluations on the wedge module.
"""

from jmoduli import graded_quotient, parse_polynomial
from jmoduli.dgla import (
    DEL,
    FElement,
    TPolynomial,
    cohomology_report,
    d_f_apply,
    graded_piece,
    render_f_element,
    schouten_bracket_F,
)

CUBIC = parse_polynomial("x0^3 + x1^3 + x2^3")
NU = 3

print("graded pieces of the derivation algebra, degree 1:")
for weight in range(-3, 4):
    piece = graded_piece(CUBIC, 1, weight, "L")
    print(f"  weight {weight:+d}: dim {piece.dimension}")

print()
print("d_f^2 = 0 on every element of those pieces:")
checked = 0
for degree in (-1, 0, 1):
    for weight in range(-6, 7):
        for v in graded_piece(CUBIC, degree, weight, "L").basis:
            assert d_f_apply(d_f_apply(v, CUBIC), CUBIC).is_zero()
            checked += 1
print(f"  {checked} elements checked, all zero")

print()
print("first cohomology against the Hilbert vector:")
hilbert = list(graded_quotient(CUBIC).hilbert)
for weight in range(-3, 4):
    report = cohomology_report(CUBIC, 1, weight)
    idx = weight + NU
    expected = hilbert[idx] if 0 <= idx < len(hilbert) else 0
    marker = "ok" if report["h_dim"] == expected else "MISMATCH"
    print(f"  weight {weight:+d}: h = {report['h_dim']}  "
          f"(hilbert says {expected})  {marker}")

print()
print("bracket evaluations on the wedge module:")
one = TPolynomial.constant(3, NU, 1)
y = TPolynomial.y(3, NU)
g = TPolynomial.from_s(parse_polynomial("x0*x1*x2"), NU)
gdel = FElement.word(3, NU, (DEL,), g)
for v, label in [(FElement.word(3, NU, (0,), y), "y*d0"),
                 (FElement.word(3, NU, (0,), one), "d0"),
                 (FElement.word(3, NU, (DEL,), y), "y*del")]:
    out = schouten_bracket_F(gdel, v)
    print(f"  [x0*x1*x2*del, {label}] = {render_f_element(out)}")
