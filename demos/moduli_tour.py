"""A walk through the graded quotient of a Fermat hypersurface.

Starts from the defining polynomial, builds the Jacobian ideal and its
Groebner basis, reads off the Hilbert vector, and assembles the small
extended algebra whose dimension is the headline number.

Run:  python3 demos/moduli_tour.py
"""

from jmoduli import (
    Polynomial,
    build_extended,
    buchberger,
    graded_quotient,
    jacobian_ideal,
    parse_polynomial,
    render_polynomial,
    standard_monomials,
)


def tour(text, nvars):
    f = parse_polynomial(text, nvars=nvars)
    print(f"=== {render_polynomial(f)}  ({nvars} variables) ===")

    gens = jacobian_ideal(f)
    print("Jacobian ideal generators:")
    for g in gens:
        print("   ", render_polynomial(g))

    gb = buchberger(gens)
    std = standard_monomials(gb)
    print(f"Groebner basis size {len(gb)}, "
          f"{len(std)} standard monomials")

    data = graded_quotient(f)
    print("Hilbert vector:", list(data.hilbert))
    print("dimensions at weights 0, nu, 2*nu, ...:", list(data.r_dims))

    # the subalgebra generated in weight nu, listed degree by degree
    for k in range(nvars - 1):
        basis = data.primitive_basis(k)
        shown = [render_polynomial(Polynomial.monomial(m))
                 for m in basis[:6]]
        tail = f", ... ({len(basis)} total)" if len(basis) > 6 else ""
        print(f"  primitive piece {k}: [{', '.join(shown)}{tail}]")

    algebra = build_extended(f)
    print(f"extended algebra: dim {algebra.dim}")
    labels = [str(x) for x in algebra.basis_labels]
    if len(labels) > 8:
        labels = labels[:5] + ["..."] + labels[-3:]
    print("basis labels:", ", ".join(labels))
    print()


if __name__ == "__main__":
    tour("x0^3 + x1^3 + x2^3", 3)
    tour("x0^4 + x1^4 + x2^4 + x3^4", 4)
    print("The quintic takes a moment longer; its middle weights are wide.")
    tour("x0^5 + x1^5 + x2^5 + x3^5 + x4^5", 5)
