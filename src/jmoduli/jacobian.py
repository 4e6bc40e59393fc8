"""Jacobian ideals, graded Milnor rings, and deformed subalgebras.

For homogeneous nonsingular f the quotient S/J_f is a finite-dimensional
graded ring; its weight-k*nu pieces R^k are the building blocks of the
extended algebra.  For an inhomogeneous deformation f+g the subalgebra
R_{f+g} generated by the images of all weights k*nu is computed by an
iterated-products closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groebner import (
    GroebnerBasis,
    buchberger,
    is_zero_dimensional,
    normal_form,
    standard_monomials,
)
from .linalg import Span
from .polys import Monomial, Polynomial, RingContext, monomials_of_weight


class SingularInputError(ValueError):
    """The defining form is inhomogeneous, has a non-isolated singularity,
    or has a zero Jacobian quotient."""


class SingularDeformationError(ValueError):
    """J_{f+g} is not zero-dimensional: the deformation is singular."""


def jacobian_ideal(f: Polynomial) -> list[Polynomial]:
    """All first partials of f, zeros kept in place."""
    if f.is_zero():
        raise ValueError("zero polynomial has no Jacobian ideal")
    return [f.partial_derivative(i) for i in range(f.nvars)]


def jacobian_gb(
    f: Polynomial, max_pairs: int = 10**6, deadline: float | None = None
) -> GroebnerBasis | None:
    """Groebner basis of J_f, or None when every partial vanishes."""
    partials = [p for p in jacobian_ideal(f) if not p.is_zero()]
    if not partials:
        return None
    return buchberger(partials, max_pairs=max_pairs, deadline=deadline)


def is_nonsingular(f: Polynomial, ctx: RingContext, max_pairs: int = 10**6) -> bool:
    """True iff the affine cone of f has an isolated critical point.

    Operationally: the Jacobian ideal is zero-dimensional.
    """
    if f.nvars != ctx.nvars:
        raise ValueError("arity mismatch with context")
    gb = jacobian_gb(f, max_pairs=max_pairs)
    return gb is not None and is_zero_dimensional(gb)


@dataclass(frozen=True)
class GradedQuotientData:
    """S/J_f for homogeneous nonsingular f, weight by weight."""

    gb: GroebnerBasis
    standard_basis: tuple[Monomial, ...]
    hilbert: tuple[int, ...]
    r_dims: tuple[int, ...]

    def primitive_basis(self, k: int, nu: int) -> list[Monomial]:
        return [m for m in self.standard_basis if sum(m) == k * nu]


def graded_quotient(
    f: Polynomial,
    ctx: RingContext,
    max_pairs: int = 10**6,
    deadline: float | None = None,
) -> GradedQuotientData:
    """Hilbert data of S/J_f and the dimensions of the pieces R^k.

    R^k is the image of the weight-k*nu polynomials in S/J_f; with J_f
    homogeneous that image is the whole weight-k*nu graded piece, so its
    dimension reads off the Hilbert function.
    """
    weight = weight_of_or_none(f)
    if weight is None or weight != ctx.nu:
        raise ValueError("f must be homogeneous of weight nu")
    gb = jacobian_gb(f, max_pairs=max_pairs, deadline=deadline)
    if gb is None or not is_zero_dimensional(gb):
        raise SingularInputError("singular hypersurface")
    std = standard_monomials(gb)
    socle = ctx.nvars * (ctx.nu - 2)
    hilbert = [0] * (socle + 1)
    for mono in std:
        w = sum(mono)
        if w > socle:
            raise RuntimeError(
                "standard monomial above the socle weight; quotient is not "
                "the Milnor ring of a nonsingular form"
            )
        hilbert[w] += 1
    for w in range(socle + 1):
        if hilbert[w] != hilbert[socle - w]:
            raise RuntimeError("Milnor duality violated; inconsistent quotient")
    n = ctx.nvars - 1
    r_dims = []
    for k in range(n):
        w = k * ctx.nu
        r_dims.append(hilbert[w] if w <= socle else 0)
    return GradedQuotientData(gb, tuple(std), tuple(hilbert), tuple(r_dims))


def primitive_basis(
    f: Polynomial, ctx: RingContext, k: int, max_pairs: int = 10**6
) -> list[Monomial]:
    """Standard monomials of weight k*nu: a basis of R^k."""
    if not 0 <= k <= ctx.nvars - 2:
        raise ValueError(f"k={k} out of range 0..{ctx.nvars - 2}")
    data = graded_quotient(f, ctx, max_pairs=max_pairs)
    return data.primitive_basis(k, ctx.nu)


def weight_of_or_none(p: Polynomial) -> int | None:
    """Common weight of p's monomials, or None if inhomogeneous."""
    if p.is_zero():
        raise ValueError("weight of the zero polynomial is undefined")
    weights = {sum(m) for m in p.terms}
    if len(weights) == 1:
        return weights.pop()
    return None


def std_coordinates(std: tuple[Monomial, ...]):
    """The map taking a normal form to its sparse coordinates over std."""
    index = {mono: i for i, mono in enumerate(std)}

    def coords(p: Polynomial) -> dict[int, Fraction]:
        return {index[mono]: coeff for mono, coeff in p.terms.items()}

    return coords


@dataclass(frozen=True)
class DeformedSubalgebraData:
    """R_{f+g}: the subalgebra of S/J_{f+g} generated by weights k*nu."""

    gb: GroebnerBasis
    standard_basis: tuple[Monomial, ...]
    generators_nf: tuple[Polynomial, ...]
    basis: tuple[Polynomial, ...]
    stabilized_at: int

    @property
    def dim(self) -> int:
        return len(self.basis)


def deformed_subalgebra(
    f: Polynomial,
    g: Polynomial,
    ctx: RingContext,
    max_pairs: int = 10**6,
    verify_extra_steps: int = 0,
    deadline: float | None = None,
) -> DeformedSubalgebraData:
    """Closure computation of R_{f+g}.

    Layers V_k = image of the weight-k*nu polynomials in S/J_{f+g}
    satisfy V_{k+1} = span NF(m * v) over weight-nu monomials m and a
    basis v of V_k, since every weight-(k+1)*nu monomial factors.  The
    iteration stops at the first k with V_{k+1} contained in the sum of
    the earlier layers, which forces all later layers in as well.

    verify_extra_steps > 0 keeps iterating that many layers past
    stabilization and raises if anything new appears (a consistency
    check for tests).  deadline bounds the Groebner basis, as in
    buchberger.
    """
    if f.nvars != ctx.nvars or (not g.is_zero() and g.nvars != ctx.nvars):
        raise ValueError("arity mismatch with context")
    for mono in g.terms:
        if sum(mono) % ctx.nu != 0:
            raise ValueError(
                f"deformation term of weight {sum(mono)} not divisible by nu={ctx.nu}"
            )
    total = f + g
    if total.is_zero():
        raise SingularDeformationError("deformation is singular")
    partials = [p for p in jacobian_ideal(total) if not p.is_zero()]
    if not partials:
        raise SingularDeformationError("deformation is singular")
    gb = buchberger(partials, max_pairs=max_pairs, deadline=deadline)
    if not is_zero_dimensional(gb):
        raise SingularDeformationError("deformation is singular")
    std = tuple(standard_monomials(gb))
    nstd = len(std)
    coords = std_coordinates(std)
    weight_nu = monomials_of_weight(ctx.nvars, ctx.nu)
    one = normal_form(Polynomial.constant(ctx.nvars, 1), gb)
    if one.is_zero():
        raise SingularDeformationError("the quotient S/J_(f+g) is zero")

    total_span = Span(nstd)
    total_span.add(coords(one))
    basis = [one]
    layer = [one]
    generators_nf: tuple[Polynomial, ...] = ()
    stabilized_at = 0
    extra_mode = False
    extra_left = 0
    k = 0
    cap = nstd + 1
    while layer:
        k += 1
        if k > cap + verify_extra_steps:
            raise RuntimeError("closure failed to stabilize below the hard cap")
        layer_span = Span(nstd)
        next_layer: list[Polynomial] = []
        grew = False
        for v in layer:
            for m in weight_nu:
                w = normal_form(v.times_monomial(m), gb)
                if w.is_zero():
                    continue
                cw = coords(w)
                if layer_span.add(cw):
                    next_layer.append(w)
                    if total_span.add(cw):
                        basis.append(w)
                        grew = True
        if k == 1:
            generators_nf = tuple(next_layer)
        if grew:
            if extra_mode:
                raise RuntimeError(
                    "closure grew after reported stabilization; stopping "
                    "criterion violated"
                )
            stabilized_at = k
        else:
            if not extra_mode:
                extra_mode = True
                extra_left = verify_extra_steps
            if extra_left <= 0:
                break
            extra_left -= 1
        layer = next_layer
    return DeformedSubalgebraData(gb, std, generators_nf, tuple(basis),
                                  stabilized_at)
