"""Jacobian ideals, graded Milnor rings, and deformed subalgebras.

Everything is read off the form f: the number of variables is f.nvars,
and form_weight derives the weight nu, refusing a zero, inhomogeneous
or constant f.  nonsingular_gb is the one test of nonsingularity: the
basis of J_f when S/J_f is finite.  Then S/J_f is graded, and its
weight-k*nu pieces R^k build the extended algebra.  For an
inhomogeneous deformation f+g the subalgebra R_{f+g} generated by the
images of all weights k*nu is computed by an iterated-products closure.
Both carry the Quotient of their basis, one object for staircase and
memoized normal forms, which serve the closure here and the product
tables in extended.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groebner import (
    GroebnerBasis,
    Quotient,
    buchberger,
    check_deadline,
    is_zero_dimensional,
)
from .linalg import Row, Span, _lowest
from .polys import Monomial, Polynomial, monomials_of_weight
from .stats import Stats


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
    f: Polynomial, max_pairs: int = 10**6, deadline: float | None = None,
    stats: Stats | None = None,
) -> GroebnerBasis | None:
    """Groebner basis of J_f, or None when every partial vanishes."""
    partials = [p for p in jacobian_ideal(f) if not p.is_zero()]
    if not partials:
        return None
    return buchberger(partials, max_pairs=max_pairs, deadline=deadline,
                      stats=stats)


def nonsingular_gb(
    f: Polynomial, max_pairs: int = 10**6, deadline: float | None = None,
    stats: Stats | None = None,
) -> GroebnerBasis | None:
    """Groebner basis of J_f when it is zero-dimensional, else None."""
    gb = jacobian_gb(f, max_pairs, deadline, stats)
    return gb if gb is not None and is_zero_dimensional(gb) else None


def is_nonsingular(f: Polynomial, max_pairs: int = 10**6) -> bool:
    """True iff the affine cone of the form f has an isolated critical
    point.

    Operationally: the Jacobian ideal is zero-dimensional.
    """
    form_weight(f)
    return nonsingular_gb(f, max_pairs) is not None


@dataclass(frozen=True)
class GradedQuotientData:
    """S/J_f for homogeneous nonsingular f, weight by weight."""

    gb: GroebnerBasis
    standard_basis: tuple[Monomial, ...]
    hilbert: tuple[int, ...]
    r_dims: tuple[int, ...]
    nu: int
    quotient: Quotient = field(compare=False, repr=False)

    def primitive_basis(self, k: int) -> list[Monomial]:
        return [m for m in self.standard_basis if sum(m) == k * self.nu]


def graded_quotient(
    f: Polynomial,
    max_pairs: int = 10**6,
    deadline: float | None = None,
    stats: Stats | None = None,
) -> GradedQuotientData:
    """Hilbert data of S/J_f and the dimensions of the pieces R^k.

    R^k is the image of the weight-k*nu polynomials in S/J_f; with J_f
    homogeneous that image is the whole weight-k*nu graded piece, so its
    dimension reads off the Hilbert function.  deadline bounds the
    Groebner basis and every later normal form of the quotient.  stats
    takes the Buchberger counters and standard_monomials.
    """
    nu = form_weight(f)
    gb = nonsingular_gb(f, max_pairs, deadline, stats)
    if gb is None:
        raise SingularInputError("singular hypersurface")
    quotient = Quotient(gb, deadline)
    std = quotient.standard
    if stats is not None:
        stats.count("standard_monomials", len(std))
    socle = f.nvars * (nu - 2)  # the top weight of the Milnor ring
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
    r_dims = tuple(hilbert[k * nu] if k * nu <= socle else 0
                   for k in range(f.nvars - 1))
    return GradedQuotientData(gb, std, tuple(hilbert), r_dims, nu, quotient)


def graded_shape(r_dims: tuple[int, ...]) -> tuple[int, ...]:
    """The grading of R-tilde, whose length is its dimension: 2k for each
    of the r_k primitive classes, then n-1 for each of the n e-classes."""
    n = len(r_dims)
    return (*(2 * k for k, r in enumerate(r_dims) for _ in range(r)),
            *(n - 1,) * n)


def weight_of_or_none(p: Polynomial) -> int | None:
    """Common weight of p's monomials, or None if inhomogeneous."""
    if p.is_zero():
        raise ValueError("weight of the zero polynomial is undefined")
    weights = {sum(m) for m in p.terms}
    if len(weights) == 1:
        return weights.pop()
    return None


def form_weight(f: Polynomial) -> int:
    """The weight nu of the form f; a zero f is a ValueError, and an
    inhomogeneous or constant f a SingularInputError."""
    if f.is_zero():
        raise ValueError("f must be nonzero")
    nu = weight_of_or_none(f)
    if nu is None:
        raise SingularInputError("f is not homogeneous")
    if nu == 0:
        raise SingularInputError("f is constant")
    return nu


@dataclass(frozen=True)
class DeformedSubalgebraData:
    """R_{f+g}: the subalgebra of S/J_{f+g} generated by weights k*nu."""

    gb: GroebnerBasis
    standard_basis: tuple[Monomial, ...]
    generators_nf: tuple[Polynomial, ...]
    basis: tuple[Polynomial, ...]
    stabilized_at: int
    quotient: Quotient = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)


def deformed_subalgebra(
    f: Polynomial,
    g: Polynomial,
    max_pairs: int = 10**6,
    verify_extra_steps: int = 0,
    deadline: float | None = None,
    stats: Stats | None = None,
) -> DeformedSubalgebraData:
    """Closure computation of R_{f+g}.

    Layers V_k = image of the weight-k*nu polynomials in S/J_{f+g} satisfy
    V_{k+1} = span NF(m * v) over weight-nu monomials m and a basis v of
    V_k, since every weight-(k+1)*nu monomial factors; NF(m * v) sums the
    quotient's rows NF(m * s) over the terms c*s of v.  The iteration stops
    at the first k with V_{k+1} contained in the sum of the earlier layers,
    which forces all later layers in as well.  Layers keep reduce's index
    rows; only the basis goes back to monomials.  A layer forms each
    distinct polynomial v * m once (Quotient.times): the layer span
    already took or refused the normal form of a repeat.

    verify_extra_steps > 0 keeps iterating that many layers past
    stabilization and raises if anything new appears (a consistency check
    for tests).  deadline bounds the Groebner basis, as in buchberger, and
    the closure: each normal form it reads and each vector of a layer check
    it.  stats takes the Buchberger counters of J_{f+g}, memo_rows,
    closure_products (pairs (v, m)), closure_distinct (products formed) and
    closure_dim.
    """
    nvars, nu = f.nvars, form_weight(f)
    if not g.is_zero() and g.nvars != nvars:
        raise ValueError("arity mismatch between f and g")
    for mono in g.terms:
        if sum(mono) % nu != 0:
            raise ValueError(
                f"deformation term of weight {sum(mono)} not divisible by nu={nu}"
            )
    total = f + g
    gb = nonsingular_gb(total, max_pairs, deadline, stats) if total else None
    if gb is None:
        raise SingularDeformationError("deformation is singular")
    quotient = Quotient(gb, deadline)
    std = quotient.standard
    unit = quotient.row((0,) * nvars)
    if not unit[0]:
        raise SingularDeformationError("the quotient S/J_(f+g) is zero")
    weight_nu = quotient.pack(dict.fromkeys(monomials_of_weight(nvars, nu), 1))

    total_span = Span(len(std))
    total_span.add(unit[0])
    basis, layer = [unit], [unit]
    generators: list[tuple[Row, int]] = []
    products = distinct = 0
    # a layer that adds nothing ends the closure, once verify_extra_steps
    # more layers have added nothing either
    stabilized_at = 0
    k = 0
    while layer and k <= stabilized_at + verify_extra_steps:
        k += 1
        layer_span = Span(len(std))
        next_layer: list[tuple[Row, int]] = []
        formed: set[frozenset] = set()  # the products v * m of this layer
        grew = False
        for row, den in layer:
            check_deadline(deadline, "the closure")
            products += len(weight_nu)
            for key in quotient.times(row, weight_nu):
                if key in formed:
                    continue
                formed.add(key)
                w, d = quotient.reduce(key)
                if not w:
                    continue
                if layer_span.add(w):
                    next_layer.append(_lowest(w, d * den))
                    if total_span.add(w):
                        basis.append(next_layer[-1])
                        grew = True
        if k == 1:
            generators = next_layer
        if grew:
            if k > stabilized_at + 1:
                raise RuntimeError(
                    "closure grew after reported stabilization; stopping "
                    "criterion violated"
                )
            stabilized_at = k
        layer = next_layer
        distinct += len(formed)
    if stats is not None:
        stats.count("memo_rows", len(quotient.rows))
        stats.count("closure_products", products)
        stats.count("closure_distinct", distinct)
        stats.count("closure_dim", len(basis))

    def polynomials(vectors: list) -> tuple[Polynomial, ...]:
        return tuple(Polynomial(nvars, {std[i]: Fraction(c, den)
                                        for i, c in row.items()})
                     for row, den in vectors)

    return DeformedSubalgebraData(
        gb, quotient.standard, polynomials(generators), polynomials(basis),
        stabilized_at, quotient)
