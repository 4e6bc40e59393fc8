"""The extended algebras: R with n adjoined classes e_0..e_{n-1}.

For homogeneous nonsingular f the underlying space is R = sum of the
weight-k*nu graded pieces of S/J_f (k = 0..n-1); for a deformation f+g
it is the closure subalgebra R_{f+g}.  Both are fixed by f alone: n + 1
is the gb.nvars of the quotient data, and nu is GradedQuotientData.nu.
The e-classes multiply to zero against everything except the unit.
_product_table builds both algebras, and refuses one variable (n = 0),
where R~ has no unit; extended_from_quotient and extended_from_closure
only choose the basis rows, labels and grading.  A basis vector is an
integer row over one denominator (a graded monomial m is ({m: 1}, 1)).
Only the pairs i <= j are computed, sparsely, each read off the
memoized monomial normal forms of the quotient (groebner.Quotient), not
from a division per pair; each distinct product is expanded over the
basis once, and the deadline is checked once per basis vector.
jacobian.graded_shape reads the grading, and so the dimension, of
R-tilde off r_k alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groebner import Quotient, check_deadline
from .jacobian import (
    DeformedSubalgebraData,
    GradedQuotientData,
    SingularInputError,
    deformed_subalgebra,
    graded_quotient,
    graded_shape,
)
from .linalg import Span, _add_scaled, _integral
from .polys import Polynomial, render_polynomial
from .stats import Stats


@dataclass(frozen=True)
class PrimitiveClass:
    """Class of a normal-form polynomial; k is the grade index if graded."""

    poly: Polynomial
    k: int | None

    def __str__(self) -> str:
        return f"[{render_polynomial(self.poly)}]"


@dataclass(frozen=True)
class EClass:
    index: int

    def __str__(self) -> str:
        return f"e_{self.index}"


Label = PrimitiveClass | EClass

ProductTable = list[list[dict[int, Fraction]]]


@dataclass(frozen=True)
class ExtendedAlgebra:
    basis_labels: tuple[Label, ...]
    products: ProductTable  # products[i][j]: sparse expansion of b_i * b_j
    grading: tuple[int, ...] | None
    unit_index: int

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    def label_index(self, label: Label | int) -> int:
        if isinstance(label, int):
            if not 0 <= label < self.dim:
                raise ValueError(f"basis index {label} out of range")
            return label
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown basis label {label}") from None


def structure_constants(
    algebra: ExtendedAlgebra, i: Label | int, j: Label | int
) -> list[Fraction]:
    """Dense expansion coefficients of basis_i * basis_j."""
    a = algebra.label_index(i)
    b = algebra.label_index(j)
    out = [Fraction(0)] * algebra.dim
    for x, c in algebra.products[a][b].items():
        out[x] = c
    return out


def _product_table(
    quotient: Quotient, basis: list[tuple[dict, int]], labels: list[Label],
    grading: tuple[int, ...] | None, n: int, stats: Stats | None = None,
) -> ExtendedAlgebra:
    """R-tilde on the primitive classes r / den, given as (r, den) with r
    an integer row over standard monomials and the unit first, with their
    labels, followed by the n e-classes e_0..e_{n-1}.

    e_i * e_j = 0 and e_i * [h] = 0 except against the unit:
    1 * e_i = e_i * 1 = e_i.  A primitive product NF(pa * pb) is summed
    from the quotient's index rows and expanded over the basis by exact
    elimination, once per Quotient.product key and da * db; a zero one is
    {}, and each pair gets its own copy.  A linearly dependent basis, or a
    product outside its span, is an internal error.  stats counts
    table_products (pairs) and table_distinct (products reduced).
    """
    if n == 0:
        raise SingularInputError("f has one variable: R~ is zero, with no unit")
    span = Span(len(quotient.standard), track_original=True)
    rows = [{quotient.index[m]: c for m, c in row.items()} for row, _ in basis]
    if not all(map(span.add, rows)):
        raise RuntimeError("stored basis is linearly dependent")
    packed = [quotient.pack(row) for row, _ in basis]
    dim = len(basis) + n
    table: ProductTable = [[{} for _ in range(dim)] for _ in range(dim)]
    for e in range(len(basis), dim):
        table[0][e] = table[e][0] = {e: Fraction(1)}
    expansions: dict[tuple[frozenset, int], dict[int, Fraction]] = {}
    for b, (_, db) in enumerate(basis):
        check_deadline(quotient.deadline, "the products")
        for a in range(b + 1):
            key = quotient.product(packed[a], packed[b]), basis[a][1] * db
            expansion = expansions.get(key)
            if expansion is None:
                nf, den = quotient.reduce(key[0])
                expansion = nf and span.coordinates(nf, den * key[1])
                if expansion is None:
                    raise RuntimeError("product left the span of the basis; "
                                       "inconsistent quotient")
                expansions[key] = expansion
            table[a][b] = table[b][a] = dict(expansion)
    if stats is not None:
        stats.count("table_products", len(basis) * (len(basis) + 1) // 2)
        stats.count("table_distinct", len(expansions))
    return ExtendedAlgebra((*labels, *map(EClass, range(n))), table,
                           grading, 0)


def build_extended(f: Polynomial, max_pairs: int = 10**6) -> ExtendedAlgebra:
    """R-tilde for homogeneous nonsingular f, with its even grading."""
    return extended_from_quotient(graded_quotient(f, max_pairs=max_pairs))


def extended_from_quotient(data: GradedQuotientData) -> ExtendedAlgebra:
    """R-tilde from the graded quotient S/J_f.

    Basis: the standard monomials of weight k*nu for k = 0..n-1, then
    e_0..e_{n-1}, graded by graded_shape.  Each basis monomial m enters
    the table as the row ({m: 1}, 1); a product above the socle weight
    reduces to zero.
    """
    if not data.standard_basis:
        raise SingularInputError("the quotient S/J_f is zero")
    n = data.gb.nvars - 1
    monos = [(mono, k) for k in range(n) for mono in data.primitive_basis(k)]
    return _product_table(
        data.quotient, [({m: 1}, 1) for m, _ in monos],
        [PrimitiveClass(Polynomial.monomial(m), k) for m, k in monos],
        graded_shape(data.r_dims), n)


def build_extended_deformed(
    f: Polynomial, g: Polynomial, max_pairs: int = 10**6
) -> ExtendedAlgebra:
    """R-tilde_{f+g}: ungraded, on the closure basis of R_{f+g} plus e's."""
    return extended_from_closure(deformed_subalgebra(f, g, max_pairs=max_pairs))


def extended_from_closure(
    data: DeformedSubalgebraData, stats: Stats | None = None
) -> ExtendedAlgebra:
    """R-tilde_{f+g} from the closure R_{f+g}.

    The table is filled from integer copies of the closure basis, which
    puts the unit first; closure guarantees that every product stays in
    its span.  stats counts table_products.
    """
    return _product_table(
        data.quotient, [_integral(b.terms) for b in data.basis],
        [PrimitiveClass(b, None) for b in data.basis], None, data.gb.nvars - 1,
        stats)


def verify_dimension_equality(
    f: Polynomial, g: Polynomial, max_pairs: int = 10**6
) -> dict:
    """{"dim_extended", "dim_deformed", "equal"}: dim R-tilde from the
    Hilbert data alone, dim R-tilde_{f+g} from the closure."""
    dim_extended = len(graded_shape(
        graded_quotient(f, max_pairs=max_pairs).r_dims))
    dim_deformed = deformed_subalgebra(
        f, g, max_pairs=max_pairs).dim + f.nvars - 1
    return {
        "dim_extended": dim_extended,
        "dim_deformed": dim_deformed,
        "equal": dim_extended == dim_deformed,
    }


def verify_algebra_laws(algebra: ExtendedAlgebra) -> dict:
    """Exhaustive unit/commutativity/associativity/grading checks.

    Associativity runs over all basis triples (i, j, k); on a commutative
    table the triple (k, j, i) checks the mirror identity, so only i <= k
    is enumerated there.  Returns a dict of booleans.
    """
    dim = algebra.dim
    products = algebra.products
    unit = algebra.unit_index

    unital = all(
        products[unit][b] == {b: Fraction(1)} for b in range(dim)
    ) and all(products[b][unit] == {b: Fraction(1)} for b in range(dim))

    commutative = all(
        products[i][j] == products[j][i] for i in range(dim) for j in range(i, dim)
    )

    def mul_row(row: dict[int, Fraction], k: int) -> dict[int, Fraction]:
        acc: dict[int, Fraction] = {}
        for x, c in row.items():
            _add_scaled(acc, c, products[x][k])
        return acc

    def row_mul(i: int, row: dict[int, Fraction]) -> dict[int, Fraction]:
        acc: dict[int, Fraction] = {}
        for z, c in row.items():
            _add_scaled(acc, c, products[i][z])
        return acc

    associative = True
    for i in range(dim):
        if not associative:
            break
        for j in range(dim):
            row_ij = products[i][j]
            for k in range(i if commutative else 0, dim):
                if not row_ij and not products[j][k]:
                    continue
                if mul_row(row_ij, k) != row_mul(i, products[j][k]):
                    associative = False
                    break
            if not associative:
                break

    graded_ok = True
    if algebra.grading is not None:
        deg = algebra.grading
        for i in range(dim):
            for j in range(dim):
                for x, c in products[i][j].items():
                    if c and deg[x] != deg[i] + deg[j]:
                        graded_ok = False

    return {
        "unital": unital,
        "commutative": commutative,
        "associative": associative,
        "graded_ok": graded_ok,
    }


def to_json_dict(algebra: ExtendedAlgebra) -> dict:
    """Serializable form: labels as strings, sparse product triples.

    Products are emitted for i <= j only (the table is commutative);
    coefficients as "num/den" strings.
    """
    triples = []
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            for x in sorted(algebra.products[i][j]):
                c = algebra.products[i][j][x]
                triples.append([i, j, x, f"{c.numerator}/{c.denominator}"])
    return {
        "dim": algebra.dim,
        "basis": [str(label) for label in algebra.basis_labels],
        "grading": list(algebra.grading) if algebra.grading is not None else None,
        "products": triples,
    }
