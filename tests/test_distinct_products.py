"""The closure and the product table form each distinct product once.

The oracles below are the per-pair loops that formed NF(v * m) for every
layer vector v and weight-nu monomial m, and NF(pa * pb) with its
expansion for every pair a <= b.  Their products are summed from the
quotient's memo rows term by term, without groebner.product_key, so a
wrong key cannot hide in both.  The memo rows are keyed by
standard-monomial index; a vector the closure accepts goes back to
monomials through quotient.standard.
"""

import dataclasses
from fractions import Fraction
from operator import add

import pytest

from jmoduli import (
    Polynomial,
    Span,
    deformed_subalgebra,
    monomials_of_weight,
    parse_polynomial,
    weight_of_or_none,
)
from jmoduli.extended import extended_from_closure
from jmoduli.linalg import _integral, _lowest, _over_lcm
from jmoduli.stats import Stats
from test_golden import CASES

QUARTIC = "x0^4 + x1^4 + x2^4 + x3^4"
INPUTS = [tuple(argv[1:]) for name, argv in CASES.items()
          if name.startswith("deform_")]
INPUTS.append((QUARTIC, "x0^2*x1^2*x2^2*x3^2"))
# x0^7 = x0^3 / 2 here, so a later layer repeats products of an earlier one
INPUTS.append((QUARTIC, "-x0^8"))


def per_pair_product(quotient, p, q):
    """NF(p * q) as an index row (r, den), one memo row per pair of terms."""
    return _over_lcm([(c * d, quotient.row(tuple(map(add, s, t))))
                      for s, c in p.items() for t, d in q.items()])


def closure_per_pair(quotient, nvars, nu):
    """(basis, generators_nf, stabilized_at, pairs) of the closure, every
    pair (v, m) of a layer reduced and offered to the layer span."""
    std = quotient.standard
    weight_nu = [{m: 1} for m in monomials_of_weight(nvars, nu)]
    unit = quotient.row((0,) * nvars)
    total_span = Span(len(std))
    total_span.add(unit[0])
    one = {std[i]: c for i, c in unit[0].items()}, unit[1]
    basis, layer, generators = [one], [one], []
    stabilized_at = k = pairs = 0
    while layer and k <= stabilized_at:
        k += 1
        layer_span = Span(len(std))
        next_layer = []
        for row, den in layer:
            pairs += len(weight_nu)
            for m in weight_nu:
                w, d = per_pair_product(quotient, row, m)
                if not w:
                    continue
                if layer_span.add(w):
                    v = {std[i]: c for i, c in w.items()}
                    next_layer.append(_lowest(v, d * den))
                    if total_span.add(w):
                        basis.append(next_layer[-1])
                        stabilized_at = k
        if k == 1:
            generators = next_layer
        layer = next_layer

    def polynomials(vectors):
        return tuple(Polynomial(nvars, {m: Fraction(c, den)
                                        for m, c in row.items()})
                     for row, den in vectors)

    return (polynomials(basis), polynomials(generators), stabilized_at,
            pairs)


def table_per_pair(quotient, basis, n):
    """The product table of R~ with every pair a <= b reduced and expanded."""
    index = quotient.index
    span = Span(len(index), track_original=True)
    for row, _ in basis:
        assert span.add({index[m]: c for m, c in row.items()})
    dim = len(basis) + n
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for e in range(len(basis), dim):
        table[0][e] = table[e][0] = {e: Fraction(1)}
    for b, (pb, db) in enumerate(basis):
        for a in range(b + 1):
            pa, da = basis[a]
            nf, den = per_pair_product(quotient, pa, pb)
            table[a][b] = table[b][a] = span.coordinates(nf, den * da * db)
    return table


def assert_table_matches(data, nvars):
    n = nvars - 1
    products = extended_from_closure(data).products
    want = table_per_pair(data.quotient,
                          [_integral(b.terms) for b in data.basis], n)
    assert products == want
    # each pair a <= b has a dict of its own
    cells = [id(products[a][b]) for b in range(data.dim) for a in range(b + 1)]
    assert len(set(cells)) == len(cells)


def deform_case(f_text, g_text):
    f = parse_polynomial(f_text)
    stats = Stats()
    g = parse_polynomial(g_text, f.nvars)
    return deformed_subalgebra(f, g, stats=stats), f, stats


@pytest.mark.parametrize("f_text,g_text", INPUTS)
def test_closure_and_table_match_the_per_pair_loops(f_text, g_text):
    data, f, stats = deform_case(f_text, g_text)
    assert closure_per_pair(data.quotient, f.nvars, weight_of_or_none(f)) == (
        data.basis, data.generators_nf, data.stabilized_at,
        stats.counters["closure_products"])
    assert_table_matches(data, f.nvars)


def test_table_on_multi_term_and_rescaled_rows():
    data, f, _ = deform_case(QUARTIC, "x0^8")
    b = list(data.basis)
    m = [next(iter(p.terms)) for p in b[:8]]
    # b1 * b5 = b2 * b3 as monomials: rescaled, the two products have the
    # same integer terms over the denominators 3 and 1
    assert tuple(map(add, m[1], m[5])) == tuple(map(add, m[2], m[3]))
    b[1] = b[1].scale(Fraction(2, 3))
    b[2] = b[2].scale(2)
    # two rows on the same monomials with different coefficients
    b[6], b[7] = b[6] + b[7], b[6] - b[7].scale(3)
    assert_table_matches(dataclasses.replace(data, basis=tuple(b)), f.nvars)
