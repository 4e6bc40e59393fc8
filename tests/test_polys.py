"""Polynomial arithmetic, ordering, and the text format."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from jmoduli import (
    ParseError,
    Polynomial,
    RingContext,
    degrevlex_key,
    monomials_of_weight,
    parse_polynomial,
    render_polynomial,
)


def poly(text, nvars=None):
    return parse_polynomial(text, nvars)


# -- construction and basic queries -----------------------------------------


def test_zero_and_constant():
    z = Polynomial.zero(3)
    assert z.is_zero()
    assert not z
    assert z.total_degree() == -1
    c = Polynomial.constant(3, Fraction(5, 2))
    assert c.coefficient((0, 0, 0)) == Fraction(5, 2)
    assert c.total_degree() == 0


def test_variable_and_monomial():
    x1 = Polynomial.variable(3, 1)
    assert x1.terms == {(0, 1, 0): Fraction(1)}
    m = Polynomial.monomial((2, 0, 1), 7)
    assert m.coefficient((2, 0, 1)) == 7
    with pytest.raises(ValueError):
        Polynomial.variable(3, 3)


def test_zero_coefficients_dropped():
    p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p.coefficient((0, 1)) == 2


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        poly("x0", 2) + poly("x0 + x1 + x2", 3)


def test_partial_derivative():
    f = poly("x0^3 + x1^3 + x2^3", 3)
    assert f.partial_derivative(0) == poly("3*x0^2", 3)
    g = poly("x0^2*x1", 2)
    assert g.partial_derivative(0) == poly("2*x0*x1", 2)
    assert g.partial_derivative(1) == poly("x0^2", 2)
    assert Polynomial.constant(2, 3).partial_derivative(1).is_zero()


def test_homogeneity():
    assert poly("x0^3 + x1^2*x2").is_homogeneous()
    assert not poly("x0^3 + x1^2").is_homogeneous()
    assert Polynomial.zero(2).is_homogeneous()


# -- monomial order ----------------------------------------------------------


def test_degrevlex_grades_by_degree_first():
    assert degrevlex_key((2, 0, 0)) > degrevlex_key((0, 1, 0))


def test_degrevlex_tie_break():
    # among equal total degrees the smaller last exponent wins
    assert degrevlex_key((1, 1, 0)) > degrevlex_key((1, 0, 1))
    assert degrevlex_key((0, 2, 0)) > degrevlex_key((1, 0, 1))
    assert degrevlex_key((2, 0, 0)) > degrevlex_key((0, 2, 0))


def test_leading_monomial():
    p = poly("x0*x1 + x2^2", 3)
    assert p.leading_monomial() == (1, 1, 0)
    assert p.leading_coefficient() == 1
    with pytest.raises(ValueError):
        Polynomial.zero(2).leading_monomial()


def test_monic():
    p = poly("4*x0^2 + 2*x1", 2)
    q = p.monic()
    assert q.leading_coefficient() == 1
    assert q.coefficient((0, 1)) == Fraction(1, 2)


def test_monomials_of_weight():
    ms = monomials_of_weight(3, 2)
    assert len(ms) == 6
    assert ms == sorted(ms, key=degrevlex_key)
    assert monomials_of_weight(2, 0) == [(0, 0)]
    assert monomials_of_weight(3, -1) == []
    # binomial(w + n - 1, n - 1) many
    assert len(monomials_of_weight(4, 4)) == 35
    for nvars in range(1, 6):
        for weight in range(-1, 6):
            box = [m for m in product(range(weight + 1), repeat=nvars)
                   if sum(m) == weight]
            assert monomials_of_weight(nvars, weight) == sorted(
                box, key=degrevlex_key)


# -- arithmetic laws (randomized) --------------------------------------------

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
monos = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
polys = st.dictionaries(monos, coeffs, max_size=5).map(
    lambda d: Polynomial(2, d)
)


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys, polys)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys)
def test_additive_inverse(p):
    assert (p - p).is_zero()
    assert p + Polynomial.zero(2) == p


@given(polys)
def test_scale_matches_constant_multiplication(p):
    c = Fraction(3, 7)
    assert p.scale(c) == Polynomial.constant(2, c) * p


@given(polys)
def test_times_monomial_matches_multiplication(p):
    m = (1, 2)
    assert p.times_monomial(m, 5) == p * Polynomial.monomial(m, 5)


@given(polys, polys)
def test_derivative_is_leibniz(p, q):
    lhs = (p * q).partial_derivative(0)
    rhs = p.partial_derivative(0) * q + p * q.partial_derivative(0)
    assert lhs == rhs


# -- text format --------------------------------------------------------------


@pytest.mark.parametrize(
    "text,nvars,terms",
    [
        ("x0", None, {(1,): 1}),
        ("x0 + x1", None, {(1, 0): 1, (0, 1): 1}),
        ("x0^3 + x1^3 + x2^3", None, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}),
        ("2*x0*x1", None, {(1, 1): 2}),
        ("-x0^2 + 3", None, {(2,): -1, (0,): 3}),
        ("1/2*x0", None, {(1,): Fraction(1, 2)}),
        ("x0*x0", None, {(2,): 1}),
        ("7", None, {(0,): 7}),
        ("x0 - x0", None, {}),
        ("x2", 4, {(0, 0, 1, 0): 1}),
    ],
)
def test_parse_cases(text, nvars, terms):
    p = parse_polynomial(text, nvars)
    assert p.terms == {m: Fraction(c) for m, c in terms.items() if c}


def test_parse_infers_arity():
    assert parse_polynomial("x3").nvars == 4
    assert parse_polynomial("5").nvars == 1


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "x",
        "x0 +",
        "* x0",
        "x0^",
        "x0^x1",
        "1/0",
        "x0 x1",
        "y0",
        "2 ** x0",
        "x0 + + x1",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_polynomial(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0 + y1")
    assert err.value.position == 5


def test_parse_respects_explicit_arity():
    with pytest.raises(ParseError):
        parse_polynomial("x5", 3)


def test_render_examples():
    assert render_polynomial(Polynomial.zero(2)) == "0"
    assert render_polynomial(poly("x0^3+x1^3+x2^3")) == "x0^3 + x1^3 + x2^3"
    assert render_polynomial(poly("-2*x0 + 1/2", 1)) == "-2*x0 + 1/2"
    assert render_polynomial(poly("x1 - x0", 2)) == "-x0 + x1"


@given(polys)
def test_render_parse_roundtrip(p):
    if p.is_zero():
        assert parse_polynomial(render_polynomial(p), 2).is_zero()
    else:
        assert parse_polynomial(render_polynomial(p), 2) == p


# -- ring context --------------------------------------------------------------


def test_ring_context():
    ctx = RingContext(3, 3)
    assert ctx.is_calabi_yau
    assert ctx.socle_weight == 3
    quartic = RingContext(4, 4)
    assert quartic.socle_weight == 8
    assert not RingContext(3, 4).is_calabi_yau
    with pytest.raises(ValueError):
        RingContext(0, 1)
    with pytest.raises(ValueError):
        RingContext(2, 0)
