"""Polynomial arithmetic, ordering, and the text format."""

import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, strategies as st

from jmoduli import (
    ParseError,
    Polynomial,
    degrevlex_key,
    monomials_of_weight,
    parse_polynomial,
    render_polynomial,
)
from jmoduli.polys import MAX_NVARS


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


# (text, message, position) of each ParseError; the test id is the text
MALFORMED = [
    ("", "empty input", 0),
    ("   ", "empty input", 0),
    ("x", "variable needs an index", 0),
    ("x0 +", "expected a term", 3),
    ("* x0", "expected a coefficient or variable", 0),
    ("x0^", "unexpected end of input", 3),
    ("x0^x1", "expected an exponent", 3),
    ("1/0", "expected a nonzero denominator", 2),
    ("x0 x1", "expected '+' or '-'", 3),
    ("y0", "unexpected character 'y'", 0),
    ("2 ** x0", "expected a variable", 3),
    ("x0 + + x1", "expected a coefficient or variable", 5),
    # digits that str.isdigit() accepts and int() refuses
    ("x0^\u00b2", "unexpected character '\u00b2'", 3),
    ("\u00b2", "unexpected character '\u00b2'", 0),
    ("x\u00b2", "unexpected character '\u00b2'", 1),
]


@pytest.mark.parametrize("text,message,position", MALFORMED,
                         ids=[text for text, _, _ in MALFORMED])
def test_parse_rejects_malformed(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text)
    assert err.value.args == (f"{message} (at position {position})",)
    assert err.value.position == position


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0 + y1")
    assert err.value.position == 5


def test_parse_respects_explicit_arity():
    with pytest.raises(ParseError):
        parse_polynomial("x5", 3)


def test_parse_caps_the_arity():
    assert parse_polynomial(f"x{MAX_NVARS - 1}").nvars == MAX_NVARS
    assert parse_polynomial("x0", MAX_NVARS).nvars == MAX_NVARS
    for args in ((f"x{MAX_NVARS}",), ("x0", MAX_NVARS + 1)):
        with pytest.raises(ParseError) as err:
            parse_polynomial(*args)
        assert err.value.args == (
            f"nvars={MAX_NVARS + 1} exceeds the limit {MAX_NVARS} "
            "(at position 0)",)


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


def blank_strings(min_size=0):
    return st.text(alphabet=" \t\n", min_size=min_size, max_size=3)


@st.composite
def rendered_tokens(draw):
    """A polynomial in up to 13 variables, so indices and coefficients run to
    two digits, and the tokens of its canonical text."""
    nvars = draw(st.integers(min_value=1, max_value=13))
    mono = st.tuples(*[st.integers(min_value=0, max_value=12)] * nvars)
    coeff = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    p = Polynomial(nvars, draw(st.dictionaries(mono, coeff, max_size=4)))
    return p, re.findall(r"x\d+|\d+|\S", render_polynomial(p))


@given(rendered_tokens(), st.data())
def test_blanks_between_tokens_are_insignificant(case, data):
    p, tokens = case
    gaps = data.draw(st.lists(blank_strings(), min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    text = "".join(g + t for g, t in zip(gaps, tokens)) + gaps[-1]
    assert parse_polynomial(text, p.nvars) == p


@given(rendered_tokens(), st.data())
def test_a_blank_inside_a_token_is_an_error(case, data):
    p, tokens = case
    long = [i for i, t in enumerate(tokens) if len(t) > 1]
    assume(long)
    i = data.draw(st.sampled_from(long))
    cut = data.draw(st.integers(min_value=1, max_value=len(tokens[i]) - 1))
    split = tokens[i][:cut] + data.draw(blank_strings(1)) + tokens[i][cut:]
    with pytest.raises(ParseError):
        parse_polynomial(" ".join([*tokens[:i], split, *tokens[i + 1:]]), p.nvars)


# -- the sparse sums: S, T = S[y] and the wedge module F -----------------------


def _sums_in(kind, nvars, nu):
    """Two equal elements of the named class, built along different paths."""
    from jmoduli.dgla import FElement, TPolynomial

    x0, x1 = Polynomial.variable(nvars, 0), Polynomial.variable(nvars, 1)
    if kind == "Polynomial":
        return x0, (x0 + x1) - x1
    if kind == "TPolynomial":
        t = TPolynomial.monomial(nvars, nu, x0.leading_monomial(), 1)
        return t, TPolynomial.y(nvars, nu) * TPolynomial.from_s(x0, nu)
    d0, d1 = (FElement.word(nvars, nu, (i,)) for i in (0, 1))
    return d0, (d0.scale(2) + d1).scale(Fraction(1, 2)) - d1.scale(Fraction(1, 2))


@pytest.mark.parametrize("kind", ["Polynomial", "TPolynomial", "FElement"])
def test_sparse_sums_keep_their_semantics(kind):
    import operator

    from jmoduli.dgla import DerivationElement, FElement, TPolynomial

    a, b = _sums_in(kind, 3, 3)
    assert type(a).__name__ == type(b).__name__ == kind
    assert a == b and not a != b
    assert a + b == a.scale(2) and type(a + b) is type(a)
    assert (a - b).is_zero() and not a - b and -(-a) == a
    assert a.scale(0).is_zero() and bool(a)
    # operands from different rings: S by nvars, T and F by nvars and nu
    rings = [(4, 3)] if kind == "Polynomial" else [(4, 3), (3, 4)]
    for nvars, nu in rings:
        other = _sums_in(kind, nvars, nu)[0]
        assert a != other
        for op in (operator.add, operator.sub):
            with pytest.raises(ValueError):
                op(a, other)
    if kind == "Polynomial":
        paths = [a, b, Polynomial(3, {(1, 0, 0): Fraction(2, 2)}),
                 Polynomial.monomial((1, 0, 0)), parse_polynomial("x0", 3),
                 (a + a).scale(Fraction(1, 2)), -(-a)]
        assert all(p == a for p in paths)
        assert {hash(p) for p in paths} == {hash(a)} and len(set(paths)) == 1
        return
    with pytest.raises(TypeError):
        hash(a)
    if kind == "TPolynomial":
        f = FElement.from_t(a)
        assert a != f and f != a and not a == f
        return
    # an L view is an F element with one-letter words: equality compares
    # terms, and a sum stays a view only when both operands are views
    view = DerivationElement.x_direction(3, 3, 0)
    assert view == a and a == view
    with pytest.raises(TypeError):
        hash(view)
    for left, right in ((view, a), (a, view)):
        assert type(left + right) is FElement
        assert type(left - right) is FElement
    assert type(view + view) is DerivationElement
    assert type(view.scale(3)) is DerivationElement
    assert a != TPolynomial.constant(3, 3, 1)
