"""Derivation algebra of S[y], its differential, and the wedge bracket."""

import random
from fractions import Fraction

import pytest

from jmoduli import RingContext, graded_quotient, parse_polynomial
from jmoduli.polys import Polynomial, monomials_of_weight
from jmoduli.dgla import (
    DEL,
    E,
    DerivationElement,
    FElement,
    TPolynomial,
    TruncationError,
    bracket_L,
    cohomology_dims,
    cohomology_report,
    d_f_apply,
    d_f_apply_F,
    graded_piece,
    render_derivation,
    render_f_element,
    render_t_polynomial,
    schouten_bracket_F,
    verify_shifted_differential,
)

CUBIC = parse_polynomial("x0^3 + x1^3 + x2^3")
QUARTIC = parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4")


def t_mono(nvars, nu, mono, yexp=0, coeff=1):
    return TPolynomial.monomial(nvars, nu, mono, yexp, coeff)


# ---------------------------------------------------------------------------
# the coefficient ring


def test_t_arithmetic():
    t = TPolynomial.from_s(parse_polynomial("x0^2 + 2*x1", nvars=3), 3)
    y = TPolynomial.y(3, 3)
    prod = t * y
    assert prod.terms == {((2, 0, 0), 1): Fraction(1), ((0, 1, 0), 1): Fraction(2)}
    assert (prod - prod).is_zero()
    assert prod.scale(Fraction(1, 2)).terms[((2, 0, 0), 1)] == Fraction(1, 2)


def test_t_partials():
    t = t_mono(3, 3, (2, 1, 0), 2)
    assert t.partial_x(0) == t_mono(3, 3, (1, 1, 0), 2, 2)
    assert t.partial_x(2).is_zero()
    assert t.partial_y() == t_mono(3, 3, (2, 1, 0), 1, 2)


def test_t_weight_and_degree():
    t = t_mono(3, 3, (1, 0, 0), 1)  # x0 * y, weight 1 + 3
    assert t.weight_or_none() == 4
    assert t.degree_or_none() == -1
    mixed = t + t_mono(3, 3, (2, 0, 0), 0)
    assert mixed.weight_or_none() is None
    assert mixed.degree_or_none() is None


def test_t_weight_scaled():
    t = t_mono(3, 3, (1, 0, 0)) + TPolynomial.y(3, 3)
    scaled = t.weight_scaled()
    assert scaled == t_mono(3, 3, (1, 0, 0)) + TPolynomial.y(3, 3).scale(3)


def test_t_round_trip_s():
    p = parse_polynomial("x0^2*x1 - 5*x2^3", nvars=3)
    assert TPolynomial.from_s(p, 3).to_s() == p
    with pytest.raises(ValueError):
        TPolynomial.y(3, 3).to_s()


def test_t_render():
    t = t_mono(3, 3, (2, 0, 0), 0, 3) - TPolynomial.y(3, 3, 2).scale(2)
    assert render_t_polynomial(t) == "-2*y^2 + 3*x0^2"
    assert render_t_polynomial(TPolynomial.zero(3, 3)) == "0"


# ---------------------------------------------------------------------------
# first-order elements and their bracket


def test_derivation_constructors_and_grading():
    d0 = DerivationElement.x_direction(3, 3, 0)
    assert d0.degree_or_none() == 0
    assert d0.weight_or_none() == -1
    ydel = DerivationElement.y_direction(3, 3, TPolynomial.y(3, 3))
    assert ydel.degree_or_none() == 0
    assert ydel.weight_or_none() == 0
    e = DerivationElement.scaling(3, 3)
    assert e.degree_or_none() == -1
    assert e.weight_or_none() == 0
    bare_del = DerivationElement.y_direction(3, 3)
    assert bare_del.degree_or_none() == 1
    assert bare_del.weight_or_none() == -3


def test_derivation_action_on_t():
    v = DerivationElement.x_direction(3, 3, 0, t_mono(3, 3, (1, 0, 0)))
    t = t_mono(3, 3, (2, 0, 0))
    assert v.apply_to(t) == t_mono(3, 3, (2, 0, 0), 0, 2)  # x0 d0(x0^2)
    with pytest.raises(ValueError):
        DerivationElement.scaling(3, 3).apply_to(t)


def test_bracket_basic_values():
    d0 = DerivationElement.x_direction(3, 3, 0)
    x0d1 = DerivationElement.x_direction(3, 3, 1, t_mono(3, 3, (1, 0, 0)))
    assert bracket_L(d0, x0d1) == DerivationElement.x_direction(3, 3, 1)
    e = DerivationElement.scaling(3, 3)
    assert bracket_L(e, d0) == -d0
    assert bracket_L(d0, e) == -d0  # the weight rule is symmetric
    ydel = DerivationElement.y_direction(3, 3, TPolynomial.y(3, 3))
    assert bracket_L(ydel, ydel).is_zero()
    assert bracket_L(e, e).is_zero()


def rand_t(rng, nvars, nu, max_terms=2):
    t = TPolynomial.zero(nvars, nu)
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        t = t + t_mono(nvars, nu, mono, rng.randint(0, 2),
                       Fraction(rng.randint(-3, 3)))
    return t


def rand_derivation(rng, nvars, nu):
    z = TPolynomial.zero(nvars, nu)
    parts = [z] * nvars
    parts[rng.randrange(nvars)] = rand_t(rng, nvars, nu)
    return DerivationElement(nvars, nu, tuple(parts),
                             rand_t(rng, nvars, nu),
                             Polynomial.zero(nvars))


def test_bracket_is_the_operator_commutator():
    rng = random.Random(7)
    for _ in range(15):
        a = rand_derivation(rng, 3, 3)
        b = rand_derivation(rng, 3, 3)
        t = rand_t(rng, 3, 3)
        direct = bracket_L(a, b).apply_to(t)
        via_ops = a.apply_to(b.apply_to(t)) - b.apply_to(a.apply_to(t))
        assert direct == via_ops


def test_bracket_antisymmetry_and_jacobi_without_e():
    rng = random.Random(11)
    for _ in range(12):
        a = rand_derivation(rng, 3, 3)
        b = rand_derivation(rng, 3, 3)
        c = rand_derivation(rng, 3, 3)
        assert (bracket_L(a, b) + bracket_L(b, a)).is_zero()
        jac = (bracket_L(a, bracket_L(b, c))
               - bracket_L(bracket_L(a, b), c)
               - bracket_L(b, bracket_L(a, c)))
        assert jac.is_zero()


def test_bracket_e_is_a_weight_derivation():
    # [e, [a, b]] = [[e, a], b] + [a, [e, b]] for weight-homogeneous a, b
    e = DerivationElement.scaling(3, 3)
    a = DerivationElement.x_direction(3, 3, 0, t_mono(3, 3, (0, 2, 0)))
    b = DerivationElement.y_direction(3, 3, t_mono(3, 3, (1, 0, 0), 1))
    lhs = bracket_L(e, bracket_L(a, b))
    rhs = bracket_L(bracket_L(e, a), b) + bracket_L(a, bracket_L(e, b))
    assert lhs == rhs


def test_bracket_e_error_contract():
    e = DerivationElement.scaling(3, 3)
    mixed = (DerivationElement.x_direction(3, 3, 0)
             + DerivationElement.x_direction(3, 3, 1, t_mono(3, 3, (1, 0, 0))))
    with pytest.raises(ValueError):
        bracket_L(e, mixed)
    x0e = DerivationElement.scaling(3, 3, parse_polynomial("x0", nvars=3))
    with pytest.raises(ValueError):
        bracket_L(x0e, DerivationElement.x_direction(3, 3, 0))


# ---------------------------------------------------------------------------
# the differential on first-order elements


def test_differential_generator_table():
    nv, nu = 3, 3
    yd0 = DerivationElement.x_direction(nv, nu, 0, TPolynomial.y(nv, nu))
    image = d_f_apply(yd0, CUBIC)
    f_t = TPolynomial.from_s(CUBIC, nu)
    f0 = TPolynomial.from_s(CUBIC.partial_derivative(0), nu)
    want = (DerivationElement.x_direction(nv, nu, 0, f_t)
            - DerivationElement.y_direction(nv, nu, f0 * TPolynomial.y(nv, nu)))
    assert image == want

    d0 = DerivationElement.x_direction(nv, nu, 0)
    assert d_f_apply(d0, CUBIC) == DerivationElement.y_direction(nv, nu, f0)

    ydel = DerivationElement.y_direction(nv, nu, TPolynomial.y(nv, nu))
    assert d_f_apply(ydel, CUBIC) == DerivationElement.y_direction(nv, nu, f_t)

    bare_del = DerivationElement.y_direction(nv, nu)
    assert d_f_apply(bare_del, CUBIC).is_zero()

    e = DerivationElement.scaling(nv, nu)
    euler = DerivationElement.zero(nv, nu)
    for k in range(nv):
        mono = tuple(1 if i == k else 0 for i in range(nv))
        euler = euler + DerivationElement.x_direction(nv, nu, k,
                                                      t_mono(nv, nu, mono))
    want = euler - DerivationElement.y_direction(
        nv, nu, TPolynomial.y(nv, nu).scale(nu))
    assert d_f_apply(e, CUBIC) == want


def test_differential_raises_degree_preserves_weight():
    v = DerivationElement.x_direction(3, 3, 1, t_mono(3, 3, (0, 2, 1), 1))
    image = d_f_apply(v, CUBIC)
    assert v.degree_or_none() == -1 and image.degree_or_none() == 0
    assert image.weight_or_none() == v.weight_or_none()


def test_differential_squares_to_zero_everywhere():
    # includes coefficients with y^2, outside the enumerated pieces
    rng = random.Random(3)
    for _ in range(10):
        v = rand_derivation(rng, 3, 3)
        assert d_f_apply(d_f_apply(v, CUBIC), CUBIC).is_zero()
    e_img = d_f_apply(DerivationElement.scaling(3, 3), CUBIC)
    assert d_f_apply(e_img, CUBIC).is_zero()


def test_differential_rejects_bad_f():
    v = DerivationElement.x_direction(3, 3, 0)
    with pytest.raises(ValueError):
        d_f_apply(v, parse_polynomial("x0^2", nvars=3))  # weight 2, not nu
    with pytest.raises(ValueError):
        d_f_apply(v, Polynomial.zero(3))


# ---------------------------------------------------------------------------
# graded pieces and cohomology


def test_graded_piece_examples():
    assert graded_piece(CUBIC, 1, -3).dimension == 1
    assert graded_piece(CUBIC, -1, 0).dimension == 1
    assert graded_piece(CUBIC, 0, 0).dimension == 10


def test_graded_piece_shape_counts():
    # degree 0, weight w: nvars * #monos(w+1) + #monos(w)
    for w in range(0, 4):
        n1 = len(monomials_of_weight(3, w + 1))
        n0 = len(monomials_of_weight(3, w))
        assert graded_piece(CUBIC, 0, w).dimension == 3 * n1 + n0
    assert graded_piece(CUBIC, 2, 0).dimension == 0
    assert graded_piece(CUBIC, -1, -1).dimension == 0


def test_graded_piece_is_a_subcomplex():
    # images of basis elements stay inside the enumerated next piece;
    # cohomology_report would raise if they did not
    for w in range(-6, 7):
        for d in (-1, 0, 1):
            cohomology_report(CUBIC, d, w)


def test_cohomology_examples():
    assert cohomology_dims(CUBIC, 1, -3) == 1
    assert cohomology_dims(CUBIC, -1, 0) == 0
    assert cohomology_dims(CUBIC, 1, 0) == 1


def test_cohomology_matches_hilbert_series():
    data = graded_quotient(CUBIC, RingContext(3, 3))
    for w in range(-6, 7):
        assert cohomology_dims(CUBIC, -1, w) == 0
        want = data.hilbert[w + 3] if 0 <= w + 3 < len(data.hilbert) else 0
        assert cohomology_dims(CUBIC, 1, w) == want


def test_cohomology_report_fields():
    report = cohomology_report(CUBIC, 1, -3)
    assert report == {"dim_piece": 1, "dim_ker": 1, "dim_im_in": 0, "h_dim": 1}


def test_passed_deadline_stops_the_cohomology():
    import time

    from jmoduli import BudgetExceeded

    with pytest.raises(BudgetExceeded, match="graded pieces"):
        cohomology_report(QUARTIC, 0, 4, deadline=time.perf_counter() - 1)


# ---------------------------------------------------------------------------
# oracles: the first-order pieces, differential and bracket written
# generator by generator on the parts (xi_parts, del_part, e_part) in T
# arithmetic; L, as the one-letter slice of F, must agree with them


def oracle_l_piece(f, degree, weight):
    """Basis of L^(degree, weight) from the five generator shapes."""
    nvars, nu = f.nvars, sum(next(iter(f.terms)))
    basis = []
    if degree == -1:
        if weight == 0:
            basis.append(DerivationElement.scaling(nvars, nu))
        for i in range(nvars):
            for mono in monomials_of_weight(nvars, weight - nu + 1):
                basis.append(DerivationElement.x_direction(
                    nvars, nu, i, t_mono(nvars, nu, mono, 1)))
    elif degree == 0:
        for i in range(nvars):
            for mono in monomials_of_weight(nvars, weight + 1):
                basis.append(DerivationElement.x_direction(
                    nvars, nu, i, t_mono(nvars, nu, mono)))
        for mono in monomials_of_weight(nvars, weight):
            basis.append(DerivationElement.y_direction(
                nvars, nu, t_mono(nvars, nu, mono, 1)))
    elif degree == 1:
        for mono in monomials_of_weight(nvars, weight + nu):
            basis.append(DerivationElement.y_direction(
                nvars, nu, t_mono(nvars, nu, mono)))
    return basis


def oracle_act(v, t):
    out = TPolynomial.zero(v.nvars, v.nu)
    for i, c in enumerate(v.xi_parts):
        if c:
            out = out + c * t.partial_x(i)
    if v.del_part:
        out = out + v.del_part * t.partial_y()
    return out


def oracle_d_f(v, f):
    """d_f on xi * d + del_part * del + e_part * e, generator by generator."""
    nvars, nu = v.nvars, v.nu
    partials = [TPolynomial.from_s(f.partial_derivative(i), nu)
                for i in range(nvars)]
    f_t = TPolynomial.from_s(f, nu)
    z = TPolynomial.zero(nvars, nu)
    xi_out = [z] * nvars
    del_out = z
    for i, c in enumerate(v.xi_parts):
        for (mono, yexp), coeff in c.terms.items():
            if yexp % 2:
                xi_out[i] = xi_out[i] + f_t * t_mono(nvars, nu, mono,
                                                     yexp - 1, coeff)
            sign = -1 if yexp % 2 else 1
            del_out = del_out + partials[i] * t_mono(nvars, nu, mono, yexp,
                                                     coeff * sign)
    for (mono, yexp), coeff in v.del_part.terms.items():
        if yexp % 2:
            del_out = del_out + f_t * t_mono(nvars, nu, mono, yexp - 1, coeff)
    if not v.e_part.is_zero():
        h = TPolynomial.from_s(v.e_part, nu)
        for k in range(nvars):
            xk = t_mono(nvars, nu, tuple(int(i == k) for i in range(nvars)))
            xi_out[k] = xi_out[k] + h * xk
        del_out = del_out + (h * TPolynomial.y(nvars, nu)).scale(-nu)
    return DerivationElement(nvars, nu, tuple(xi_out), del_out,
                             Polynomial.zero(nvars))


def oracle_bracket(a, b):
    """Commutator of the derivation parts plus the weight rule for e."""
    nvars, nu = a.nvars, a.nu
    zero_e = Polynomial.zero(nvars)

    def e_scalar(v):
        if v.e_part.is_zero():
            return Fraction(0)
        assert set(v.e_part.terms) == {(0,) * nvars}
        return v.e_part.coefficient((0,) * nvars)

    a_der = DerivationElement(nvars, nu, a.xi_parts, a.del_part, zero_e)
    b_der = DerivationElement(nvars, nu, b.xi_parts, b.del_part, zero_e)
    xi_out = tuple(oracle_act(a_der, b_der.xi_parts[j])
                   - oracle_act(b_der, a_der.xi_parts[j])
                   for j in range(nvars))
    del_out = (oracle_act(a_der, b_der.del_part)
               - oracle_act(b_der, a_der.del_part))
    result = DerivationElement(nvars, nu, xi_out, del_out, zero_e)
    for c, other in ((e_scalar(a), b_der), (e_scalar(b), a_der)):
        if c and not other.is_zero():
            result = result + other.scale(c * other.weight_or_none())
    return result


ORACLE_FORMS = {
    "cubic": (CUBIC, 770),
    "quartic": (QUARTIC, 5680),
    "quartic-x0x1x2x3": (
        parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3"), 5680),
    # den = 2: the differential clears it and divides it back out
    "cubic-rational": (parse_polynomial("x0^3 + x1^3 + x2^3 - 3/2*x0*x1*x2"), 770),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FORMS))
def test_l_calculus_matches_oracles(name):
    f, count = ORACLE_FORMS[name]
    nu = f.nvars
    basis = []
    for degree in (-1, 0, 1):
        for weight in range(-2 * nu, 2 * nu + 1):
            piece = graded_piece(f, degree, weight)
            want = oracle_l_piece(f, degree, weight)
            assert sorted(map(render_derivation, piece.basis)) == sorted(
                map(render_derivation, want))
            basis.extend(piece.basis)
    assert len(basis) == count
    for v in basis:
        assert d_f_apply(v, f) == oracle_d_f(v, f), render_derivation(v)
    rng = random.Random(20261018)
    for _ in range(600):
        a, b = rng.choice(basis), rng.choice(basis)
        assert bracket_L(a, b) == oracle_bracket(a, b), (a, b)


# ---------------------------------------------------------------------------
# wedge words


def test_word_canonicalization():
    nv, nu = 4, 4
    a = FElement.word(nv, nu, (1, 0))
    b = FElement.word(nv, nu, (0, 1))
    assert a == -b
    assert FElement.word(nv, nu, (0, 0)).is_zero()  # repeated odd letter
    assert FElement.word(nv, nu, (DEL, 0)) == FElement.word(nv, nu, (0, DEL))


def test_del_squares_do_not_vanish():
    nv, nu = 4, 4
    deldel = FElement.word(nv, nu, (DEL, DEL))
    assert not deldel.is_zero()
    assert deldel.degree_or_none() == 4
    assert deldel.weight_or_none() == -8


def test_wedge_products():
    nv, nu = 4, 4
    d0 = FElement.word(nv, nu, (0,))
    d1 = FElement.word(nv, nu, (1,))
    assert d0.wedge(d1) == -d1.wedge(d0)
    assert d0.wedge(d0).is_zero()
    t = FElement.from_t(t_mono(nv, nu, (1, 0, 0, 0)))
    assert t.wedge(d0) == FElement.word(nv, nu, (0,), t_mono(nv, nu, (1, 0, 0, 0)))


def test_word_length_cap():
    with pytest.raises(TruncationError):
        FElement.word(3, 3, (0, 1))  # cap is 1 for three variables
    d0 = FElement.word(4, 4, (0,))
    d1 = FElement.word(4, 4, (1,))
    d2 = FElement.word(4, 4, (2,))
    with pytest.raises(TruncationError):
        d0.wedge(d1).wedge(d2)


def test_f_grading():
    nv, nu = 4, 4
    term = FElement.word(nv, nu, (0, DEL), t_mono(nv, nu, (2, 0, 0, 0), 1))
    # fdeg 1 + 2 minus y-exponent 1; weight 2 + nu - 1 - nu
    assert term.degree_or_none() == 2
    assert term.weight_or_none() == 1
    assert FElement.word(nv, nu, (E,)).degree_or_none() == 0


def test_f_renders():
    nv, nu = 3, 3
    gt = t_mono(nv, nu, (2, 0, 0), 0, 3)
    assert render_f_element(FElement.word(nv, nu, (DEL,), gt)) == "3*x0^2*del"
    assert render_f_element(
        FElement.word(nv, nu, (0,), TPolynomial.y(nv, nu))) == "y*d0"
    assert render_f_element(FElement.word(nv, nu, (E,))) == "e"
    assert render_f_element(FElement.zero(nv, nu)) == "0"


def test_f_pieces_enumeration():
    # F^0 pieces are spans of x^a y^b with b pinned by the degree
    piece = graded_piece(QUARTIC, -1, 5, "F0")  # b = 1, |a| = 1
    assert piece.dimension == 4
    piece = graded_piece(QUARTIC, 0, 2, "F0")  # b = 0, |a| = 2
    assert piece.dimension == 10
    # the scalar e line sits in F1 at degree 0, weight 0
    piece = graded_piece(QUARTIC, 0, 0, "F1")
    assert piece.dimension == 1
    assert render_f_element(piece.basis[0]) == "e"
    # no mixed e-words anywhere
    big = graded_piece(QUARTIC, 1, 3, "F2")
    assert all(E not in key[0]
               for b in big.basis for key in b.terms)
    with pytest.raises(ValueError):
        graded_piece(QUARTIC, 0, 0, "F7")


# ---------------------------------------------------------------------------
# the differential on wedge words


def test_f_differential_restricts_to_l():
    nv, nu = 3, 3
    pairs = [
        (DerivationElement.x_direction(nv, nu, 0, TPolynomial.y(nv, nu)),
         FElement.word(nv, nu, (0,), TPolynomial.y(nv, nu))),
        (DerivationElement.x_direction(nv, nu, 1),
         FElement.word(nv, nu, (1,))),
        (DerivationElement.y_direction(nv, nu, TPolynomial.y(nv, nu)),
         FElement.word(nv, nu, (DEL,), TPolynomial.y(nv, nu))),
        (DerivationElement.scaling(nv, nu),
         FElement.word(nv, nu, (E,))),
    ]

    def embed(v):
        out = FElement.zero(nv, nu)
        for i, t in enumerate(v.xi_parts):
            if t:
                out = out + FElement.word(nv, nu, (i,), t)
        if v.del_part:
            out = out + FElement.word(nv, nu, (DEL,), v.del_part)
        if v.e_part:
            out = out + FElement.word(
                nv, nu, (E,), TPolynomial.from_s(v.e_part, nu))
        return out

    for v, a in pairs:
        assert embed(v) == a
        assert embed(d_f_apply(v, CUBIC)) == d_f_apply_F(a, CUBIC)


def test_l_views_mixed_with_longer_words_are_f_elements():
    d0 = DerivationElement.x_direction(4, 4, 0)
    d01 = FElement.word(4, 4, (0, 1))
    assert type(d0 + d0) is DerivationElement
    assert type(d0 + d01) is FElement and type(d01 + d0) is FElement
    assert type(schouten_bracket_F(d0, d01)) is FElement
    assert type(d_f_apply(d0, QUARTIC)) is DerivationElement


def test_f_differential_coefficient_rule():
    nv, nu = 3, 3
    # d(y) = f on the empty word
    a = FElement.from_t(TPolynomial.y(nv, nu))
    assert d_f_apply_F(a, CUBIC) == FElement.from_t(TPolynomial.from_s(CUBIC, nu))
    # d(y^2) = 0
    a = FElement.from_t(TPolynomial.y(nv, nu, 2))
    assert d_f_apply_F(a, CUBIC).is_zero()


def test_f_differential_squares_to_zero_on_pieces():
    total = 0
    for deg in (-1, 0, 1, 2):
        for wt in (-4, -1, 0, 1, 3, 4):
            for k in (0, 1, 2):
                piece = graded_piece(QUARTIC, deg, wt, f"F{k}")
                for b in piece.basis:
                    total += 1
                    dd = d_f_apply_F(d_f_apply_F(b, QUARTIC), QUARTIC)
                    assert dd.is_zero(), render_f_element(b)
    assert total > 300


def test_f_differential_raises_degree_preserves_weight():
    nv, nu = 4, 4
    a = FElement.word(nv, nu, (0, DEL), t_mono(nv, nu, (1, 1, 0, 0), 1))
    image = d_f_apply_F(a, QUARTIC)
    assert image.degree_or_none() == a.degree_or_none() + 1
    assert image.weight_or_none() == a.weight_or_none()


# ---------------------------------------------------------------------------
# the odd bracket


def test_schouten_restricts_to_the_derivation_bracket():
    nv, nu = 3, 3
    cases = [
        ((0,), t_mono(nv, nu, (1, 1, 0)), (1,), t_mono(nv, nu, (0, 0, 2))),
        ((0,), TPolynomial.y(nv, nu), (DEL,), t_mono(nv, nu, (1, 0, 0))),
        ((DEL,), TPolynomial.y(nv, nu), (DEL,), TPolynomial.y(nv, nu)),
    ]
    for wa, ta, wb, tb in cases:
        a_l = (DerivationElement.x_direction(nv, nu, wa[0], ta)
               if isinstance(wa[0], int)
               else DerivationElement.y_direction(nv, nu, ta))
        b_l = (DerivationElement.x_direction(nv, nu, wb[0], tb)
               if isinstance(wb[0], int)
               else DerivationElement.y_direction(nv, nu, tb))
        got = schouten_bracket_F(FElement.word(nv, nu, wa, ta),
                                 FElement.word(nv, nu, wb, tb))
        want = bracket_L(a_l, b_l)
        want_f = FElement.zero(nv, nu)
        for i, t in enumerate(want.xi_parts):
            if t:
                want_f = want_f + FElement.word(nv, nu, (i,), t)
        if want.del_part:
            want_f = want_f + FElement.word(nv, nu, (DEL,), want.del_part)
        assert got == want_f


def test_schouten_e_rule():
    nv, nu = 3, 3
    e = FElement.word(nv, nu, (E,))
    d0 = FElement.word(nv, nu, (0,))
    assert schouten_bracket_F(e, d0) == -d0
    assert schouten_bracket_F(d0, e) == -d0
    assert schouten_bracket_F(e, e).is_zero()
    # against a bare coefficient e acts termwise by total weight
    t = FElement.from_t(t_mono(nv, nu, (2, 0, 0)) + TPolynomial.y(nv, nu))
    want = FElement.from_t(
        t_mono(nv, nu, (2, 0, 0), 0, 2) + TPolynomial.y(nv, nu).scale(3))
    assert schouten_bracket_F(e, t) == want
    x0e = FElement.word(nv, nu, (E,), t_mono(nv, nu, (1, 0, 0)))
    with pytest.raises(ValueError):
        schouten_bracket_F(x0e, d0)


def test_schouten_evaluation_on_coefficients():
    nv, nu = 3, 3
    g = FElement.from_t(t_mono(nv, nu, (2, 0, 0)))
    d0 = FElement.word(nv, nu, (0,))
    assert schouten_bracket_F(d0, g) == FElement.from_t(t_mono(nv, nu, (1, 0, 0), 0, 2))
    assert schouten_bracket_F(g, d0) == FElement.from_t(t_mono(nv, nu, (1, 0, 0), 0, -2))
    assert schouten_bracket_F(g, g).is_zero()


FIVE_LETTER_CASES = [
    ("cubic", CUBIC, "x0*x1*x2", 1),
    ("quartic", QUARTIC, "x0^2*x1*x3 + 2*x1^4 - x2^2*x3^2", 1),
    ("quartic", QUARTIC, "x0^4*x1^2*x2^2 + 3*x1^3*x2^3*x3^2", 2),
]


@pytest.mark.parametrize("name,f,g_text,p", FIVE_LETTER_CASES,
                         ids=["cubic-p1", "quartic-p1", "quartic-p2"])
def test_bracket_against_generators_closed_forms(name, f, g_text, p):
    """The computed increments of [g del^p, -] on the five generators.

    The y d_i and y del rows carry a combinatorial factor p on their
    leading piece, and the d_i row is minus the partial derivative.
    """
    nv = f.nvars
    nu = nv
    g = parse_polynomial(g_text, nvars=nv)
    g_t = TPolynomial.from_s(g, nu)
    gp = FElement.word(nv, nu, (DEL,) * p, g_t)
    one = TPolynomial.constant(nv, nu, 1)
    y = TPolynomial.y(nv, nu)

    for i in range(nv):
        gi = TPolynomial.from_s(g.partial_derivative(i), nu)
        got = schouten_bracket_F(gp, FElement.word(nv, nu, (i,), y))
        want = (FElement.word(nv, nu, (i,) + (DEL,) * (p - 1), g_t).scale(p)
                - FElement.word(nv, nu, (DEL,) * p, gi * y))
        assert got == want
        got = schouten_bracket_F(gp, FElement.word(nv, nu, (i,), one))
        assert got == FElement.word(nv, nu, (DEL,) * p, gi).scale(-1)
    got = schouten_bracket_F(gp, FElement.word(nv, nu, (DEL,), y))
    assert got == FElement.word(nv, nu, (DEL,) * p, g_t).scale(p)
    assert schouten_bracket_F(gp, FElement.word(nv, nu, (DEL,), one)).is_zero()
    assert schouten_bracket_F(gp, FElement.word(nv, nu, (E,), one)).is_zero()


@pytest.mark.parametrize("name,f,g_text,p", FIVE_LETTER_CASES,
                         ids=["cubic-p1", "quartic-p1", "quartic-p2"])
def test_verify_shifted_differential_is_honest(name, f, g_text, p):
    # the closed forms above differ from the increment table the
    # comparison targets, so nonzero deformations never verify
    g = parse_polynomial(g_text, nvars=f.nvars)
    assert verify_shifted_differential(f, g, p) is False


def test_verify_shifted_differential_edge_cases():
    assert verify_shifted_differential(CUBIC, Polynomial.zero(3), 1) is True
    assert verify_shifted_differential(CUBIC, Polynomial.zero(3), 2) is True
    with pytest.raises(TruncationError):
        # del^2 needs words of length 2; three variables cap at 1
        verify_shifted_differential(
            CUBIC, parse_polynomial("x0^3*x1^3", nvars=3), 2)
    with pytest.raises(ValueError):
        verify_shifted_differential(CUBIC, parse_polynomial("x0^2", nvars=3), 1)
    with pytest.raises(ValueError):
        verify_shifted_differential(CUBIC, parse_polynomial("x0^3", nvars=3), 0)


# ---------------------------------------------------------------------------
# identity inventory for the odd bracket
#
# On words free of the del letter the bracket is the classical
# multivector calculus over S[y]: shifted antisymmetry, the shifted
# Jacobi identity and the odd Poisson rule all hold with signs driven
# by word length.  Words containing del braid evenly (del repeats
# instead of cancelling) and genuinely fall outside these sign laws.


def rand_word_term(rng, nvars, nu, length, allow_del):
    letters = []
    pool = list(range(nvars))
    for _ in range(length):
        if allow_del and rng.random() < 0.4:
            letters.append(DEL)
        else:
            letters.append(pool.pop(rng.randrange(len(pool))))
    mono = tuple(rng.randint(0, 1) for _ in range(nvars))
    coeff = t_mono(nvars, nu, mono, rng.randint(0, 2),
                   Fraction(rng.randint(1, 4)))
    return FElement.word(nvars, nu, tuple(letters), coeff)


def lgerst_antisym_defect(a, b, la, lb):
    sign = -1 if ((la - 1) * (lb - 1)) % 2 else 1
    return schouten_bracket_F(a, b) + schouten_bracket_F(b, a).scale(sign)


def lgerst_jacobi_defect(a, b, c, la, lb):
    sign = -1 if ((la - 1) * (lb - 1)) % 2 else 1
    return (schouten_bracket_F(a, schouten_bracket_F(b, c))
            - schouten_bracket_F(schouten_bracket_F(a, b), c)
            - schouten_bracket_F(b, schouten_bracket_F(a, c)).scale(sign))


def poisson_defect(a, b, c, la, lb):
    sign = -1 if ((la + 1) * lb) % 2 else 1
    return (schouten_bracket_F(a, b.wedge(c))
            - schouten_bracket_F(a, b).wedge(c)
            - b.wedge(schouten_bracket_F(a, c)).scale(sign))


def test_classical_identities_on_del_free_words():
    rng = random.Random(20260816)
    nv, nu = 5, 5  # cap 3 leaves room for longer words
    checked = 0
    while checked < 100:
        la, lb, lc = (rng.randint(0, 2) for _ in range(3))
        if la + lb + lc > 4 or max(la + lb, lb + lc, la + lc) > 3:
            continue
        a = rand_word_term(rng, nv, nu, la, allow_del=False)
        b = rand_word_term(rng, nv, nu, lb, allow_del=False)
        c = rand_word_term(rng, nv, nu, lc, allow_del=False)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        assert lgerst_antisym_defect(a, b, la, lb).is_zero()
        assert lgerst_jacobi_defect(a, b, c, la, lb).is_zero()
        if lb + lc <= 3 and la <= 2:
            assert poisson_defect(a, b, c, la, lb).is_zero()
        checked += 1


def test_identities_genuinely_fail_with_del():
    nv, nu = 5, 5
    y = TPolynomial.y(nv, nu)
    a = FElement.word(nv, nu, (0,), y)
    b = FElement.word(nv, nu, (1,), y)
    c = FElement.word(nv, nu, (DEL, DEL))
    assert not lgerst_jacobi_defect(a, b, c, 1, 1).is_zero()
    d = FElement.word(nv, nu, (0, DEL))
    x0d = FElement.word(nv, nu, (0, DEL), t_mono(nv, nu, (1, 0, 0, 0, 0)))
    assert not lgerst_antisym_defect(d, x0d, 2, 2).is_zero()


def test_bare_letters_are_wedge_derivations():
    # a single letter with unit coefficient satisfies the Leibniz rule
    # in the second slot against arbitrary words, del included; a
    # nonconstant coefficient on the letter already breaks this off the
    # del-free class, and e does not share it (its rule is symmetric,
    # not graded)
    nv, nu = 5, 5
    rng = random.Random(5)
    checked = 0
    while checked < 30:
        letter = rng.choice(list(range(nv)) + [DEL])
        a = FElement.word(nv, nu, (letter,))
        b = rand_word_term(rng, nv, nu, 1, allow_del=True)
        c = rand_word_term(rng, nv, nu, rng.randint(1, 2), allow_del=True)
        if b.is_zero() or c.is_zero():
            continue
        assert poisson_defect(a, b, c, 1, 1).is_zero()
        checked += 1
    coeff = t_mono(nv, nu, (0, 1, 0, 0, 1), 1, 2)
    a = FElement.word(nv, nu, (1,), coeff)
    b = FElement.word(nv, nu, (DEL,), t_mono(nv, nu, (1, 1, 0, 1, 0), 2, 4))
    c = FElement.word(nv, nu, (2,), t_mono(nv, nu, (1, 1, 1, 1, 1)))
    assert not poisson_defect(a, b, c, 1, 1).is_zero()
