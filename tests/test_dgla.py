"""Derivation algebra of S[y], its differential, and the wedge bracket."""

import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from jmoduli import (
    graded_quotient,
    parse_polynomial,
    weight_of_or_none,
)
from jmoduli.jacobian import nonsingular_gb
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
from test_golden import CASES, GOLDEN

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


def koszul_report(f, hilbert, degree, weight):
    """cohomology_report's four numbers from the Hilbert function of S/J_f
    alone, for f of weight nu >= 2 with J_f zero-dimensional.

    d is injective on L^-1 (the d_i part of d(sum h_i y d_i) is h_i f, and
    the e-line's image has x_i there), and d maps L^0 onto (J_f)_(w+nu),
    since f lies in J_f by Euler: the start of the Koszul complex of the
    regular sequence f_0..f_n.  So H^-1 = 0, H^1 = HF(w+nu) and
    H^0 = dim L^0 - dim (J_f)_(w+nu) - dim L^-1.
    """
    n, nu = f.nvars, weight_of_or_none(f)

    def count(w):  # monomials of weight w
        return comb(w + n - 1, n - 1) if w >= 0 else 0

    hf = hilbert[weight + nu] if 0 <= weight + nu < len(hilbert) else 0
    dims = {-1: (weight == 0) + n * count(weight - nu + 1),
            0: n * count(weight + 1) + count(weight),
            1: count(weight + nu)}
    rank_out = {-1: dims[-1], 0: count(weight + nu) - hf}
    dim_ker = dims.get(degree, 0) - rank_out.get(degree, 0)
    dim_im_in = rank_out.get(degree - 1, 0)
    return {"dim_piece": dims.get(degree, 0), "dim_ker": dim_ker,
            "dim_im_in": dim_im_in, "h_dim": dim_ker - dim_im_in}


def hilbert_of(f):
    return graded_quotient(f).hilbert


def test_cohomology_matches_hilbert_series():
    # every spot from weight -nu-1 to far past the goldens' weights; the
    # golden's rational cubic, with its negative coefficient, is only
    # pinned at a spot whose pieces are empty
    for text, top in [("x0^3 + x1^3 + x2^3", 20),
                      ("x0^3 + x1^3 + x2^3 + 5*x0*x1*x2", 20),
                      ("x0^3 + x1^3 + x2^3 - 3/2*x0*x1*x2", 12),
                      ("x0^4 + x1^4 + x2^4 + x3^4 + 2*x0^2*x1*x2", 10),
                      ("x0^2 + x1^2", 30)]:
        f = parse_polynomial(text)
        hilbert = hilbert_of(f)
        for w in range(-weight_of_or_none(f) - 1, top + 1):
            for d in (-1, 0, 1, 2):
                assert cohomology_report(f, d, w) == \
                    koszul_report(f, hilbert, d, w), (text, d, w)


@st.composite
def perturbed_fermat(draw):
    """A Fermat form plus up to two terms of its weight with signed,
    sometimes fractional coefficients."""
    n = draw(st.integers(2, 4))
    nu = draw(st.integers(2, 5 - n // 2))
    f = Polynomial(n, {tuple(nu * (i == j) for i in range(n)): Fraction(1)
                       for j in range(n)})
    monos = monomials_of_weight(n, nu)
    for _ in range(draw(st.integers(0, 2))):
        coeff = draw(st.sampled_from((-3, -1, 2, Fraction(-5, 3), Fraction(1, 2))))
        f = f + Polynomial(n, {draw(st.sampled_from(monos)): Fraction(coeff)})
    return f


@settings(derandomize=True, max_examples=60, deadline=None)
@given(perturbed_fermat(), st.sampled_from((-1, 0, 1, 2)), st.integers(-6, 8))
def test_cohomology_matches_the_koszul_formula_on_drawn_forms(f, degree, w):
    assume(not f.is_zero() and nonsingular_gb(f) is not None)
    assert cohomology_report(f, degree, w) == koszul_report(f, hilbert_of(f),
                                                            degree, w)


def test_cohomology_report_fields():
    report = cohomology_report(CUBIC, 1, -3)
    assert report == {"dim_piece": 1, "dim_ker": 1, "dim_im_in": 0, "h_dim": 1}


def test_passed_deadline_stops_the_cohomology():
    import time

    from jmoduli import BudgetExceeded

    with pytest.raises(BudgetExceeded, match="graded pieces"):
        cohomology_report(QUARTIC, 0, 4, deadline=time.perf_counter() - 1)


def test_passed_deadline_reaches_the_elimination(monkeypatch):
    import time

    import jmoduli.dgla as dgla
    from jmoduli import BudgetExceeded

    # only the elimination in linalg._echelon checks the deadline
    monkeypatch.setattr(dgla, "check_deadline", lambda deadline, stage: None)
    with pytest.raises(BudgetExceeded, match="elimination"):
        cohomology_report(QUARTIC, 0, 4, deadline=time.perf_counter() - 1)


DGLA_GOLDENS = sorted(name for name in CASES if name.startswith("dgla_"))


@pytest.mark.parametrize("name", DGLA_GOLDENS)
def test_boundary_rows_reach_the_elimination_unchecked(monkeypatch, name):
    """_boundary_rank hands _echelon fresh rows of nonzero ints on the
    columns of dst, and no row passes linalg._integer_row."""
    import json

    import jmoduli.dgla as dgla
    import jmoduli.linalg as linalg
    from jmoduli.cli import build_parser

    def no_check(*args):
        raise AssertionError("_integer_row on the boundary rows")

    ncols = []  # the dimension of dst of the boundary being ranked
    seen, ids = [], set()  # every row received, kept alive so no id is reused
    real_rank, real_echelon = dgla._boundary_rank, dgla._echelon

    def boundary_rank(row, nvars, bits, src, dst, deadline):
        ncols.append(sum(comb(xw + nvars - 1, nvars - 1) for *_, xw in dst))
        return real_rank(row, nvars, bits, src, dst, deadline)

    def checked(rows):
        for vec in rows:
            assert type(vec) is dict and id(vec) not in ids
            assert all(type(c) is int and c for c in vec.values())
            assert all(0 <= col < ncols[-1] for col in vec)
            seen.append(vec)
            ids.add(id(vec))
            yield vec

    monkeypatch.setattr(linalg, "_integer_row", no_check)
    monkeypatch.setattr(dgla, "_boundary_rank", boundary_rank)
    monkeypatch.setattr(dgla, "_echelon",
                        lambda rows, deadline: real_echelon(checked(rows),
                                                            deadline))
    args = build_parser().parse_args(CASES[name])
    spot = cohomology_report(parse_polynomial(args.f), args.degree,
                             args.weight)
    golden = json.loads((GOLDEN / f"{name}.json").read_text())["result"]
    assert spot == {key: golden[key] for key in spot}
    # one row per basis key of the piece and of the piece below it
    assert len(ncols) == 2 and len(seen) >= spot["dim_piece"]


def slow_boundary_rows(f, degree, weight):
    """den * d_f from L^degree to L^(degree + 1) through the public path:
    d_f_apply_F on graded_piece's elements, in graded_piece's order."""
    den = lcm(*(c.denominator for c in f.terms.values()))
    column = {key: col for col, b in
              enumerate(graded_piece(f, degree + 1, weight).basis)
              for key in b.terms}
    rows = []
    for b in graded_piece(f, degree, weight).basis:
        row = {column[k]: v * den for k, v in d_f_apply_F(b, f).terms.items()}
        assert all(v.denominator == 1 for v in row.values())
        rows.append({col: int(v) for col, v in row.items()})
    return rows


def assert_fast_rows_match(f, degree, weight):
    """The rows cohomology_report hands _echelon, out of the piece and
    into it, equal the slow rows column for column."""
    import jmoduli.dgla as dgla

    matrices, real_echelon = [], dgla._echelon

    def copied(rows, matrix):
        for vec in rows:
            matrix.append(dict(vec))  # _echelon reduces the rows it takes
            yield vec

    def echelon(rows, deadline):
        matrices.append([])
        return real_echelon(copied(rows, matrices[-1]), deadline)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dgla, "_echelon", echelon)
        cohomology_report(f, degree, weight)
    assert matrices == [slow_boundary_rows(f, degree, weight),
                        slow_boundary_rows(f, degree - 1, weight)]


@pytest.mark.parametrize("name", DGLA_GOLDENS)
def test_fast_boundary_rows_match_the_element_path_at_the_goldens(name):
    from jmoduli.cli import build_parser

    args = build_parser().parse_args(CASES[name])
    assert_fast_rows_match(parse_polynomial(args.f), args.degree, args.weight)


# the e line at (-1, 0); weight + 2 nu a power of two (the cubic at 2, the
# quartic at 0 and 8); the cubic at weight 6, where packing one bit short
# of the width would give x0^8*x2 and x1^9 the same key
EDGE_SPOTS = [("cubic", -1, 0), ("cubic", 0, 0), ("cubic", 0, 2),
              ("cubic", 1, 2), ("quartic", -1, 0), ("quartic", 0, 0),
              ("quartic", 1, 8), ("cubic", 0, 6), ("cubic", 1, 6)]


@pytest.mark.parametrize("form,degree,weight", EDGE_SPOTS,
                         ids=[f"{f}({d},{w})" for f, d, w in EDGE_SPOTS])
def test_fast_boundary_rows_match_the_element_path_at_edge_spots(form, degree,
                                                                 weight):
    f = {"cubic": CUBIC, "quartic": QUARTIC}[form]
    assert_fast_rows_match(f, degree, weight)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(perturbed_fermat(), st.integers(-2, 2), st.integers(-6, 8))
def test_fast_boundary_rows_match_the_element_path_on_drawn_forms(f, degree,
                                                                  w):
    assume(not f.is_zero())
    assert_fast_rows_match(f, degree, w)


def test_cohomology_counters():
    from jmoduli.stats import Stats

    # (0, 0): L^-1 is the e line, whose image has 4 terms; L^0 has 9 rows
    # x_j d_i -> 3 x_j x_i^2 del of one term and y del -> f del of 3, and
    # maps onto (J_f)_3, of dimension 9, in L^1 = x^3 del
    stats = Stats()
    cohomology_report(CUBIC, 0, 0, stats=stats)
    assert stats.counters == {
        "piece_dim": 10, "out_rows": 10, "out_cols": 10, "out_nnz": 12,
        "out_rank": 9, "in_rows": 1, "in_cols": 10, "in_nnz": 4, "in_rank": 1}
    # (1, -3): the lone del, closed, with empty pieces on either side
    stats = Stats()
    cohomology_report(CUBIC, 1, -3, stats=stats)
    assert stats.counters == {
        "piece_dim": 1, "out_rows": 1, "out_cols": 0, "out_nnz": 0,
        "out_rank": 0, "in_rows": 0, "in_cols": 1, "in_nnz": 0, "in_rank": 0}


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
